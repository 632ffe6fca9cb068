// unicert/lint/analysis/analyzer.h
//
// Static + dynamic analyzer for the lint rule set itself (DESIGN.md
// section 9). Where the linter checks certificates against rules, this
// checks the *rules* against their own contract:
//
//   * footprint verification — every field/extension a rule reads
//     through its CertView must be covered by its declared
//     RuleFootprint (traced with TracingCertView over a probe corpus);
//   * determinism — the same certificate must produce the same verdict
//     across repeated invocations;
//   * order independence — verdicts must not depend on the order rules
//     or probes are run in (the section 8 reentrancy contract);
//   * metadata hygiene — name style, severity prefix, namespace vs
//     Source, effective date vs the cited standard's publication date,
//     and the Table 1 per-type counts;
//   * cross-rule relations — subsumption, equivalence and (same-scope)
//     mutual exclusion measured on probe firing sets.
//
// Known-intentional findings are acknowledged via a plain-text baseline
// (one space-separated `class rule other` line each, as produced by
// baseline_line()) rather than silenced in code, so new violations
// always surface.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/cert_view.h"
#include "lint/lint.h"

namespace unicert::lint::analysis {

// A CertView that owns its AccessTrace: the instrumented facade the
// analyzer hands to rules. (The base constructor only stores the
// pointer, so passing &trace_ before trace_ is constructed is safe.)
class TracingCertView : public CertView {
public:
    explicit TracingCertView(const x509::Certificate& cert) noexcept
        : CertView(cert, &trace_) {}

    const AccessTrace& trace() const noexcept { return trace_; }
    void reset() noexcept { trace_.clear(); }

private:
    AccessTrace trace_;
};

// What kind of rule-set defect a finding reports.
enum class CheckClass {
    kMalformedName,          // name does not match ^[ewn]_[a-z0-9_]+$
    kDuplicateName,          // two rules share a name
    kPrefixSeverityMismatch, // e_/w_/n_ prefix disagrees with Severity
    kNamespaceSourceMismatch,// name namespace token disagrees with Source
    kAnachronisticDate,      // effective date predates the cited standard
    kTypeCountMismatch,      // per-NcType / is_new totals off Table 1
    kMissingFootprint,       // rule declares no readable surface at all
    kFootprintViolation,     // traced access outside the declared footprint
    kNondeterminism,         // same cert, different verdict on repeat
    kOrderDependence,        // verdict depends on rule/probe run order
    kCheckThrew,             // check raised an exception on a probe
    kSubsumption,            // rule's firing set is a strict subset of another's
    kEquivalence,            // two rules fire on exactly the same probes
    kMutualExclusion,        // same-scope rules with disjoint firing sets
};

const char* check_class_name(CheckClass c) noexcept;

struct AnalysisFinding {
    CheckClass cls = CheckClass::kMalformedName;
    std::string rule;    // primary rule the finding is about
    std::string other;   // counterpart rule for relation findings ("" otherwise)
    std::string detail;  // human-readable evidence
};

struct AnalyzerOptions {
    uint64_t seed = 42;
    // Probe corpus: CorpusGenerator downscale (larger = fewer certs)
    // plus the forced-defect showcase and DER-mutant reparses.
    double corpus_scale = 16000.0;
    size_t showcase_per_kind = 6;
    size_t mutant_probes = 64;
    // Extra verdict repetitions per (rule, probe) for the determinism
    // check (beyond the first run).
    size_t determinism_repeats = 2;
    // Minimum firing-set size before a cross-rule relation is reported
    // (tiny sets make subset/disjointness statistically meaningless).
    size_t min_support = 8;
    bool check_relations = true;
    // Verify the registry matches the paper's Table 1 header counts
    // (95 rules, 50 new, per-type totals). Only meaningful for the
    // default registry; disable for ad-hoc registries.
    bool check_table1_counts = false;
};

struct AnalysisReport {
    size_t rules_checked = 0;
    size_t probe_count = 0;
    std::vector<AnalysisFinding> findings;   // violations (gate-blocking)
    std::vector<AnalysisFinding> baselined;  // acknowledged via baseline

    bool clean() const noexcept { return findings.empty(); }
};

class Analyzer {
public:
    explicit Analyzer(AnalyzerOptions options = {}) : options_(options) {}

    // Run every check against `registry`. Deterministic for a given
    // (options.seed, registry).
    AnalysisReport analyze(const Registry& registry) const;

private:
    AnalyzerOptions options_;
};

// Baseline handling. Format: one finding per line,
//   <class> <rule> <other>
// with `-` for an empty counterpart; blank lines and `#` comments
// ignored. Returns the number of findings moved to report.baselined.
size_t apply_baseline(AnalysisReport& report, std::string_view baseline_text);

// The acknowledged lines of a baseline text, trimmed, without blank
// lines and `#` comments. Shared with tlslib::analysis, whose baseline
// has the same line format.
std::set<std::string> baseline_entries(std::string_view baseline_text);

// The canonical baseline line for a finding (no trailing newline).
std::string baseline_line(const AnalysisFinding& f);

// Machine-readable report (matches the unicert_rulecheck --json shape).
std::string analysis_report_to_json(const AnalysisReport& report);

// Process exit code the CI gate uses: 0 clean, 1 findings remain.
int exit_code(const AnalysisReport& report) noexcept;

}  // namespace unicert::lint::analysis
