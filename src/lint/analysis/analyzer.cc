#include "lint/analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "asn1/time.h"
#include "common/json_escape.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "faultsim/der_mutator.h"
#include "lint/helpers.h"
#include "x509/builder.h"
#include "x509/extensions.h"
#include "x509/field.h"
#include "x509/parser.h"

namespace unicert::lint::analysis {
namespace {

// ---- Probe corpus -----------------------------------------------------------

// Handcrafted edge certificates exercising fields the statistical
// corpus almost never makes interesting (serial, validity, SAN syntax).
std::vector<x509::Certificate> edge_probes() {
    using asn1::StringType;
    namespace oids = asn1::oids;
    std::vector<x509::Certificate> out;

    // Entirely empty certificate: every rule's no-data path.
    out.emplace_back();

    auto base = [] {
        x509::Certificate cert;
        cert.version = 2;
        cert.serial = {0x01, 0x02, 0x03};
        cert.subject = x509::make_dn({
            x509::make_attribute(oids::country_name(), "US", StringType::kPrintableString),
            x509::make_attribute(oids::organization_name(), "Edge Probe Org"),
            x509::make_attribute(oids::common_name(), "edge.example"),
        });
        cert.extensions.push_back(x509::make_san({x509::dns_name("edge.example")}));
        cert.validity = {asn1::make_time(2024, 6, 1), asn1::make_time(2025, 6, 1)};
        return cert;
    };

    {  // Reversed validity window.
        x509::Certificate cert = base();
        std::swap(cert.validity.not_before, cert.validity.not_after);
        out.push_back(std::move(cert));
    }
    {  // Serial too long and zero-valued.
        x509::Certificate cert = base();
        cert.serial.assign(24, 0x00);
        out.push_back(std::move(cert));
    }
    {  // Empty + dotted SAN entries, mailbox without '@'.
        x509::Certificate cert = base();
        cert.extensions.clear();
        cert.extensions.push_back(x509::make_san(
            {x509::dns_name(""), x509::dns_name(".leading.dot"),
             x509::rfc822_name("no-at-symbol"), x509::dns_name("a..b.example")}));
        out.push_back(std::move(cert));
    }
    {  // Oversized DNS label and name.
        x509::Certificate cert = base();
        std::string label(70, 'x');
        std::string host = label + ".example";
        cert.extensions.clear();
        cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
        out.push_back(std::move(cert));
    }
    return out;
}

std::vector<x509::Certificate> build_probes(const AnalyzerOptions& options) {
    std::vector<x509::Certificate> probes;

    ctlog::CorpusOptions copts;
    copts.seed = options.seed;
    copts.scale = options.corpus_scale;
    ctlog::CorpusGenerator gen(copts);
    std::vector<ctlog::CorpusCert> corpus = gen.generate();
    std::vector<ctlog::CorpusCert> showcase =
        gen.generate_defect_showcase(options.showcase_per_kind);

    probes.reserve(corpus.size() + 2 * showcase.size() + options.mutant_probes + 8);
    for (ctlog::CorpusCert& cc : corpus) probes.push_back(std::move(cc.cert));

    // DER mutants: sign showcase certs, structurally corrupt the DER,
    // and keep whatever still reparses — probing rules with byte
    // patterns no honest builder emits.
    faultsim::DerMutator mutator(options.seed);
    crypto::SimSigner signer = crypto::SimSigner::from_name("Showcase CA");
    size_t kept = 0;
    for (size_t salt = 0; kept < options.mutant_probes && salt < options.mutant_probes * 4;
         ++salt) {
        if (showcase.empty()) break;
        x509::Certificate victim = showcase[salt % showcase.size()].cert;
        Bytes der = x509::sign_certificate(victim, signer);
        Bytes mutated = mutator.mutate(der, salt);
        auto parsed = x509::parse_certificate(mutated);
        if (!parsed.ok()) continue;
        probes.push_back(std::move(parsed).value());
        ++kept;
    }

    for (ctlog::CorpusCert& cc : showcase) probes.push_back(std::move(cc.cert));
    for (x509::Certificate& cert : edge_probes()) probes.push_back(std::move(cert));
    return probes;
}

// ---- Verdict bookkeeping ----------------------------------------------------

// A rule's verdict on one probe; nullopt when compliant, the detail
// string otherwise. kThrew marks an exception.
struct Verdict {
    enum State : uint8_t { kClean, kFired, kThrew };
    State state = kClean;
    std::string detail;

    bool operator==(const Verdict& other) const {
        return state == other.state && detail == other.detail;
    }
};

Verdict run_rule(const Rule& rule, const CertView& view) {
    Verdict v;
    try {
        if (auto detail = rule.check(view)) {
            v.state = Verdict::kFired;
            v.detail = std::move(*detail);
        }
    } catch (const std::exception& e) {
        v.state = Verdict::kThrew;
        v.detail = e.what();
    } catch (...) {
        v.state = Verdict::kThrew;
        v.detail = "non-standard exception";
    }
    return v;
}

// ---- Metadata checks --------------------------------------------------------

bool is_well_formed_name(std::string_view name) {
    if (name.size() < 3) return false;
    if (name[0] != 'e' && name[0] != 'w' && name[0] != 'n') return false;
    if (name[1] != '_') return false;
    for (char c : name.substr(2)) {
        if (!(c == '_' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) return false;
    }
    return true;
}

std::optional<Severity> prefix_severity(std::string_view name) {
    if (name.rfind("e_", 0) == 0) return Severity::kError;
    if (name.rfind("w_", 0) == 0) return Severity::kWarning;
    if (name.rfind("n_", 0) == 0) return Severity::kInfo;
    return std::nullopt;
}

// The namespace token is the first '_'-separated word after the
// severity prefix. Only tokens that CLAIM a requirement source are
// checked; field-position tokens ("subject", "ext", "dns", …) and
// protocol numbers that are not Sources ("rfc822") claim nothing.
std::vector<Source> namespace_claim(std::string_view name) {
    size_t start = 2;
    size_t end = name.find('_', start);
    std::string_view token = name.substr(start, end == std::string_view::npos
                                                    ? std::string_view::npos
                                                    : end - start);
    if (token == "rfc") {
        return {Source::kRfc5280, Source::kRfc6818, Source::kRfc8399, Source::kRfc9549,
                Source::kRfc9598, Source::kIdna,    Source::kDnsRfc};
    }
    if (token == "rfc5280") return {Source::kRfc5280};
    if (token == "rfc6818") return {Source::kRfc6818};
    if (token == "rfc8399") return {Source::kRfc8399};
    if (token == "rfc9549") return {Source::kRfc9549};
    if (token == "rfc9598") return {Source::kRfc9598};
    if (token == "cab" || token == "cabf") return {Source::kCabfBr};
    if (token == "community") return {Source::kCommunity};
    if (token == "x680") return {Source::kX680};
    return {};
}

void check_metadata(const Registry& registry, const AnalyzerOptions& options,
                    std::vector<AnalysisFinding>& findings) {
    std::set<std::string_view> seen;
    for (const Rule& rule : registry.rules()) {
        const LintInfo& info = rule.info;

        if (!is_well_formed_name(info.name)) {
            findings.push_back({CheckClass::kMalformedName, info.name, "",
                                "name does not match ^[ewn]_[a-z0-9_]+$"});
        }
        if (!seen.insert(info.name).second) {
            findings.push_back({CheckClass::kDuplicateName, info.name, "",
                                "name registered more than once"});
        }

        if (auto expect = prefix_severity(info.name); expect && *expect != info.severity) {
            findings.push_back(
                {CheckClass::kPrefixSeverityMismatch, info.name, "",
                 std::string("prefix implies ") + severity_name(*expect) + " but severity is " +
                     severity_name(info.severity)});
        }

        std::vector<Source> claimed = namespace_claim(info.name);
        if (!claimed.empty() &&
            std::find(claimed.begin(), claimed.end(), info.source) == claimed.end()) {
            findings.push_back({CheckClass::kNamespaceSourceMismatch, info.name, "",
                                std::string("namespace token disagrees with source ") +
                                    source_name(info.source)});
        }

        if (info.effective_date < source_publication_date(info.source)) {
            findings.push_back({CheckClass::kAnachronisticDate, info.name, "",
                                std::string("effective date predates publication of ") +
                                    source_name(info.source)});
        }

        if (info.footprint.fields == 0 && info.footprint.extensions.empty()) {
            findings.push_back({CheckClass::kMissingFootprint, info.name, "",
                                "footprint declares no fields or extensions"});
        }
    }

    if (options.check_table1_counts) {
        struct TypeCount {
            NcType type;
            size_t count;
        };
        // Table 1 header: 95 lints total, 50 new; per-type totals.
        static const TypeCount kExpected[] = {
            {NcType::kInvalidCharacter, 22}, {NcType::kBadNormalization, 4},
            {NcType::kIllegalFormat, 17},    {NcType::kInvalidEncoding, 48},
            {NcType::kInvalidStructure, 2},  {NcType::kDiscouragedField, 2},
        };
        for (const TypeCount& e : kExpected) {
            size_t have = registry.count_type(e.type);
            if (have != e.count) {
                findings.push_back({CheckClass::kTypeCountMismatch,
                                    nc_type_name(e.type), "",
                                    "expected " + std::to_string(e.count) + " rules, found " +
                                        std::to_string(have)});
            }
        }
        if (registry.size() != 95) {
            findings.push_back({CheckClass::kTypeCountMismatch, "total", "",
                                "expected 95 rules, found " + std::to_string(registry.size())});
        }
        if (registry.count_new() != 50) {
            findings.push_back(
                {CheckClass::kTypeCountMismatch, "new", "",
                 "expected 50 new rules, found " + std::to_string(registry.count_new())});
        }
    }
}

}  // namespace

const char* check_class_name(CheckClass c) noexcept {
    switch (c) {
        case CheckClass::kMalformedName: return "malformed_name";
        case CheckClass::kDuplicateName: return "duplicate_name";
        case CheckClass::kPrefixSeverityMismatch: return "prefix_severity_mismatch";
        case CheckClass::kNamespaceSourceMismatch: return "namespace_source_mismatch";
        case CheckClass::kAnachronisticDate: return "anachronistic_date";
        case CheckClass::kTypeCountMismatch: return "type_count_mismatch";
        case CheckClass::kMissingFootprint: return "missing_footprint";
        case CheckClass::kFootprintViolation: return "footprint_violation";
        case CheckClass::kNondeterminism: return "nondeterminism";
        case CheckClass::kOrderDependence: return "order_dependence";
        case CheckClass::kCheckThrew: return "check_threw";
        case CheckClass::kSubsumption: return "subsumption";
        case CheckClass::kEquivalence: return "equivalence";
        case CheckClass::kMutualExclusion: return "mutual_exclusion";
    }
    return "?";
}

AnalysisReport Analyzer::analyze(const Registry& registry) const {
    AnalysisReport report;
    report.rules_checked = registry.size();

    check_metadata(registry, options_, report.findings);

    std::vector<x509::Certificate> probes = build_probes(options_);
    report.probe_count = probes.size();

    std::span<const Rule> rules = registry.rules();
    const size_t n_rules = rules.size();
    const size_t n_probes = probes.size();

    // Forward pass: verdicts + access traces + determinism repeats.
    std::vector<std::vector<Verdict>> forward(n_rules);
    std::vector<std::vector<size_t>> fired(n_rules);  // probe indices per rule

    for (size_t r = 0; r < n_rules; ++r) {
        const Rule& rule = rules[r];
        forward[r].resize(n_probes);

        AccessTrace undeclared;  // accumulated out-of-footprint accesses
        bool threw = false;
        bool nondet = false;

        for (size_t p = 0; p < n_probes; ++p) {
            TracingCertView view(probes[p]);
            Verdict v = run_rule(rule, view);
            forward[r][p] = v;
            if (v.state == Verdict::kFired) fired[r].push_back(p);

            if (v.state == Verdict::kThrew && !threw) {
                threw = true;
                report.findings.push_back({CheckClass::kCheckThrew, rule.info.name, "",
                                           "probe " + std::to_string(p) + ": " + v.detail});
            }

            // Footprint: every traced access must be declared.
            const AccessTrace& trace = view.trace();
            for (uint32_t bit = 1; bit <= x509::field_bit(x509::CertField::kWholeCert);
                 bit <<= 1) {
                auto f = static_cast<x509::CertField>(bit);
                if (trace.saw_field(f) && !rule.info.footprint.allows_field(f)) {
                    undeclared.note_field(f);
                }
            }
            for (const asn1::Oid& oid : trace.extensions) {
                if (!rule.info.footprint.allows_extension(oid)) {
                    undeclared.note_extension(oid);
                }
            }

            // Determinism: re-run on a fresh view; any verdict change is
            // hidden state or input-independent behavior.
            for (size_t rep = 0; !nondet && rep < options_.determinism_repeats; ++rep) {
                CertView plain(probes[p]);
                if (!(run_rule(rule, plain) == v)) {
                    nondet = true;
                    report.findings.push_back(
                        {CheckClass::kNondeterminism, rule.info.name, "",
                         "verdict changed across repeated runs on probe " + std::to_string(p)});
                }
            }
        }

        if (undeclared.fields != 0) {
            report.findings.push_back({CheckClass::kFootprintViolation, rule.info.name, "",
                                       "undeclared field reads: " +
                                           x509::cert_field_mask_names(undeclared.fields)});
        }
        for (const asn1::Oid& oid : undeclared.extensions) {
            report.findings.push_back({CheckClass::kFootprintViolation, rule.info.name, "",
                                       "undeclared extension probe: " + oid.to_string()});
        }
    }

    // Reverse pass: run rules and probes in the opposite order with
    // plain views; any cell differing from the forward matrix means a
    // rule's verdict depends on invocation order (section 8 contract).
    for (size_t ri = n_rules; ri-- > 0;) {
        const Rule& rule = rules[ri];
        bool flagged = false;
        for (size_t pi = n_probes; pi-- > 0 && !flagged;) {
            CertView view(probes[pi]);
            if (!(run_rule(rule, view) == forward[ri][pi])) {
                flagged = true;
                report.findings.push_back(
                    {CheckClass::kOrderDependence, rule.info.name, "",
                     "verdict on probe " + std::to_string(pi) +
                         " differs when rules/probes run in reverse order"});
            }
        }
    }

    // Cross-rule relations on firing sets (fired[] lists are sorted by
    // construction). Only footprint-overlapping pairs are compared —
    // the declarative footprint scopes the search.
    if (options_.check_relations) {
        auto is_subset = [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
            return std::includes(b.begin(), b.end(), a.begin(), a.end());
        };
        auto disjoint = [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
            std::vector<size_t> inter;
            std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                  std::back_inserter(inter));
            return inter.empty();
        };

        for (size_t a = 0; a < n_rules; ++a) {
            for (size_t b = a + 1; b < n_rules; ++b) {
                const RuleFootprint& fa = rules[a].info.footprint;
                const RuleFootprint& fb = rules[b].info.footprint;
                if (!fa.overlaps(fb)) continue;
                const auto& sa = fired[a];
                const auto& sb = fired[b];

                if (sa.size() >= options_.min_support && sa == sb) {
                    report.findings.push_back(
                        {CheckClass::kEquivalence, rules[a].info.name, rules[b].info.name,
                         "identical firing sets (" + std::to_string(sa.size()) + " probes)"});
                    continue;
                }
                if (sa.size() >= options_.min_support && sa.size() < sb.size() &&
                    is_subset(sa, sb)) {
                    report.findings.push_back(
                        {CheckClass::kSubsumption, rules[a].info.name, rules[b].info.name,
                         "every probe firing it (" + std::to_string(sa.size()) +
                             ") also fires the broader rule (" + std::to_string(sb.size()) +
                             ")"});
                }
                if (sb.size() >= options_.min_support && sb.size() < sa.size() &&
                    is_subset(sb, sa)) {
                    report.findings.push_back(
                        {CheckClass::kSubsumption, rules[b].info.name, rules[a].info.name,
                         "every probe firing it (" + std::to_string(sb.size()) +
                             ") also fires the broader rule (" + std::to_string(sa.size()) +
                             ")"});
                }
                if (fa.same_scope(fb) && sa.size() >= options_.min_support &&
                    sb.size() >= options_.min_support && disjoint(sa, sb)) {
                    report.findings.push_back(
                        {CheckClass::kMutualExclusion, rules[a].info.name, rules[b].info.name,
                         "same declared scope but disjoint firing sets (" +
                             std::to_string(sa.size()) + " vs " + std::to_string(sb.size()) +
                             " probes)"});
                }
            }
        }
    }

    return report;
}

// ---- Baseline ---------------------------------------------------------------

std::string baseline_line(const AnalysisFinding& f) {
    std::string line = check_class_name(f.cls);
    line += ' ';
    line += f.rule.empty() ? "-" : f.rule;
    line += ' ';
    line += f.other.empty() ? "-" : f.other;
    return line;
}

std::set<std::string> baseline_entries(std::string_view baseline_text) {
    std::set<std::string> acknowledged;
    size_t start = 0;
    while (start <= baseline_text.size()) {
        size_t end = baseline_text.find('\n', start);
        std::string_view line = baseline_text.substr(
            start, end == std::string_view::npos ? std::string_view::npos : end - start);
        // Trim trailing CR and surrounding spaces.
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
            line.remove_suffix(1);
        }
        while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
        if (!line.empty() && line.front() != '#') acknowledged.emplace(line);
        if (end == std::string_view::npos) break;
        start = end + 1;
    }
    return acknowledged;
}

size_t apply_baseline(AnalysisReport& report, std::string_view baseline_text) {
    const std::set<std::string> acknowledged = baseline_entries(baseline_text);

    size_t moved = 0;
    std::vector<AnalysisFinding> remaining;
    for (AnalysisFinding& f : report.findings) {
        if (acknowledged.count(baseline_line(f)) != 0) {
            report.baselined.push_back(std::move(f));
            ++moved;
        } else {
            remaining.push_back(std::move(f));
        }
    }
    report.findings = std::move(remaining);
    return moved;
}

// ---- JSON -------------------------------------------------------------------

namespace {

void append_findings(std::string& json, const std::vector<AnalysisFinding>& findings) {
    json += '[';
    for (size_t i = 0; i < findings.size(); ++i) {
        const AnalysisFinding& f = findings[i];
        if (i != 0) json += ',';
        json += "{\"class\":\"";
        json += check_class_name(f.cls);
        json += "\",\"rule\":\"";
        json += json_escape(f.rule);
        json += '"';
        if (!f.other.empty()) {
            json += ",\"other\":\"";
            json += json_escape(f.other);
            json += '"';
        }
        json += ",\"detail\":\"";
        json += json_escape(f.detail);
        json += "\"}";
    }
    json += ']';
}

}  // namespace

std::string analysis_report_to_json(const AnalysisReport& report) {
    std::string json = "{\"rules_checked\":" + std::to_string(report.rules_checked) +
                       ",\"probes\":" + std::to_string(report.probe_count) +
                       ",\"clean\":" + (report.clean() ? "true" : "false") + ",\"findings\":";
    append_findings(json, report.findings);
    json += ",\"baselined\":";
    append_findings(json, report.baselined);
    json += "}\n";
    return json;
}

int exit_code(const AnalysisReport& report) noexcept { return report.clean() ? 0 : 1; }

}  // namespace unicert::lint::analysis
