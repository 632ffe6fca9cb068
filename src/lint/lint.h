// unicert/lint/lint.h
//
// The certificate linter framework: a zlint-style rule registry with
// per-lint severity, requirement source, noncompliance taxonomy type
// (Table 1 of the paper), and effective dates so rules are not applied
// retroactively to certificates issued before the rule existed
// (Section 3.1.2).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asn1/strings.h"
#include "lint/cert_view.h"
#include "x509/certificate.h"
#include "x509/field.h"
#include "x509/lazy.h"

namespace unicert::lint {

enum class Severity { kInfo, kWarning, kError };

const char* severity_name(Severity s) noexcept;

// Which standard a rule derives from.
enum class Source {
    kRfc5280,
    kRfc6818,
    kRfc8399,
    kRfc9549,
    kRfc9598,
    kIdna,      // RFC 5890-5892 / IDNA2008
    kDnsRfc,    // RFC 1034 et al.
    kCabfBr,
    kCommunity,
    kX680,      // ASN.1 base standard
};

const char* source_name(Source s) noexcept;

// The paper's noncompliance taxonomy (Table 1).
enum class NcType {
    kInvalidCharacter,   // T1
    kBadNormalization,   // T2
    kIllegalFormat,      // T3a
    kInvalidEncoding,    // T3b
    kInvalidStructure,   // T3c
    kDiscouragedField,   // T3d
};

const char* nc_type_name(NcType t) noexcept;

// Declared read footprint of a rule: which certificate fields,
// extensions, DN attribute types and string encodings the rule may
// inspect. Field and extension reads are verified dynamically against
// the CertView access trace by the rule-set analyzer
// (lint::analysis::Analyzer); attribute and string-type sets are
// declarative and scope the analyzer's cross-rule relation search
// (DESIGN.md section 9).
struct RuleFootprint {
    uint32_t fields = 0;                         // x509::CertField mask
    std::vector<asn1::Oid> extensions;           // extension OIDs the rule may probe
    std::vector<asn1::Oid> attributes;           // DN attribute types read (empty = any)
    std::vector<asn1::StringType> string_types;  // encodings inspected (empty = any)

    bool allows_field(x509::CertField f) const noexcept;
    bool allows_extension(const asn1::Oid& oid) const noexcept;
    // True when the two footprints can observe overlapping certificate
    // content (shared field bit or shared extension OID).
    bool overlaps(const RuleFootprint& other) const noexcept;
    // Field/extension/attribute/string-type sets all equal.
    bool same_scope(const RuleFootprint& other) const noexcept;
};

// Footprint literal helper for rule registration sites.
RuleFootprint footprint(std::initializer_list<x509::CertField> fields,
                        std::initializer_list<const asn1::Oid*> extensions = {},
                        std::initializer_list<const asn1::Oid*> attributes = {},
                        std::initializer_list<asn1::StringType> string_types = {});

struct LintInfo {
    std::string name;        // stable snake_case id, e.g. "e_rfc_dns_idn_a2u_unpermitted_unichar"
    std::string description;
    Severity severity = Severity::kError;
    Source source = Source::kRfc5280;
    NcType type = NcType::kInvalidCharacter;
    int64_t effective_date = 0;  // Unix time; applies to certs issued on/after
    bool is_new = false;         // one of the paper's 50 newly-added lints
    RuleFootprint footprint;     // declared read set (DESIGN.md section 9)
};

// One lint rule: metadata + a check returning a violation detail
// message, or nullopt when compliant. Checks read the certificate
// exclusively through the CertView facade so the analyzer can trace
// their accesses.
struct Rule {
    LintInfo info;
    std::function<std::optional<std::string>(const CertView&)> check;
};

// A violation found on a specific certificate.
struct Finding {
    const LintInfo* lint = nullptr;
    std::string detail;
};

// Per-certificate result.
struct CertReport {
    std::vector<Finding> findings;

    bool noncompliant() const noexcept { return !findings.empty(); }
    bool has_error() const noexcept;
    bool has_warning() const noexcept;
    bool has_type(NcType t) const noexcept;
    bool has_lint(std::string_view name) const noexcept;
};

// The rule collection. Immutable once built; the default registry
// carries the full 95-rule set described in DESIGN.md.
class Registry {
public:
    // Validates at registration time: a rule must carry a non-empty
    // name that is not already registered, and a check function.
    // Throws std::invalid_argument on violation, so a duplicate or
    // incomplete rule can never reach a running pipeline. (Name style,
    // metadata and footprint hygiene are the analyzer's job.)
    void add(Rule rule);

    std::span<const Rule> rules() const noexcept { return rules_; }
    size_t size() const noexcept { return rules_.size(); }

    const Rule* find(std::string_view name) const;

    // Count rules per taxonomy type / newness (for the Table 1 header).
    size_t count_type(NcType t) const;
    size_t count_new() const;

private:
    std::vector<Rule> rules_;
};

// The full built-in rule set.
const Registry& default_registry();

struct RunOptions {
    // When true (the paper's main configuration) a rule only applies to
    // certificates whose notBefore is on/after the rule's effective
    // date. Footnote 4: disabling this raises 249K NC certs to 1.8M.
    bool respect_effective_dates = true;
};

// Run every applicable rule against one certificate.
CertReport run_lints(const x509::Certificate& cert, const Registry& registry = default_registry(),
                     const RunOptions& options = {});

// Lints an indexed wire certificate: cert.materialize(), then the
// overload above.
CertReport run_lints(const x509::LazyCertificate& cert,
                     const Registry& registry = default_registry(),
                     const RunOptions& options = {});

}  // namespace unicert::lint
