#include "lint/lint.h"

#include <algorithm>
#include <stdexcept>

namespace unicert::lint {

namespace {

template <typename T>
bool contains(const std::vector<T>& haystack, const T& needle) {
    return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

template <typename T>
bool same_set(const std::vector<T>& a, const std::vector<T>& b) {
    if (a.size() != b.size()) return false;
    return std::all_of(a.begin(), a.end(), [&](const T& v) { return contains(b, v); });
}

}  // namespace

bool RuleFootprint::allows_field(x509::CertField f) const noexcept {
    if ((fields & x509::field_bit(x509::CertField::kWholeCert)) != 0) return true;
    return (fields & x509::field_bit(f)) != 0;
}

bool RuleFootprint::allows_extension(const asn1::Oid& oid) const noexcept {
    if ((fields & x509::field_bit(x509::CertField::kWholeCert)) != 0) return true;
    if ((fields & x509::field_bit(x509::CertField::kExtensions)) != 0) return true;
    return contains(extensions, oid);
}

bool RuleFootprint::overlaps(const RuleFootprint& other) const noexcept {
    uint32_t whole = x509::field_bit(x509::CertField::kWholeCert);
    if (((fields | other.fields) & whole) != 0) return true;
    if ((fields & other.fields) != 0) return true;
    return std::any_of(extensions.begin(), extensions.end(),
                       [&](const asn1::Oid& oid) { return contains(other.extensions, oid); });
}

bool RuleFootprint::same_scope(const RuleFootprint& other) const noexcept {
    return fields == other.fields && same_set(extensions, other.extensions) &&
           same_set(attributes, other.attributes) && same_set(string_types, other.string_types);
}

RuleFootprint footprint(std::initializer_list<x509::CertField> fields,
                        std::initializer_list<const asn1::Oid*> extensions,
                        std::initializer_list<const asn1::Oid*> attributes,
                        std::initializer_list<asn1::StringType> string_types) {
    RuleFootprint fp;
    for (x509::CertField f : fields) fp.fields |= x509::field_bit(f);
    for (const asn1::Oid* oid : extensions) fp.extensions.push_back(*oid);
    for (const asn1::Oid* oid : attributes) fp.attributes.push_back(*oid);
    fp.string_types.assign(string_types.begin(), string_types.end());
    return fp;
}

const char* severity_name(Severity s) noexcept {
    switch (s) {
        case Severity::kInfo: return "info";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

const char* source_name(Source s) noexcept {
    switch (s) {
        case Source::kRfc5280: return "RFC5280";
        case Source::kRfc6818: return "RFC6818";
        case Source::kRfc8399: return "RFC8399";
        case Source::kRfc9549: return "RFC9549";
        case Source::kRfc9598: return "RFC9598";
        case Source::kIdna: return "IDNA";
        case Source::kDnsRfc: return "DNS";
        case Source::kCabfBr: return "CABF_BR";
        case Source::kCommunity: return "Community";
        case Source::kX680: return "X.680";
    }
    return "?";
}

const char* nc_type_name(NcType t) noexcept {
    switch (t) {
        case NcType::kInvalidCharacter: return "Invalid Character";
        case NcType::kBadNormalization: return "Bad Normalization";
        case NcType::kIllegalFormat: return "Illegal Format";
        case NcType::kInvalidEncoding: return "Invalid Encoding";
        case NcType::kInvalidStructure: return "Invalid Structure";
        case NcType::kDiscouragedField: return "Discouraged Field";
    }
    return "?";
}

bool CertReport::has_error() const noexcept {
    return std::any_of(findings.begin(), findings.end(),
                       [](const Finding& f) { return f.lint->severity == Severity::kError; });
}

bool CertReport::has_warning() const noexcept {
    return std::any_of(findings.begin(), findings.end(),
                       [](const Finding& f) { return f.lint->severity == Severity::kWarning; });
}

bool CertReport::has_type(NcType t) const noexcept {
    return std::any_of(findings.begin(), findings.end(),
                       [t](const Finding& f) { return f.lint->type == t; });
}

bool CertReport::has_lint(std::string_view name) const noexcept {
    return std::any_of(findings.begin(), findings.end(),
                       [name](const Finding& f) { return f.lint->name == name; });
}

void Registry::add(Rule rule) {
    if (rule.info.name.empty()) {
        throw std::invalid_argument("lint rule with empty name");
    }
    if (!rule.check) {
        throw std::invalid_argument("lint rule '" + rule.info.name + "' has no check function");
    }
    if (find(rule.info.name) != nullptr) {
        throw std::invalid_argument("duplicate lint rule name '" + rule.info.name + "'");
    }
    rules_.push_back(std::move(rule));
}

const Rule* Registry::find(std::string_view name) const {
    for (const Rule& r : rules_) {
        if (r.info.name == name) return &r;
    }
    return nullptr;
}

size_t Registry::count_type(NcType t) const {
    return static_cast<size_t>(std::count_if(
        rules_.begin(), rules_.end(), [t](const Rule& r) { return r.info.type == t; }));
}

size_t Registry::count_new() const {
    return static_cast<size_t>(std::count_if(rules_.begin(), rules_.end(),
                                             [](const Rule& r) { return r.info.is_new; }));
}

CertReport run_lints(const x509::Certificate& cert, const Registry& registry,
                     const RunOptions& options) {
    CertReport report;
    CertView view(cert);
    for (const Rule& rule : registry.rules()) {
        if (options.respect_effective_dates &&
            cert.validity.not_before < rule.info.effective_date) {
            continue;
        }
        if (auto detail = rule.check(view)) {
            report.findings.push_back({&rule.info, std::move(*detail)});
        }
    }
    return report;
}

CertReport run_lints(const x509::LazyCertificate& cert, const Registry& registry,
                     const RunOptions& options) {
    return run_lints(cert.materialize(), registry, options);
}

}  // namespace unicert::lint
