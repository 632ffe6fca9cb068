#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <iterator>
#include <set>
#include <unordered_set>

#include "asn1/der.h"
#include "asn1/time.h"
#include "unicode/normalize.h"
#include "unicode/properties.h"
#include "x509/parser.h"

namespace unicert::core {
namespace {

const int64_t kRecentStart = asn1::make_time(2024, 1, 1);

constexpr std::array<lint::NcType, 6> kTypeOrder = {
    lint::NcType::kInvalidCharacter, lint::NcType::kBadNormalization,
    lint::NcType::kIllegalFormat,    lint::NcType::kInvalidEncoding,
    lint::NcType::kInvalidStructure, lint::NcType::kDiscouragedField,
};

bool is_recent(const ctlog::CorpusCert& c) { return c.year >= 2024; }
bool is_alive(const ctlog::CorpusCert& c) {
    return c.cert.validity.not_after >= kRecentStart;
}

// Normalization chain for the Table 3 variant detector: NFC, case
// fold, confusable skeleton (dashes/fullwidth/homoglyphs), then strip
// whitespace, punctuation and trailing legal-form tokens.
std::string variant_key(const std::string& utf8) {
    auto cps = unicode::utf8_to_codepoints(utf8);
    if (!cps.ok()) return utf8;
    unicode::CodePoints n = unicode::nfc(cps.value());
    n = unicode::fold_case(n);
    n = unicode::skeleton(n);
    std::string key;
    for (unicode::CodePoint cp : n) {
        if (unicode::is_space(cp)) continue;
        if (cp < 0x80 && !unicode::is_ascii_alpha(cp) && !unicode::is_ascii_digit(cp)) continue;
        if (cp == 0xFFFD) continue;
        key += unicode::codepoints_to_utf8({cp});
    }
    static const char* kLegalForms[] = {"group", "gmbh", "ltd", "llc", "inc", "sro",
                                        "as",    "sa",   "sp",  "zoo", "ooo"};
    bool stripped = true;
    while (stripped) {
        stripped = false;
        for (const char* form : kLegalForms) {
            size_t len = std::string_view(form).size();
            if (key.size() > len + 2 && key.ends_with(form)) {
                key.resize(key.size() - len);
                stripped = true;
            }
        }
    }
    return key;
}

VariantStrategy classify_variants(const std::vector<std::string>& values) {
    auto decode = [](const std::string& s) {
        return unicode::utf8_to_codepoints(s).value_or(unicode::CodePoints{});
    };

    bool any_fffd = false, any_invisible = false, any_nonstd_space = false;
    for (const std::string& v : values) {
        for (unicode::CodePoint cp : decode(v)) {
            if (cp == 0xFFFD) any_fffd = true;
            if (unicode::is_layout_control(cp)) any_invisible = true;
            if (unicode::is_nonstandard_space(cp)) any_nonstd_space = true;
        }
    }
    if (any_fffd) return VariantStrategy::kReplacementCharacter;
    if (any_invisible) return VariantStrategy::kNonPrintableInsertion;

    // Case-only variants: case folding merges them.
    {
        std::set<std::string> folded;
        for (const std::string& v : values) {
            folded.insert(unicode::codepoints_to_utf8(unicode::fold_case(decode(v))));
        }
        if (folded.size() == 1) return VariantStrategy::kCaseConversion;
    }
    if (any_nonstd_space) return VariantStrategy::kNonPrintableInsertion;

    // Whitespace-only variants: removing spaces merges them.
    {
        std::set<std::string> spaceless;
        for (const std::string& v : values) {
            unicode::CodePoints out;
            for (unicode::CodePoint cp : unicode::fold_case(decode(v))) {
                if (!unicode::is_space(cp)) out.push_back(cp);
            }
            spaceless.insert(unicode::codepoints_to_utf8(out));
        }
        if (spaceless.size() == 1) return VariantStrategy::kWhitespaceVariant;
    }

    // Symbol substitution: the confusable skeleton merges them.
    {
        std::set<std::string> skeletons;
        for (const std::string& v : values) {
            unicode::CodePoints out;
            for (unicode::CodePoint cp : unicode::skeleton(decode(v))) {
                if (!unicode::is_space(cp)) out.push_back(cp);
            }
            skeletons.insert(unicode::codepoints_to_utf8(out));
        }
        if (skeletons.size() == 1) return VariantStrategy::kSymbolSubstitution;
    }
    return VariantStrategy::kAbbreviationVariant;
}

}  // namespace

const char* variant_strategy_name(VariantStrategy s) noexcept {
    switch (s) {
        case VariantStrategy::kCaseConversion: return "Character case conversion";
        case VariantStrategy::kWhitespaceVariant: return "Use of different whitespace";
        case VariantStrategy::kNonPrintableInsertion: return "Addition of non-printable chars";
        case VariantStrategy::kSymbolSubstitution: return "Substitution of resembling chars";
        case VariantStrategy::kAbbreviationVariant: return "Abbreviation variations";
        case VariantStrategy::kReplacementCharacter: return "Replacement of illegal chars";
    }
    return "?";
}

double ValidityCdf::quantile(const std::vector<int64_t>& sorted, double q) {
    // Defined (0, NaN-free) for empty input and degenerate q: an empty
    // class in a downscaled corpus must not poison figure output.
    if (sorted.empty() || std::isnan(q)) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double idx = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) * (1.0 - frac) +
           static_cast<double>(sorted[hi]) * frac;
}

double ValidityCdf::cdf_at(const std::vector<int64_t>& sorted, int64_t days) {
    if (sorted.empty()) return 0.0;
    auto it = std::upper_bound(sorted.begin(), sorted.end(), days);
    return static_cast<double>(it - sorted.begin()) / static_cast<double>(sorted.size());
}

const char* quarantine_stage_name(QuarantineStage s) noexcept {
    switch (s) {
        case QuarantineStage::kFetch: return "fetch";
        case QuarantineStage::kParse: return "parse";
        case QuarantineStage::kLint: return "lint";
    }
    return "?";
}

DerFileCertSource::DerFileCertSource(BytesView data) : data_(data) {
    // Prescan for size_hint: count well-delimited TLVs. The scan stops
    // at the first bad boundary — next() will surface that as a stream
    // error when it gets there, so the hint only ever undercounts on
    // inputs that abort anyway.
    size_t pos = 0;
    while (pos < data_.size()) {
        auto tlv = asn1::read_tlv(data_.subspan(pos));
        if (!tlv.ok()) break;
        pos += tlv->total_len;
        ++count_;
    }
}

Expected<std::optional<CertEntry>> DerFileCertSource::next() {
    if (pos_ >= data_.size()) return std::optional<CertEntry>{};
    auto tlv = asn1::read_tlv(data_.subspan(pos_));
    if (!tlv.ok()) return tlv.error().shift_offset(pos_);
    CertEntry entry;
    entry.index = index_++;
    entry.view = data_.subspan(pos_, tlv->total_len);
    pos_ += tlv->total_len;
    return std::optional<CertEntry>(std::move(entry));
}

namespace internal {

void StreamState::abort(size_t entry_index, Error error) {
    stats.completed = false;
    stats.abort_error = error;
    quarantine.records.push_back({entry_index, QuarantineStage::kFetch, std::move(error)});
}

void ProgressCounter::count_one() {
    if (!options_.progress || options_.progress_interval == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (++linted_ % options_.progress_interval == 0) options_.progress(linted_, size_hint_);
}

bool analyze_entry(const CertEntry& entry, const PipelineOptions& options,
                   ProgressCounter& progress, StreamState& state) {
    const lint::Registry& registry =
        options.registry != nullptr ? *options.registry : lint::default_registry();
    auto quarantine = [&](QuarantineStage stage, Error error) {
        state.quarantine.records.push_back({entry.index, stage, std::move(error)});
        ++state.stats.quarantined;
        return false;
    };
    std::optional<ctlog::CorpusCert> wire;
    if (entry.meta == nullptr) {
        auto parsed = x509::parse_certificate(entry.bytes());
        if (!parsed.ok()) return quarantine(QuarantineStage::kParse, parsed.error());
        wire.emplace().cert = std::move(parsed).value();
    }
    const ctlog::CorpusCert& cert = wire ? *wire : *entry.meta;
    AnalyzedCert a;
    try {
        a.report = lint::run_lints(cert.cert, registry, options.lint_options);
    } catch (const std::exception& ex) {
        return quarantine(QuarantineStage::kLint, Error{"lint_exception", ex.what()});
    } catch (...) {
        return quarantine(QuarantineStage::kLint,
                          Error{"lint_exception", "non-standard exception from lint rule"});
    }
    // A wire cert is kept only once it has linted; the report points
    // into the registry, not the cert, so the move leaves it intact.
    a.cert = wire ? &state.owned.emplace_back(std::move(*wire)) : entry.meta;
    a.noncompliant = a.report.noncompliant();
    if (a.noncompliant) ++state.nc_count;
    state.analyzed.push_back(std::move(a));
    ++state.stats.processed;
    progress.count_one();
    return true;
}

void run_stream(CertSource& source, const PipelineOptions& options, ProgressCounter& progress,
                StreamState& state) {
    state.analyzed.reserve(source.size_hint());
    std::unordered_set<size_t> processed_indices;
    for (;;) {
        auto item = fetch<std::optional<CertEntry>>(options, state, [&] { return source.next(); });
        if (!item.ok()) {
            state.abort(processed_indices.size(), item.error());
            break;
        }
        if (!item->has_value()) break;  // end of stream
        const CertEntry& entry = **item;
        if (processed_indices.contains(entry.index)) {
            // Redelivery of an already-aggregated entry (duplicate or
            // regressed stream view): suppress, never double-count.
            ++state.stats.duplicates;
            ++state.stats.recovered;
            continue;
        }
        if (analyze_entry(entry, options, progress, state)) processed_indices.insert(entry.index);
    }
}

}  // namespace internal

CompliancePipeline::CompliancePipeline(const std::vector<ctlog::CorpusCert>& corpus,
                                       lint::RunOptions options) {
    VectorCertSource source(corpus);
    PipelineOptions stream_options;
    stream_options.lint_options = std::move(options);
    *this = CompliancePipeline(source, std::move(stream_options));
}

CompliancePipeline::CompliancePipeline(CertSource& source, PipelineOptions options) {
    internal::ProgressCounter progress(options, source.size_hint());
    internal::StreamState state;
    internal::run_stream(source, options, progress, state);
    absorb(std::move(state));
}

void CompliancePipeline::absorb(internal::StreamState&& state) {
    analyzed_.insert(analyzed_.end(), std::make_move_iterator(state.analyzed.begin()),
                     std::make_move_iterator(state.analyzed.end()));
    owned_.splice(owned_.end(), state.owned);
    quarantine_.records.insert(quarantine_.records.end(),
                               std::make_move_iterator(state.quarantine.records.begin()),
                               std::make_move_iterator(state.quarantine.records.end()));
    nc_count_ += state.nc_count;
    stats_.processed += state.stats.processed;
    stats_.recovered += state.stats.recovered;
    stats_.quarantined += state.stats.quarantined;
    stats_.retries += state.stats.retries;
    stats_.duplicates += state.stats.duplicates;
    if (!state.stats.completed && stats_.completed) {
        stats_.completed = false;
        stats_.abort_error = std::move(state.stats.abort_error);
    }
}

double CompliancePipeline::noncompliance_rate() const noexcept {
    return analyzed_.empty()
               ? 0.0
               : static_cast<double>(nc_count_) / static_cast<double>(analyzed_.size());
}

TaxonomyReport CompliancePipeline::taxonomy_report() const {
    TaxonomyReport report;
    report.total_certs = analyzed_.size();

    const lint::Registry& registry = lint::default_registry();

    for (lint::NcType type : kTypeOrder) {
        TaxonomyRow row;
        row.type = type;
        row.lints_all = registry.count_type(type);
        for (const lint::Rule& rule : registry.rules()) {
            if (rule.info.type == type && rule.info.is_new) ++row.lints_new;
        }

        std::set<std::string> firing_lints;
        for (const AnalyzedCert& a : analyzed_) {
            bool has_type = false, has_new = false, has_err = false, has_warn = false;
            for (const lint::Finding& f : a.report.findings) {
                if (f.lint->type != type) continue;
                has_type = true;
                firing_lints.insert(f.lint->name);
                if (f.lint->is_new) has_new = true;
                if (f.lint->severity == lint::Severity::kError) has_err = true;
                if (f.lint->severity == lint::Severity::kWarning) has_warn = true;
            }
            if (!has_type) continue;
            ++row.nc_certs;
            if (has_new) ++row.nc_certs_new;
            if (has_err) ++row.error_certs;
            if (has_warn) ++row.warning_certs;
            if (a.cert->trusted_at_issuance) ++row.trusted_certs;
            if (is_recent(*a.cert)) ++row.recent_certs;
            if (is_alive(*a.cert)) ++row.alive_certs;
        }
        row.nc_lints = firing_lints.size();
        report.rows.push_back(row);
    }

    for (const AnalyzedCert& a : analyzed_) {
        if (!a.noncompliant) continue;
        ++report.total_nc;
        if (a.cert->trusted_at_issuance) ++report.total_nc_trusted;
    }
    return report;
}

std::vector<IssuerRow> CompliancePipeline::issuer_report(size_t top_n) const {
    std::map<std::string, IssuerRow> by_issuer;
    for (const AnalyzedCert& a : analyzed_) {
        IssuerRow& row = by_issuer[a.cert->issuer_org];
        if (row.total == 0) {
            row.organization = a.cert->issuer_org;
            row.trust = a.cert->trust;
            for (const ctlog::IssuerSpec& spec : ctlog::issuer_specs()) {
                if (spec.organization == a.cert->issuer_org) row.region = spec.region;
            }
        }
        ++row.total;
        if (a.noncompliant) {
            ++row.noncompliant;
            if (is_recent(*a.cert)) ++row.recent_nc;
        }
    }
    std::vector<IssuerRow> rows;
    rows.reserve(by_issuer.size());
    for (auto& [name, row] : by_issuer) rows.push_back(std::move(row));
    // Tie-break on the organization name so the ranking is a total
    // order: golden-file diffs must not depend on std::sort tie
    // placement.
    std::sort(rows.begin(), rows.end(), [](const IssuerRow& a, const IssuerRow& b) {
        return a.noncompliant != b.noncompliant ? a.noncompliant > b.noncompliant
                                                : a.organization < b.organization;
    });
    if (rows.size() > top_n) rows.resize(top_n);
    return rows;
}

std::vector<LintRow> CompliancePipeline::top_lints(size_t top_n) const {
    std::map<std::string, LintRow> by_lint;
    for (const AnalyzedCert& a : analyzed_) {
        std::set<std::string> seen;  // count each lint once per cert
        for (const lint::Finding& f : a.report.findings) {
            if (!seen.insert(f.lint->name).second) continue;
            LintRow& row = by_lint[f.lint->name];
            if (row.nc_certs == 0) {
                row.name = f.lint->name;
                row.type = f.lint->type;
                row.is_new = f.lint->is_new;
                row.severity = f.lint->severity;
            }
            ++row.nc_certs;
        }
    }
    std::vector<LintRow> rows;
    for (auto& [name, row] : by_lint) rows.push_back(std::move(row));
    std::sort(rows.begin(), rows.end(), [](const LintRow& a, const LintRow& b) {
        return a.nc_certs != b.nc_certs ? a.nc_certs > b.nc_certs : a.name < b.name;
    });
    if (rows.size() > top_n) rows.resize(top_n);
    return rows;
}

std::vector<YearRow> CompliancePipeline::yearly_trend() const {
    std::map<int, YearRow> by_year;
    for (const AnalyzedCert& a : analyzed_) {
        YearRow& row = by_year[a.cert->year];
        row.year = a.cert->year;
        ++row.all;
        if (a.cert->trusted_at_issuance) ++row.trusted;
        if (a.noncompliant) ++row.noncompliant;
    }
    // Alive per year: validity extends past December 31 of that year.
    for (auto& [year, row] : by_year) {
        int64_t year_end = asn1::make_time(year + 1, 1, 1);
        for (const AnalyzedCert& a : analyzed_) {
            if (a.cert->cert.validity.not_before < year_end &&
                a.cert->cert.validity.not_after >= year_end) {
                ++row.alive;
            }
        }
    }
    std::vector<YearRow> rows;
    for (auto& [year, row] : by_year) rows.push_back(row);
    return rows;
}

ValidityCdf CompliancePipeline::validity_cdf() const {
    ValidityCdf cdf;
    for (const AnalyzedCert& a : analyzed_) {
        int64_t days = a.cert->cert.validity.lifetime_days();
        if (a.noncompliant) cdf.noncompliant.push_back(days);
        if (a.cert->is_idn_cert) {
            cdf.idn_certs.push_back(days);
        } else {
            cdf.other_unicerts.push_back(days);
        }
    }
    std::sort(cdf.idn_certs.begin(), cdf.idn_certs.end());
    std::sort(cdf.other_unicerts.begin(), cdf.other_unicerts.end());
    std::sort(cdf.noncompliant.begin(), cdf.noncompliant.end());
    return cdf;
}

FieldHeatmap CompliancePipeline::field_heatmap() const {
    FieldHeatmap heatmap;
    for (const AnalyzedCert& a : analyzed_) {
        auto& fields = heatmap[a.cert->issuer_org];
        for (const x509::Rdn& rdn : a.cert->cert.subject.rdns) {
            for (const x509::AttributeValue& av : rdn.attributes) {
                std::string label = asn1::attribute_short_name(av.type);
                std::string value = av.to_utf8_lossy();
                if (!unicode::has_non_printable_ascii(value)) continue;
                FieldUsageCell& cell = fields[label];
                ++cell.unicode_count;
                bool deviates =
                    !asn1::validate_value_bytes(av.string_type, av.value_bytes).ok() ||
                    (av.string_type != asn1::StringType::kPrintableString &&
                     av.string_type != asn1::StringType::kUtf8String);
                if (deviates) ++cell.deviation_count;
            }
        }
        for (const x509::GeneralName& gn : a.cert->cert.subject_alt_names()) {
            if (gn.type == x509::GeneralNameType::kDnsName) {
                bool non_ascii = false;
                for (uint8_t b : gn.value_bytes) {
                    if (b > 0x7F || b < 0x20) non_ascii = true;
                }
                std::string value = gn.to_utf8_lossy();
                bool idn = value.find("xn--") != std::string::npos;
                if (!non_ascii && !idn) continue;
                FieldUsageCell& cell = fields["SAN"];
                ++cell.unicode_count;
                if (non_ascii) ++cell.deviation_count;
            } else if (gn.type == x509::GeneralNameType::kRfc822Name) {
                bool non_ascii = false;
                for (uint8_t b : gn.value_bytes) {
                    if (b > 0x7F) non_ascii = true;
                }
                if (!non_ascii) continue;
                FieldUsageCell& cell = fields["email"];
                ++cell.unicode_count;
                ++cell.deviation_count;  // rfc822Name must be ASCII (RFC 9598)
            } else if (gn.type == x509::GeneralNameType::kOtherName &&
                       gn.other_name_oid == asn1::oids::smtp_utf8_mailbox()) {
                // SmtpUTF8Mailbox is the *compliant* internationalized
                // email carrier.
                ++fields["email"].unicode_count;
            }
        }
    }
    return heatmap;
}

std::vector<VariantGroup> CompliancePipeline::subject_variants() const {
    std::map<std::string, std::set<std::string>> groups;
    for (const AnalyzedCert& a : analyzed_) {
        const x509::AttributeValue* o =
            a.cert->cert.subject.find_first(asn1::oids::organization_name());
        if (o == nullptr) continue;
        std::string value = o->to_utf8_lossy();
        std::string key = variant_key(value);
        if (key.size() < 3) continue;
        groups[key].insert(value);
    }
    // One VariantGroup per (reference, variant) pair so mixed groups
    // report every strategy they contain (a single org name can have
    // case, whitespace and symbol variants simultaneously).
    std::vector<VariantGroup> out;
    for (auto& [key, values] : groups) {
        if (values.size() < 2) continue;
        std::vector<std::string> list(values.begin(), values.end());
        // Use the shortest value as the reference form.
        std::sort(list.begin(), list.end(), [](const std::string& a, const std::string& b) {
            return a.size() != b.size() ? a.size() < b.size() : a < b;
        });
        for (size_t i = 1; i < list.size(); ++i) {
            VariantGroup group;
            group.values = {list[0], list[i]};
            group.strategy = classify_variants(group.values);
            out.push_back(std::move(group));
        }
    }
    return out;
}

}  // namespace unicert::core
