#include "ctlog/corpus.h"

#include <array>
#include <cctype>
#include <cmath>

#include "asn1/time.h"
#include "common/splitmix.h"
#include "idna/labels.h"
#include "idna/punycode.h"
#include "x509/builder.h"

namespace unicert::ctlog {
namespace {

using asn1::StringType;
using x509::Certificate;
using x509::dns_name;
using x509::make_attribute;
using x509::make_dn;
namespace oids = asn1::oids;

// ---- Static mixture tables ---------------------------------------------------

// Defect weights follow Table 11 hit counts (shape, not absolutes).
constexpr std::array<DefectSpec, 26> kDefects = {{
    {DefectKind::kExplicitTextNotUtf8, 117471, "w_rfc_ext_cp_explicit_text_not_utf8", false},
    {DefectKind::kCnNotInSan, 93664, "w_cab_subject_common_name_not_in_san", false},
    {DefectKind::kIdnA2uUnpermitted, 26701, "e_rfc_dns_idn_a2u_unpermitted_unichar", true},
    {DefectKind::kOrgTeletex, 25751, "e_subject_organization_not_printable_or_utf8", false},
    {DefectKind::kCnBmp, 25081, "e_subject_common_name_not_printable_or_utf8", false},
    {DefectKind::kLocalityTeletex, 17825, "e_subject_locality_not_printable_or_utf8", false},
    {DefectKind::kDnNotPrintable, 13320, "e_rfc_subject_dn_not_printable_characters", false},
    {DefectKind::kOuBmp, 11654, "e_subject_ou_not_printable_or_utf8", false},
    {DefectKind::kJurisdictionLocalityTeletex, 4213,
     "e_subject_jurisdiction_locality_not_printable_or_utf8", false},
    {DefectKind::kExplicitTextTooLong, 2988, "e_rfc_ext_cp_explicit_text_too_long", false},
    {DefectKind::kJurisdictionStateTeletex, 2829,
     "e_subject_jurisdiction_state_not_printable_or_utf8", false},
    {DefectKind::kExplicitTextIa5, 2550, "e_rfc_ext_cp_explicit_text_ia5", false},
    {DefectKind::kJurisdictionCountryUtf8, 1744,
     "e_subject_jurisdiction_country_not_printable", false},
    {DefectKind::kStateTeletex, 1671, "e_subject_state_not_printable_or_utf8", false},
    {DefectKind::kPrintableBadAlpha, 1561, "e_rfc_subject_printable_string_badalpha", false},
    {DefectKind::kTrailingWhitespace, 1356, "w_community_subject_dn_trailing_whitespace", false},
    {DefectKind::kPostalCodeBmp, 1262, "e_subject_postal_code_not_printable_or_utf8", false},
    {DefectKind::kStreetTeletex, 990, "e_subject_street_not_printable_or_utf8", false},
    {DefectKind::kExtraCn, 589, "w_cab_subject_contain_extra_common_name", false},
    {DefectKind::kSerialNotPrintable, 461, "e_subject_dn_serial_number_not_printable", false},
    {DefectKind::kLeadingWhitespace, 437, "w_community_subject_dn_leading_whitespace", false},
    {DefectKind::kCountryUtf8, 409, "e_rfc_subject_country_not_printable", false},
    {DefectKind::kIdnMalformed, 401, "e_rfc_dns_idn_malformed_unicode", true},
    {DefectKind::kDnsBadChar, 326, "e_cab_dns_bad_character_in_label", true},
    {DefectKind::kSanUnpermittedUnichar, 109, "e_ext_san_dns_contain_unpermitted_unichar", true},
    {DefectKind::kIdnNotNfc, 3, "e_rfc_idn_unicode_not_nfc", true},
}};

// Issuer mixture derived from Table 2 and Section 4.2. Weights are in
// thousands of Unicerts; nc_rate is the per-issuer noncompliance rate.
constexpr std::array<IssuerSpec, 20> kIssuers = {{
    {"Let's Encrypt", "US", TrustStatus::kPublic, true, 25100, 0.0006, true, 2015, 2025},
    {"COMODO CA Limited", "GB", TrustStatus::kNone, true, 4800, 0.0025, false, 2013, 2018},
    {"Other (regional)", "-", TrustStatus::kLimited, false, 2600, 0.016, false, 2013, 2025},
    {"cPanel, Inc.", "US", TrustStatus::kPublic, true, 1300, 0.001, false, 2015, 2025},
    {"DigiCert Inc", "US", TrustStatus::kPublic, true, 508, 0.034, false, 2013, 2025},
    {"Other (trusted)", "-", TrustStatus::kPublic, true, 350, 0.24, false, 2013, 2025},
    {"Sectigo", "GB", TrustStatus::kPublic, true, 300, 0.001, false, 2019, 2025},
    {"Cloudflare", "US", TrustStatus::kPublic, true, 150, 0.0001, true, 2015, 2025},
    {"Amazon", "US", TrustStatus::kPublic, true, 100, 0.0001, true, 2016, 2025},
    {"ZeroSSL", "AT", TrustStatus::kPublic, true, 444, 0.0253, false, 2020, 2025},
    {"GEANT Vereniging", "NL", TrustStatus::kPublic, true, 215, 0.01, false, 2016, 2025},
    {"DOMENY.PL sp. z o.o.", "PL", TrustStatus::kPublic, true, 49, 0.02, false, 2016, 2025},
    {"Dreamcommerce S.A.", "PL", TrustStatus::kLimited, false, 60, 0.4483, false, 2014, 2021},
    {"Symantec Corporation", "US", TrustStatus::kNone, true, 280, 0.5147, false, 2013, 2017},
    {"Česká pošta, s.p.", "CZ", TrustStatus::kNone, false, 90, 0.9639, false, 2013, 2019},
    {"StartCom Ltd.", "IL", TrustStatus::kNone, true, 160, 0.7297, false, 2013, 2017},
    {"VeriSign, Inc.", "US", TrustStatus::kPublic, true, 300, 0.5912, false, 2013, 2015},
    {"Government of Korea", "KR", TrustStatus::kNone, false, 35, 0.8733, false, 2013, 2022},
    {"Thawte Consulting", "ZA", TrustStatus::kNone, true, 100, 0.6, false, 2013, 2016},
    {"IPS CA", "ES", TrustStatus::kNone, false, 30, 0.8, false, 2013, 2016},
}};

// Figure 2 issuance trend (relative volume per year 2013..2025).
constexpr std::array<double, 13> kYearWeights = {
    0.02, 0.05, 0.15, 0.4, 0.8, 1.5, 2.2, 3.0, 3.8, 4.5, 5.2, 6.5, 3.5,
};
constexpr int kFirstYear = 2013;

// Organization name pools per region (drives Figure 4's field heatmap).
struct OrgPool {
    const char* region;
    std::array<const char*, 4> names;
};
constexpr std::array<OrgPool, 9> kOrgPools = {{
    {"US", {"Example Corp", "Acme Holdings", "Vegas.XXX®™ (VegasLLC)", "Globex LLC"}},
    {"GB", {"Smith & Sons Ltd", "Albion Trading", "Thames Digital", "Crown Services"}},
    {"CZ", {"Česká pošta, s.p.", "Škoda Díly s.r.o.", "Dřevěné Hračky a.s.", "Příbram Data"}},
    {"PL", {"NOWOCZESNA STODOŁA SP. Z O.O.", "Żabka Usługi", "Łódź Software", "Dąbrowski i Syn"}},
    {"DE", {"Müller GmbH", "Straßenbau AG", "Köln Medien", "Büro für Gestaltung"}},
    {"FR", {"Café de la Gare", "Société Générale d'Électricité", "Château Numérique",
            "Crème & Co"}},
    {"JP", {"株式会社中国銀行", "日本データ株式会社", "東京システム", "さくら情報"}},
    {"KR", {"한국정부", "서울데이터", "부산소프트", "대한기술"}},
    {"ES", {"Compañía Española", "Señal Digital S.A.", "Año Nuevo SL", "Peña Networks"}},
}};

constexpr std::array<const char*, 8> kCityPool = {
    "Praha", "Łódź", "München", "Île-de-France", "東京", "서울", "Málaga", "Springfield",
};

// Valid IDN A-labels for IDNCert generation.
constexpr std::array<const char*, 5> kValidALabels = {
    "xn--mnchen-3ya", "xn--bcher-kva", "xn--fiq228c", "xn--caf-dma", "xn--stroe-9db",
};

constexpr const char* kDisallowedALabel = "xn--www-hn0a";     // decodes to LRM+www
constexpr const char* kMalformedALabel =
    "xn--zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz";            // undecodable Punycode

const char* kTlds[] = {"com", "net", "org", "example", "pl", "cz", "de", "jp", "kr"};

// ---- Helpers -------------------------------------------------------------------

std::string random_host(Rng& rng, bool with_idn_label) {
    std::string label;
    if (with_idn_label) {
        label = kValidALabels[rng.below(kValidALabels.size())];
    } else {
        size_t len = 5 + rng.below(10);
        for (size_t i = 0; i < len; ++i) {
            label.push_back(static_cast<char>('a' + rng.below(26)));
        }
    }
    return label + "." + kTlds[rng.below(std::size(kTlds))];
}

const OrgPool& pool_for_region(const char* region, Rng& rng) {
    for (const OrgPool& p : kOrgPools) {
        if (std::string_view(p.region) == region) return p;
    }
    return kOrgPools[rng.below(kOrgPools.size())];
}

int64_t random_time_in_year(Rng& rng, int year) {
    int64_t start = asn1::make_time(year, 1, 1);
    // Keep within ~360 days so the year attribution is unambiguous.
    return start + static_cast<int64_t>(rng.below(360)) * 86400 +
           static_cast<int64_t>(rng.below(86400));
}

int pick_year(Rng& rng, int first, int last) {
    first = std::max(first, kFirstYear);
    last = std::min(last, kFirstYear + static_cast<int>(kYearWeights.size()) - 1);
    std::vector<double> weights;
    for (int y = first; y <= last; ++y) weights.push_back(kYearWeights[y - kFirstYear]);
    return first + static_cast<int>(rng.pick_weighted(weights));
}

// Validity length per Figure 3's class-conditional distributions.
int validity_days(Rng& rng, bool is_idn_cert, bool noncompliant) {
    if (noncompliant) {
        double r = rng.uniform();
        if (r < 0.30) return 365;
        if (r < 0.50) return 180;
        if (r < 0.80) return 730;
        if (r < 0.93) return 1095;
        return 1825;
    }
    if (is_idn_cert) {
        return rng.chance(0.896) ? 90 : 365;
    }
    double r = rng.uniform();
    if (r < 0.45) return 365;
    if (r < 0.70) return 398;
    if (r < 0.893) return 90;
    return 730;
}

x509::PolicyInformation policy_with_text(StringType st, const std::string& text) {
    x509::PolicyInformation pi;
    pi.policy_id = asn1::Oid{std::vector<uint32_t>{2, 23, 140, 1, 2, 2}};
    x509::PolicyQualifier q;
    q.qualifier_id = oids::user_notice_qualifier();
    x509::DisplayText dt;
    dt.string_type = st;
    auto cps = unicode::utf8_to_codepoints(text);
    if (cps.ok()) {
        auto enc = asn1::encode_unchecked(st, cps.value());
        if (enc.ok()) dt.value_bytes = std::move(enc).value();
    }
    q.explicit_text = dt;
    pi.qualifiers = {q};
    return pi;
}

// Replace the SAN extension with `names`.
void set_san(Certificate& cert, const x509::GeneralNames& names) {
    for (auto it = cert.extensions.begin(); it != cert.extensions.end(); ++it) {
        if (it->oid == oids::subject_alt_name()) {
            cert.extensions.erase(it);
            break;
        }
    }
    cert.extensions.push_back(x509::make_san(names));
}

void add_subject_attr(Certificate& cert, x509::AttributeValue av) {
    x509::Rdn rdn;
    rdn.attributes.push_back(std::move(av));
    cert.subject.rdns.push_back(std::move(rdn));
}

// Replace any existing attribute of the same type (defect injections
// model a CA *mis-encoding* a field, not duplicating it).
void set_subject_attr(Certificate& cert, x509::AttributeValue av) {
    for (auto it = cert.subject.rdns.begin(); it != cert.subject.rdns.end();) {
        auto& attrs = it->attributes;
        attrs.erase(std::remove_if(attrs.begin(), attrs.end(),
                                   [&](const x509::AttributeValue& existing) {
                                       return existing.type == av.type;
                                   }),
                    attrs.end());
        it = attrs.empty() ? cert.subject.rdns.erase(it) : it + 1;
    }
    add_subject_attr(cert, std::move(av));
}

// Point both the CN and the SAN at `host` (DNS-defect injections keep
// the identity consistent the way a real DV issuance would).
void set_host_identity(Certificate& cert, const std::string& host) {
    set_subject_attr(cert, make_attribute(oids::common_name(), host));
    set_san(cert, {dns_name(host)});
}

std::string not_nfc_a_label() {
    // Punycode of {e, COMBINING ACUTE, x}: decodes fine but is not NFC.
    unicode::CodePoints denorm = {'e', 0x0301, 'x'};
    auto puny = idna::punycode_encode(denorm);
    return "xn--" + puny.value();
}

// Inject the chosen defect into an otherwise-compliant certificate.
void apply_defect(Certificate& cert, DefectKind kind, const std::string& host, Rng& rng) {
    switch (kind) {
        case DefectKind::kExplicitTextNotUtf8:
            cert.extensions.push_back(x509::make_certificate_policies(
                {policy_with_text(StringType::kVisibleString, "CPS notice text")}));
            break;
        case DefectKind::kCnNotInSan:
            set_san(cert, {dns_name(random_host(rng, false))});
            break;
        case DefectKind::kIdnA2uUnpermitted:
            set_host_identity(cert, std::string(kDisallowedALabel) + "." + host);
            break;
        case DefectKind::kOrgTeletex:
            set_subject_attr(cert, make_attribute(oids::organization_name(), "Störi AG",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kCnBmp: {
            cert.subject = make_dn({make_attribute(oids::common_name(), host,
                                                   StringType::kBmpString)});
            break;
        }
        case DefectKind::kLocalityTeletex:
            set_subject_attr(cert, make_attribute(oids::locality_name(), "Zürich",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kDnNotPrintable: {
            // NUL / ESC / DEL / newline inserted into an O value, with
            // IPS CA-style evenly-interleaved NULs as one variant.
            static const char* kBad[] = {"Ev\x01il Corp", "C\x00&\x00I\x00S", "Esc\x1b Corp",
                                         "Line\nBreak Inc"};
            // Embedded NULs require explicit lengths.
            static const size_t kLens[] = {10, 7, 9, 14};
            size_t idx = rng.below(4);
            set_subject_attr(cert, make_attribute(oids::organization_name(),
                                                  std::string(kBad[idx], kLens[idx])));
            break;
        }
        case DefectKind::kOuBmp:
            set_subject_attr(cert, make_attribute(oids::organizational_unit_name(), "IT-Abteilung",
                                                  StringType::kBmpString));
            break;
        case DefectKind::kJurisdictionLocalityTeletex:
            set_subject_attr(cert, make_attribute(oids::jurisdiction_locality(), "Genève",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kExplicitTextTooLong:
            cert.extensions.push_back(x509::make_certificate_policies(
                {policy_with_text(StringType::kUtf8String, std::string(240, 'n'))}));
            break;
        case DefectKind::kJurisdictionStateTeletex:
            set_subject_attr(cert, make_attribute(oids::jurisdiction_state(), "Bayern ü",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kExplicitTextIa5:
            cert.extensions.push_back(x509::make_certificate_policies(
                {policy_with_text(StringType::kIa5String, "Legacy IA5 notice")}));
            break;
        case DefectKind::kJurisdictionCountryUtf8:
            set_subject_attr(cert, make_attribute(oids::jurisdiction_country(), "DE",
                                                  StringType::kUtf8String));
            break;
        case DefectKind::kStateTeletex:
            set_subject_attr(cert, make_attribute(oids::state_or_province_name(), "Baden-Württemberg",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kPrintableBadAlpha:
            set_subject_attr(cert, make_attribute(oids::organization_name(), "AT&T Network",
                                                  StringType::kPrintableString));
            break;
        case DefectKind::kTrailingWhitespace:
            set_subject_attr(cert, make_attribute(oids::organization_name(), "Peddy Shield "));
            break;
        case DefectKind::kPostalCodeBmp:
            set_subject_attr(cert, make_attribute(oids::postal_code(), "10110",
                                                  StringType::kBmpString));
            break;
        case DefectKind::kStreetTeletex:
            set_subject_attr(cert, make_attribute(oids::street_address(), "Hauptstraße 1",
                                                  StringType::kTeletexString));
            break;
        case DefectKind::kExtraCn:
            add_subject_attr(cert, make_attribute(oids::common_name(), host));
            break;
        case DefectKind::kSerialNotPrintable:
            set_subject_attr(cert, make_attribute(oids::serial_number(), "SN-2024-001",
                                                  StringType::kUtf8String));
            break;
        case DefectKind::kLeadingWhitespace:
            set_subject_attr(cert, make_attribute(oids::organization_name(), " SAMCO Autotechnik"));
            break;
        case DefectKind::kCountryUtf8:
            set_subject_attr(cert, make_attribute(oids::country_name(), "DE",
                                                  StringType::kUtf8String));
            break;
        case DefectKind::kIdnMalformed:
            set_host_identity(cert, std::string(kMalformedALabel) + "." + host);
            break;
        case DefectKind::kDnsBadChar:
            set_host_identity(cert, "bad_label." + host);
            break;
        case DefectKind::kSanUnpermittedUnichar:
            // CN keeps the registered host; only the SAN entry carries the
            // raw Unicode bytes (CN cannot hold them compliantly anyway).
            set_san(cert, {dns_name(host), dns_name("münchen." + host)});
            break;
        case DefectKind::kIdnNotNfc:
            set_host_identity(cert, not_nfc_a_label() + "." + host);
            break;
    }
}

}  // namespace

const char* trust_status_label(TrustStatus t) noexcept {
    switch (t) {
        case TrustStatus::kPublic: return "public";
        case TrustStatus::kLimited: return "limited";
        case TrustStatus::kNone: return "untrusted";
    }
    return "?";
}

std::span<const DefectSpec> defect_specs() noexcept { return kDefects; }
std::span<const IssuerSpec> issuer_specs() noexcept { return kIssuers; }

uint64_t Rng::next() noexcept {
    // xorshift64*.
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
}

double Rng::uniform() noexcept {
    return unit_draw(next());
}

size_t Rng::pick_weighted(std::span<const double> weights) noexcept {
    double total = 0;
    for (double w : weights) total += w;
    double r = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r <= 0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
}

CorpusGenerator::CorpusGenerator(CorpusOptions options) : options_(options) {}

size_t CorpusGenerator::target_count() const noexcept {
    double total_k = 0;
    for (const IssuerSpec& spec : kIssuers) total_k += spec.unicert_weight;
    return static_cast<size_t>(total_k * 1000.0 / options_.scale);
}

std::vector<CorpusCert> CorpusGenerator::generate() {
    Rng rng(options_.seed);
    std::vector<CorpusCert> corpus;
    size_t total = target_count();
    corpus.reserve(total + 8);

    std::vector<double> issuer_weights;
    for (const IssuerSpec& spec : kIssuers) issuer_weights.push_back(spec.unicert_weight);

    std::vector<double> defect_weights;
    std::vector<double> idn_defect_weights;
    for (const DefectSpec& spec : kDefects) {
        defect_weights.push_back(spec.weight);
        idn_defect_weights.push_back(spec.idn_defect ? spec.weight : 0.0);
    }

    uint64_t serial_counter = 1;

    auto build_one = [&](const IssuerSpec& issuer, int year,
                         std::optional<DefectKind> forced_defect) -> CorpusCert {
        CorpusCert out;
        out.issuer_org = issuer.organization;
        // The aggregate "Other" buckets stand for the paper's long tail
        // of 600+ issuer organizations; materialize stable sub-org
        // names so issuer-level reports show the no-oligopoly pattern
        // of Section 4.3.2.
        if (std::string_view(issuer.organization) == "Other (regional)") {
            out.issuer_org = "Regional CA " + std::to_string(1 + rng.below(30));
        } else if (std::string_view(issuer.organization) == "Other (trusted)") {
            out.issuer_org = "Trusted CA " + std::to_string(1 + rng.below(12));
        }
        out.trust = issuer.trust;
        out.trusted_at_issuance = issuer.trusted_at_issuance;
        out.year = year;

        Certificate& cert = out.cert;
        cert.version = 2;
        // Deterministic unique serial.
        for (int i = 7; i >= 0; --i) {
            cert.serial.push_back(static_cast<uint8_t>((serial_counter >> (i * 8)) & 0xFF));
        }
        ++serial_counter;

        cert.issuer = make_dn({
            make_attribute(oids::country_name(), issuer.region, StringType::kPrintableString),
            make_attribute(oids::organization_name(), issuer.organization),
            make_attribute(oids::common_name(), std::string(issuer.organization) + " CA"),
        });

        // Subject + SAN shape depends on the issuer's automation model.
        bool want_idn = issuer.idn_only ? rng.chance(0.6) : rng.chance(0.15);
        std::string host = random_host(rng, want_idn);
        out.is_idn_cert = want_idn;

        if (issuer.idn_only) {
            // Automated DV: CN=host, SAN=host, nothing else (§4.3.2's
            // "restricting customizable fields" observation).
            cert.subject = make_dn({make_attribute(oids::common_name(), host)});
            cert.extensions.push_back(x509::make_san({dns_name(host)}));
        } else if (rng.chance(0.06)) {
            // Internationalized email certificates (IEAs): post-RFC 9598
            // issuance uses SmtpUTF8Mailbox for non-ASCII local parts;
            // earlier certs carry plain rfc822Names.
            const OrgPool& pool = pool_for_region(issuer.region, rng);
            std::string org = pool.names[rng.below(pool.names.size())];
            cert.subject = make_dn({
                make_attribute(oids::country_name(),
                               std::string_view(issuer.region) == "-" ? "XX" : issuer.region,
                               StringType::kPrintableString),
                make_attribute(oids::organization_name(), org),
                make_attribute(oids::email_address(), "admin@" + host,
                               StringType::kIa5String),
                make_attribute(oids::common_name(), host),
            });
            x509::GeneralNames names = {dns_name(host)};
            if (out.year >= 2024 && rng.chance(0.5)) {
                // RFC 9598: SmtpUTF8Mailbox domains carry U-labels.
                names.push_back(x509::smtp_utf8_mailbox(
                    "postmästare@" + idna::hostname_to_display(host)));
            } else {
                names.push_back(x509::rfc822_name("admin@" + host));
            }
            cert.extensions.push_back(x509::make_san(names));
        } else {
            const OrgPool& pool = pool_for_region(issuer.region, rng);
            std::string org = pool.names[rng.below(pool.names.size())];
            std::string city = kCityPool[rng.below(kCityPool.size())];
            cert.subject = make_dn({
                make_attribute(oids::country_name(),
                               std::string_view(issuer.region) == "-" ? "XX" : issuer.region,
                               StringType::kPrintableString),
                make_attribute(oids::organization_name(), org),
                make_attribute(oids::locality_name(), city),
                make_attribute(oids::common_name(), host),
            });
            cert.extensions.push_back(x509::make_san({dns_name(host)}));
        }

        // Defect?
        std::optional<DefectKind> defect = forced_defect;
        if (!defect && rng.chance(issuer.nc_rate)) {
            const auto& weights = issuer.idn_only ? idn_defect_weights : defect_weights;
            defect = kDefects[rng.pick_weighted(weights)].kind;
        }
        bool noncompliant = defect.has_value();
        if (defect) {
            apply_defect(cert, *defect, host, rng);
            out.defect = defect;
        } else if (options_.latent_defect_rate > 0 && out.year < 2024 && !issuer.idn_only &&
                   rng.chance(options_.latent_defect_rate)) {
            // Latent defect: violates only post-2024 rules (RFC 9598's
            // ASCII-only rfc822Name), so effective-date-respecting runs
            // do not count it but footnote-4 runs do.
            x509::GeneralNames names = {dns_name(host),
                                        x509::rfc822_name("usér@" + host)};
            set_san(cert, names);
            out.has_latent_defect = true;
        }

        // Validity window.
        int64_t issued = random_time_in_year(rng, out.year);
        cert.validity = {issued,
                         issued + static_cast<int64_t>(
                                      validity_days(rng, out.is_idn_cert, noncompliant)) *
                                      86400};

        cert.subject_public_key = crypto::sha256_bytes(cert.serial);
        if (options_.sign_certificates) {
            crypto::SimSigner key = crypto::SimSigner::from_name(issuer.organization);
            x509::sign_certificate(cert, key);
        }
        return out;
    };

    // Sample the issuance year from the global Figure 2 trend FIRST,
    // then an issuer among those active that year — this keeps the
    // aggregate trend monotone regardless of issuer lifetimes.
    std::vector<std::vector<double>> issuer_weights_by_year(kYearWeights.size());
    for (size_t y = 0; y < kYearWeights.size(); ++y) {
        int year = kFirstYear + static_cast<int>(y);
        for (const IssuerSpec& spec : kIssuers) {
            issuer_weights_by_year[y].push_back(
                (year >= spec.first_year && year <= spec.last_year) ? spec.unicert_weight
                                                                    : 0.0);
        }
    }
    std::vector<double> year_weights(kYearWeights.begin(), kYearWeights.end());

    for (size_t i = 0; i < total; ++i) {
        size_t year_idx = rng.pick_weighted(year_weights);
        int year = kFirstYear + static_cast<int>(year_idx);
        const IssuerSpec& issuer =
            kIssuers[rng.pick_weighted(issuer_weights_by_year[year_idx])];
        corpus.push_back(build_one(issuer, year, std::nullopt));

        // Subject variants (Table 3): occasionally emit a sibling with a
        // near-identical Subject using one of the variant strategies.
        if (!issuer.idn_only && rng.chance(options_.variant_rate) && !corpus.back().defect) {
            CorpusCert variant = corpus.back();
            variant.cert.serial.back() ^= 0xFF;
            const x509::AttributeValue* org =
                variant.cert.subject.find_first(oids::organization_name());
            if (org != nullptr) {
                std::string v = org->to_utf8_lossy();
                switch (rng.below(4)) {
                    case 0:  // case conversion
                        for (char& c : v) c = static_cast<char>(std::toupper(
                                              static_cast<unsigned char>(c)));
                        break;
                    case 1:  // NBSP insertion
                        v.insert(v.size() / 2, " ");
                        break;
                    case 2:  // dash substitution
                        if (auto pos = v.find('-'); pos != std::string::npos) {
                            v.replace(pos, 1, "–");
                        } else {
                            v += " – Group";
                        }
                        break;
                    case 3:  // trailing legal-form tweak
                        v += " Ltd.";
                        break;
                }
                // Rebuild the subject with the variant O value.
                x509::DistinguishedName dn;
                for (const x509::Rdn& rdn : variant.cert.subject.rdns) {
                    x509::Rdn copy = rdn;
                    for (x509::AttributeValue& av : copy.attributes) {
                        if (av.type == oids::organization_name()) {
                            av = make_attribute(oids::organization_name(), v);
                        }
                    }
                    dn.rdns.push_back(std::move(copy));
                }
                variant.cert.subject = std::move(dn);
                // The copied DER still carries the sibling's serial and
                // Subject; re-sign so the variant's wire form is its own.
                if (options_.sign_certificates) {
                    x509::sign_certificate(variant.cert,
                                           crypto::SimSigner::from_name(issuer.organization));
                }
                corpus.push_back(std::move(variant));
            }
        }
    }

    // Pin rare defects that would not survive downscaling as absolute
    // counts: the paper's 3 NFC-violating IDNCerts (Table 1's T2 row)
    // and one multi-CN certificate (the Discouraged Field row).
    const IssuerSpec* digicert = nullptr;
    for (const IssuerSpec& spec : kIssuers) {
        if (std::string_view(spec.organization) == "DigiCert Inc") digicert = &spec;
    }
    for (int i = 0; i < 3; ++i) {
        corpus.push_back(build_one(*digicert, pick_year(rng, 2013, 2025),
                                   DefectKind::kIdnNotNfc));
    }
    corpus.push_back(build_one(*digicert, pick_year(rng, 2013, 2025), DefectKind::kExtraCn));

    return corpus;
}

std::vector<CorpusCert> CorpusGenerator::generate_defect_showcase(size_t per_kind) {
    // Independent stream: a distinct seed derivation keeps the showcase
    // from sharing state with (or perturbing) generate()'s pinned RNG.
    Rng rng(options_.seed ^ 0xDEFEC7C0DEULL);
    std::vector<CorpusCert> out;
    out.reserve(kDefects.size() * per_kind);

    uint64_t serial_counter = 1;
    for (const DefectSpec& spec : kDefects) {
        for (size_t i = 0; i < per_kind; ++i) {
            CorpusCert cc;
            cc.issuer_org = "Showcase CA";
            cc.trust = TrustStatus::kPublic;
            cc.trusted_at_issuance = true;
            cc.year = 2024;
            cc.defect = spec.kind;

            Certificate& cert = cc.cert;
            cert.version = 2;
            for (int b = 7; b >= 0; --b) {
                cert.serial.push_back(static_cast<uint8_t>((serial_counter >> (b * 8)) & 0xFF));
            }
            ++serial_counter;

            cert.issuer = make_dn({
                make_attribute(oids::country_name(), "US", StringType::kPrintableString),
                make_attribute(oids::organization_name(), "Showcase CA"),
                make_attribute(oids::common_name(), "Showcase CA Root"),
            });

            std::string host = random_host(rng, false);
            cert.subject = make_dn({
                make_attribute(oids::country_name(), "US", StringType::kPrintableString),
                make_attribute(oids::organization_name(), "Showcase Org"),
                make_attribute(oids::common_name(), host),
            });
            cert.extensions.push_back(x509::make_san({dns_name(host)}));
            apply_defect(cert, spec.kind, host, rng);

            // Issued after RFC 9598 (May 2024) so no rule is date-gated.
            int64_t issued = asn1::make_time(2024, 7, 1) +
                             static_cast<int64_t>(rng.below(120)) * 86400;
            cert.validity = {issued, issued + 365 * 86400};
            cert.subject_public_key = crypto::sha256_bytes(cert.serial);
            out.push_back(std::move(cc));
        }
    }
    return out;
}

}  // namespace unicert::ctlog
