// T3 "Illegal Format" rules: basic formatting errors — length
// overflows, wrong character case, malformed hostnames, reversed
// validity (Section 4.3.1). 17 lints, none new.
#include "lint/helpers.h"
#include "lint/rules.h"
#include "unicode/properties.h"

namespace unicert::lint {
namespace {

using x509::CertField;
using x509::GeneralName;
using x509::GeneralNameType;

Rule make(std::string name, std::string description, Severity severity, Source source,
          int64_t effective, RuleFootprint fp,
          std::function<std::optional<std::string>(const CertView&)> check) {
    Rule r;
    r.info = {std::move(name), std::move(description), severity, source,
              NcType::kIllegalFormat, effective, /*is_new=*/false, std::move(fp)};
    r.check = std::move(check);
    return r;
}

// Max-length rule factory for one subject attribute (X.520 upper bounds).
Rule attr_max_length(std::string name, const asn1::Oid& oid, size_t max_chars) {
    return make(
        std::move(name),
        "attribute value exceeds its X.520 upper bound of " + std::to_string(max_chars),
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kSubject}, {}, {&oid}),
        [&oid, max_chars](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->type != oid || !value.code_points) continue;
                if (value.code_points->size() > max_chars) {
                    return asn1::attribute_short_name(oid) + " has " +
                           std::to_string(value.code_points->size()) + " characters (max " +
                           std::to_string(max_chars) + ")";
                }
            }
            return std::nullopt;
        });
}

// Footprint of every rule reading DNSName candidates (SAN + subject CN).
RuleFootprint dns_footprint() {
    return footprint({CertField::kSubject}, {&asn1::oids::subject_alt_name()},
                     {&asn1::oids::common_name()});
}

}  // namespace

void register_format_rules(Registry& reg) {
    // 1. CertificatePolicies explicitText length bound (200 chars,
    //    RFC 5280 sec. 4.2.1.4) — 2,988 certs in the paper.
    reg.add(make(
        "e_rfc_ext_cp_explicit_text_too_long",
        "CertificatePolicies explicitText must not exceed 200 characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({}, {&asn1::oids::certificate_policies()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(asn1::oids::certificate_policies());
            if (ext == nullptr) return std::nullopt;
            auto policies = x509::parse_certificate_policies(*ext);
            if (!policies.ok()) return std::nullopt;
            for (const x509::PolicyInformation& pi : policies.value()) {
                for (const x509::PolicyQualifier& q : pi.qualifiers) {
                    if (!q.explicit_text) continue;
                    std::string text = q.explicit_text->to_utf8_lossy();
                    auto cps = unicode::utf8_to_codepoints(text);
                    size_t n = cps.ok() ? cps->size() : text.size();
                    if (n > 200) {
                        return "explicitText has " + std::to_string(n) + " characters";
                    }
                }
            }
            return std::nullopt;
        }));

    // 2-6. X.520 attribute upper bounds.
    reg.add(attr_max_length("e_subject_common_name_max_length", asn1::oids::common_name(), 64));
    reg.add(attr_max_length("e_subject_organization_name_max_length",
                            asn1::oids::organization_name(), 64));
    reg.add(attr_max_length("e_subject_organizational_unit_name_max_length",
                            asn1::oids::organizational_unit_name(), 64));
    reg.add(attr_max_length("e_subject_locality_name_max_length", asn1::oids::locality_name(),
                            128));
    reg.add(attr_max_length("e_subject_state_name_max_length",
                            asn1::oids::state_or_province_name(), 128));

    // 7. CountryName must be exactly two letters.
    reg.add(make(
        "e_subject_country_not_two_letters",
        "CountryName must be a 2-character ISO 3166 code",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kSubject}, {}, {&asn1::oids::country_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->type != asn1::oids::country_name() || !value.code_points) {
                    continue;
                }
                if (value.code_points->size() != 2) {
                    return "C has " + std::to_string(value.code_points->size()) + " characters";
                }
            }
            return std::nullopt;
        }));

    // 8. CountryName must be uppercase (the "DE,de / Germany" variants).
    reg.add(make(
        "e_subject_country_not_uppercase",
        "CountryName codes must use uppercase letters",
        Severity::kError, Source::kCabfBr, dates::kCabfBr,
        footprint({CertField::kSubject}, {}, {&asn1::oids::country_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->type != asn1::oids::country_name() || !value.code_points) {
                    continue;
                }
                for (unicode::CodePoint cp : *value.code_points) {
                    if (cp >= 'a' && cp <= 'z') return std::string("C contains lowercase");
                }
            }
            return std::nullopt;
        }));

    // 9-12. DNS syntax limits.
    reg.add(make(
        "e_dns_label_too_long", "DNS labels are limited to 63 octets",
        Severity::kError, Source::kDnsRfc, dates::kAlways, dns_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const DnsName& name : cert.dns_names()) {
                for (const DnsLabel& label : name.labels) {
                    if (label.text.size() > 63) {
                        return "label of " + std::to_string(label.text.size()) + " octets";
                    }
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_dns_name_too_long", "DNS names are limited to 253 octets",
        Severity::kError, Source::kDnsRfc, dates::kAlways, dns_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const DnsName& name : cert.dns_names()) {
                if (name.value.size() > 253) {
                    return "name of " + std::to_string(name.value.size()) + " octets";
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_dns_label_empty", "DNS names must not contain empty labels",
        Severity::kError, Source::kDnsRfc, dates::kAlways, dns_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const DnsName& name : cert.dns_names()) {
                if (name.value.empty()) return std::string("empty DNSName");
                if (name.value.find("..") != std::string::npos || name.value.front() == '.') {
                    return "empty label in '" + name.value + "'";
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_dns_wildcard_not_leftmost",
        "wildcards are only permitted as the complete leftmost label",
        Severity::kError, Source::kCabfBr, dates::kCabfBr, dns_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const DnsName& name : cert.dns_names()) {
                for (size_t i = 0; i < name.labels.size(); ++i) {
                    std::string_view label = name.labels[i].text;
                    if (label.find('*') != std::string_view::npos && (i != 0 || label != "*")) {
                        return "wildcard inside label '" + std::string(label) + "'";
                    }
                }
            }
            return std::nullopt;
        }));

    // 13/14. Serial number bounds (RFC 5280 sec. 4.1.2.2).
    reg.add(make(
        "e_serial_number_too_long", "serialNumber must be at most 20 octets",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kSerial}),
        [](const CertView& cert) -> std::optional<std::string> {
            if (cert.serial().size() > 20) {
                return std::to_string(cert.serial().size()) + "-octet serial";
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_serial_number_not_positive", "serialNumber must be a positive integer",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kSerial}),
        [](const CertView& cert) -> std::optional<std::string> {
            bool all_zero = true;
            for (uint8_t b : cert.serial()) {
                if (b != 0) {
                    all_zero = false;
                    break;
                }
            }
            if (cert.serial().empty() || all_zero) return std::string("zero or empty serial");
            return std::nullopt;
        }));

    // 15. Validity sanity. Cited against RFC 5280 sec. 4.1.2.5, so the
    //     effective date matches the citation rather than kAlways.
    reg.add(make(
        "e_validity_reversed", "notAfter must not precede notBefore",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kValidity}),
        [](const CertView& cert) -> std::optional<std::string> {
            if (cert.validity().not_after < cert.validity().not_before) {
                return std::string("notAfter < notBefore");
            }
            return std::nullopt;
        }));

    // 16. SAN entries must not be empty strings.
    reg.add(make(
        "e_san_dns_empty_value", "SAN DNSName values must not be empty",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({}, {&asn1::oids::subject_alt_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const GeneralName& gn : cert.subject_alt_names()) {
                if (gn.type == GeneralNameType::kDnsName && gn.value_bytes.empty()) {
                    return std::string("empty DNSName entry");
                }
            }
            return std::nullopt;
        }));

    // 17. rfc822Name must contain exactly one '@' (mailbox syntax).
    reg.add(make(
        "e_rfc822_no_at_symbol", "rfc822Names must be addr-spec mailboxes",
        Severity::kError, Source::kRfc5280, dates::kRfc5280,
        footprint({}, {&asn1::oids::subject_alt_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const GeneralName& gn : cert.subject_alt_names()) {
                if (gn.type != GeneralNameType::kRfc822Name) continue;
                std::string v = gn.to_utf8_lossy();
                size_t at = v.find('@');
                if (at == std::string::npos || at == 0 || at + 1 == v.size() ||
                    v.find('@', at + 1) != std::string::npos) {
                    return "rfc822Name '" + v + "' is not a valid mailbox";
                }
            }
            return std::nullopt;
        }));
}

}  // namespace unicert::lint
