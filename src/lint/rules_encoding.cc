// T3 "Invalid Encoding" rules: use of unsupported ASN.1 string types
// and byte sequences that do not decode under the declared type
// (Section 4.3.1). 48 lints, 37 new — the paper's largest family, and
// the one its new lints extend most (22.6% of noncompliant certs were
// only caught by new encoding lints).
#include "asn1/der.h"
#include "lint/helpers.h"
#include "lint/rules.h"
#include "unicode/properties.h"

namespace unicert::lint {
namespace {

using x509::AttributeValue;
using x509::CertField;
using x509::GeneralName;
using x509::GeneralNameType;

Rule make(std::string name, std::string description, Severity severity, Source source,
          int64_t effective, bool is_new, RuleFootprint fp,
          std::function<std::optional<std::string>(const CertView&)> check) {
    Rule r;
    r.info = {std::move(name), std::move(description), severity, source,
              NcType::kInvalidEncoding, effective, is_new, std::move(fp)};
    r.check = std::move(check);
    return r;
}

enum class Where { kSubject, kIssuer };

const x509::DistinguishedName& dn_of(const CertView& cert, Where where) {
    return where == Where::kSubject ? cert.subject() : cert.issuer();
}

CertField field_of(Where where) {
    return where == Where::kSubject ? CertField::kSubject : CertField::kIssuer;
}

// Factory: attribute must be PrintableString or UTF8String (CABF BR
// DirectoryString profile).
Rule printable_or_utf8(std::string name, Where where, const asn1::Oid& oid, bool is_new) {
    return make(std::move(name),
                "attribute must be encoded as PrintableString or UTF8String",
                Severity::kError, Source::kCabfBr, dates::kCabfBr, is_new,
                footprint({field_of(where)}, {}, {&oid}),
                [&oid, where](const CertView& cert) -> std::optional<std::string> {
                    for (const AttributeValue* av : dn_of(cert, where).find_all(oid)) {
                        if (auto v = check_printable_or_utf8(*av)) return v;
                    }
                    return std::nullopt;
                });
}

// Factory: attribute must be PrintableString only (country, serial).
Rule printable_only(std::string name, Where where, const asn1::Oid& oid, bool is_new) {
    return make(std::move(name), "attribute must be encoded as PrintableString",
                Severity::kError, Source::kRfc5280, dates::kRfc5280, is_new,
                footprint({field_of(where)}, {}, {&oid}),
                [&oid, where](const CertView& cert) -> std::optional<std::string> {
                    for (const AttributeValue* av : dn_of(cert, where).find_all(oid)) {
                        if (auto v = check_printable_only(*av)) return v;
                    }
                    return std::nullopt;
                });
}

// Factory: a string GeneralName kind inside an extension's GeneralNames
// must carry ASCII bytes (IA5String profile, RFC 5280).
std::optional<std::string> check_gn_ascii(const x509::GeneralNames& gns, GeneralNameType kind) {
    for (const GeneralName& gn : gns) {
        if (gn.type != kind) continue;
        for (uint8_t b : gn.value_bytes) {
            if (b > 0x7F) {
                return std::string(x509::general_name_type_label(kind)) +
                       " contains non-ASCII byte 0x" + hex_encode({&b, 1}) +
                       " (IA5String required; internationalize via A-labels)";
            }
        }
    }
    return std::nullopt;
}

Rule san_gn_ascii(std::string name, GeneralNameType kind, Source source) {
    return make(std::move(name), "SAN entries of this kind must be IA5 (ASCII) encoded",
                Severity::kError, source,
                source == Source::kRfc9598 ? dates::kRfc9598 : dates::kRfc5280, /*is_new=*/true,
                footprint({}, {&asn1::oids::subject_alt_name()}),
                [kind](const CertView& cert) {
                    return check_gn_ascii(cert.subject_alt_names(), kind);
                });
}

Rule ian_gn_ascii(std::string name, GeneralNameType kind, Source source) {
    return make(std::move(name), "IAN entries of this kind must be IA5 (ASCII) encoded",
                Severity::kError, source,
                source == Source::kRfc9598 ? dates::kRfc9598 : dates::kRfc5280, /*is_new=*/true,
                footprint({}, {&asn1::oids::issuer_alt_name()}),
                [kind](const CertView& cert) -> std::optional<std::string> {
                    const x509::Extension* ext =
                        cert.find_extension(asn1::oids::issuer_alt_name());
                    if (ext == nullptr) return std::nullopt;
                    auto gns = x509::parse_ian(*ext);
                    if (!gns.ok()) return std::nullopt;
                    return check_gn_ascii(gns.value(), kind);
                });
}

// Factory: AIA/SIA accessLocation URIs must be ASCII.
Rule access_uri_ascii(std::string name, const asn1::Oid& ext_oid) {
    return make(std::move(name), "access descriptor URIs must be IA5 (ASCII) encoded",
                Severity::kError, Source::kRfc5280, dates::kRfc5280, /*is_new=*/true,
                footprint({}, {&ext_oid}),
                [&ext_oid](const CertView& cert) -> std::optional<std::string> {
                    const x509::Extension* ext = cert.find_extension(ext_oid);
                    if (ext == nullptr) return std::nullopt;
                    auto ads = x509::parse_access_descriptions(*ext);
                    if (!ads.ok()) return std::nullopt;
                    for (const x509::AccessDescription& ad : ads.value()) {
                        if (ad.location.type != GeneralNameType::kUri) continue;
                        for (uint8_t b : ad.location.value_bytes) {
                            if (b > 0x7F) {
                                return "URI contains non-ASCII byte 0x" + hex_encode({&b, 1});
                            }
                        }
                    }
                    return std::nullopt;
                });
}

// Factory: deprecated / discouraged string type usage warnings.
Rule string_type_warning(std::string name, asn1::StringType st, Source source,
                         int64_t effective, std::string description) {
    return make(std::move(name), std::move(description), Severity::kWarning, source, effective,
                /*is_new=*/true, footprint({CertField::kSubject}, {}, {}, {st}),
                [st](const CertView& cert) -> std::optional<std::string> {
                    std::optional<std::string> found;
                    for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                        if (found || av.string_type != st) return;
                        found = asn1::attribute_short_name(av.type) + " uses " +
                                asn1::string_type_name(st);
                    });
                    return found;
                });
}

// Find the SmtpUTF8Mailbox otherName inner TLV, if any. Returns owned
// data (identifier octet + content copy): the GeneralNames vector this
// reads from is a temporary, so a raw Tlv span would dangle.
struct InnerValue {
    uint8_t identifier = 0;
    Bytes content;

    bool is_utf8_string() const {
        return identifier == asn1::identifier(asn1::Tag::kUtf8String);
    }
};

std::optional<InnerValue> smtp_utf8_inner(const CertView& cert) {
    for (const GeneralName& gn : cert.subject_alt_names()) {
        if (gn.type == GeneralNameType::kOtherName &&
            gn.other_name_oid == asn1::oids::smtp_utf8_mailbox()) {
            auto tlv = asn1::read_tlv(gn.other_name_value);
            if (tlv.ok()) {
                return InnerValue{tlv->identifier,
                                  Bytes(tlv->content.begin(), tlv->content.end())};
            }
        }
    }
    return std::nullopt;
}

// Footprint of the SmtpUTF8Mailbox rule family (SAN otherName probe).
RuleFootprint smtp_utf8_footprint() {
    return footprint({}, {&asn1::oids::subject_alt_name()}, {},
                     {asn1::StringType::kUtf8String});
}

}  // namespace

void register_encoding_rules(Registry& reg) {
    namespace oids = asn1::oids;

    // ---- Subject DirectoryString family (new; Appendix D check-marks) ----
    reg.add(printable_or_utf8("e_subject_common_name_not_printable_or_utf8", Where::kSubject,
                              oids::common_name(), true));
    reg.add(printable_or_utf8("e_subject_organization_not_printable_or_utf8", Where::kSubject,
                              oids::organization_name(), true));
    reg.add(printable_or_utf8("e_subject_ou_not_printable_or_utf8", Where::kSubject,
                              oids::organizational_unit_name(), true));
    reg.add(printable_or_utf8("e_subject_locality_not_printable_or_utf8", Where::kSubject,
                              oids::locality_name(), true));
    reg.add(printable_or_utf8("e_subject_state_not_printable_or_utf8", Where::kSubject,
                              oids::state_or_province_name(), true));
    reg.add(printable_or_utf8("e_subject_street_not_printable_or_utf8", Where::kSubject,
                              oids::street_address(), true));
    reg.add(printable_or_utf8("e_subject_postal_code_not_printable_or_utf8", Where::kSubject,
                              oids::postal_code(), true));
    reg.add(printable_or_utf8("e_subject_jurisdiction_locality_not_printable_or_utf8",
                              Where::kSubject, oids::jurisdiction_locality(), true));
    reg.add(printable_or_utf8("e_subject_jurisdiction_state_not_printable_or_utf8",
                              Where::kSubject, oids::jurisdiction_state(), true));
    reg.add(printable_or_utf8("e_subject_given_name_not_printable_or_utf8", Where::kSubject,
                              oids::given_name(), true));
    reg.add(printable_or_utf8("e_subject_surname_not_printable_or_utf8", Where::kSubject,
                              oids::surname(), true));
    reg.add(printable_or_utf8("e_subject_business_category_not_printable_or_utf8",
                              Where::kSubject, oids::business_category(), true));
    reg.add(printable_or_utf8("e_subject_org_identifier_not_printable_or_utf8", Where::kSubject,
                              oids::organization_identifier(), true));
    reg.add(printable_only("e_subject_jurisdiction_country_not_printable", Where::kSubject,
                           oids::jurisdiction_country(), true));

    // ---- Issuer family (new) ----
    reg.add(printable_or_utf8("e_issuer_common_name_not_printable_or_utf8", Where::kIssuer,
                              oids::common_name(), true));
    reg.add(printable_or_utf8("e_issuer_organization_not_printable_or_utf8", Where::kIssuer,
                              oids::organization_name(), true));
    reg.add(printable_or_utf8("e_issuer_ou_not_printable_or_utf8", Where::kIssuer,
                              oids::organizational_unit_name(), true));
    reg.add(printable_or_utf8("e_issuer_locality_not_printable_or_utf8", Where::kIssuer,
                              oids::locality_name(), true));
    reg.add(printable_or_utf8("e_issuer_state_not_printable_or_utf8", Where::kIssuer,
                              oids::state_or_province_name(), true));
    reg.add(printable_only("e_issuer_country_not_printable", Where::kIssuer,
                           oids::country_name(), true));

    // ---- Established printable-only rules (not new) ----
    reg.add(printable_only("e_rfc_subject_country_not_printable", Where::kSubject,
                           oids::country_name(), false));
    reg.add(printable_only("e_subject_dn_serial_number_not_printable", Where::kSubject,
                           oids::serial_number(), false));

    // ---- CertificatePolicies explicitText encodings ----
    // The most-fired lint of the whole study (117K certs, SHOULD-level).
    reg.add(make(
        "w_rfc_ext_cp_explicit_text_not_utf8",
        "explicitText SHOULD be encoded as UTF8String",
        Severity::kWarning, Source::kRfc5280, dates::kRfc5280, false,
        footprint({}, {&oids::certificate_policies()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(oids::certificate_policies());
            if (ext == nullptr) return std::nullopt;
            auto policies = x509::parse_certificate_policies(*ext);
            if (!policies.ok()) return std::nullopt;
            for (const x509::PolicyInformation& pi : policies.value()) {
                for (const x509::PolicyQualifier& q : pi.qualifiers) {
                    if (q.explicit_text &&
                        q.explicit_text->string_type != asn1::StringType::kUtf8String) {
                        return std::string("explicitText uses ") +
                               asn1::string_type_name(q.explicit_text->string_type);
                    }
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_rfc_ext_cp_explicit_text_ia5",
        "explicitText MUST NOT be encoded as IA5String",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({}, {&oids::certificate_policies()}, {}, {asn1::StringType::kIa5String}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(oids::certificate_policies());
            if (ext == nullptr) return std::nullopt;
            auto policies = x509::parse_certificate_policies(*ext);
            if (!policies.ok()) return std::nullopt;
            for (const x509::PolicyInformation& pi : policies.value()) {
                for (const x509::PolicyQualifier& q : pi.qualifiers) {
                    if (q.explicit_text &&
                        q.explicit_text->string_type == asn1::StringType::kIa5String) {
                        return std::string("explicitText uses IA5String");
                    }
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "w_rfc9549_ext_cp_explicit_text_bmp_deprecated",
        "RFC 9549 deprecates BMPString explicitText",
        Severity::kWarning, Source::kRfc9549, dates::kRfc9549, true,
        footprint({}, {&oids::certificate_policies()}, {}, {asn1::StringType::kBmpString}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(oids::certificate_policies());
            if (ext == nullptr) return std::nullopt;
            auto policies = x509::parse_certificate_policies(*ext);
            if (!policies.ok()) return std::nullopt;
            for (const x509::PolicyInformation& pi : policies.value()) {
                for (const x509::PolicyQualifier& q : pi.qualifiers) {
                    if (q.explicit_text &&
                        q.explicit_text->string_type == asn1::StringType::kBmpString) {
                        return std::string("explicitText uses deprecated BMPString");
                    }
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_ext_cp_cps_uri_not_ia5", "CPS URIs must be IA5 (ASCII) encoded",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({}, {&oids::certificate_policies()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(oids::certificate_policies());
            if (ext == nullptr) return std::nullopt;
            auto policies = x509::parse_certificate_policies(*ext);
            if (!policies.ok()) return std::nullopt;
            for (const x509::PolicyInformation& pi : policies.value()) {
                for (const x509::PolicyQualifier& q : pi.qualifiers) {
                    for (uint8_t b : q.cps_uri) {
                        if (b > 0x7F) {
                            return "CPS URI byte 0x" + hex_encode({&b, 1}) + " is not ASCII";
                        }
                    }
                }
            }
            return std::nullopt;
        }));

    // ---- GeneralName IA5 families (new) ----
    reg.add(san_gn_ascii("e_ext_san_dns_not_ia5", GeneralNameType::kDnsName, Source::kRfc5280));
    reg.add(san_gn_ascii("e_ext_san_rfc822_not_ascii", GeneralNameType::kRfc822Name,
                         Source::kRfc9598));
    reg.add(san_gn_ascii("e_ext_san_uri_not_ia5", GeneralNameType::kUri, Source::kRfc5280));
    reg.add(ian_gn_ascii("e_ext_ian_dns_not_ia5", GeneralNameType::kDnsName, Source::kRfc5280));
    reg.add(ian_gn_ascii("e_ext_ian_rfc822_not_ascii", GeneralNameType::kRfc822Name,
                         Source::kRfc9598));
    reg.add(ian_gn_ascii("e_ext_ian_uri_not_ia5", GeneralNameType::kUri, Source::kRfc5280));
    reg.add(access_uri_ascii("e_ext_aia_uri_not_ia5", oids::authority_info_access()));
    reg.add(access_uri_ascii("e_ext_sia_uri_not_ia5", oids::subject_info_access()));
    reg.add(make(
        "e_ext_crldp_uri_not_ia5", "CRLDistributionPoints URIs must be IA5 (ASCII) encoded",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({}, {&oids::crl_distribution_points()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext = cert.find_extension(oids::crl_distribution_points());
            if (ext == nullptr) return std::nullopt;
            auto points = x509::parse_crl_distribution_points(*ext);
            if (!points.ok()) return std::nullopt;
            for (const x509::DistributionPoint& dp : points.value()) {
                for (const GeneralName& gn : dp.full_names) {
                    if (gn.type != GeneralNameType::kUri) continue;
                    for (uint8_t b : gn.value_bytes) {
                        if (b > 0x7F) {
                            return "CRL URI byte 0x" + hex_encode({&b, 1}) + " is not ASCII";
                        }
                    }
                }
            }
            return std::nullopt;
        }));

    // ---- SmtpUTF8Mailbox rules (RFC 9598, new) ----
    reg.add(make(
        "e_smtp_utf8_mailbox_not_utf8string",
        "SmtpUTF8Mailbox must be encoded as UTF8String",
        Severity::kError, Source::kRfc9598, dates::kRfc9598, true, smtp_utf8_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            auto inner = smtp_utf8_inner(cert);
            if (!inner) return std::nullopt;
            if (!inner->is_utf8_string()) {
                return std::string("inner value is not a UTF8String");
            }
            return std::nullopt;
        }));
    reg.add(make(
        "w_smtp_utf8_mailbox_ascii_only",
        "all-ASCII mailboxes should use rfc822Name, not SmtpUTF8Mailbox",
        Severity::kWarning, Source::kRfc9598, dates::kRfc9598, true, smtp_utf8_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            auto inner = smtp_utf8_inner(cert);
            if (!inner || !inner->is_utf8_string()) return std::nullopt;
            for (uint8_t b : inner->content) {
                if (b > 0x7F) return std::nullopt;
            }
            return std::string("SmtpUTF8Mailbox contains only ASCII");
        }));
    reg.add(make(
        "e_smtp_utf8_mailbox_domain_a_label",
        "SmtpUTF8Mailbox domains must be U-labels, not A-labels",
        Severity::kError, Source::kRfc9598, dates::kRfc9598, true, smtp_utf8_footprint(),
        [](const CertView& cert) -> std::optional<std::string> {
            auto inner = smtp_utf8_inner(cert);
            if (!inner || !inner->is_utf8_string()) return std::nullopt;
            std::string mailbox = to_string(inner->content);
            size_t at = mailbox.find('@');
            if (at == std::string::npos) return std::nullopt;
            std::string domain = mailbox.substr(at + 1);
            if (domain.find("xn--") != std::string::npos) {
                return "domain '" + domain + "' uses A-labels";
            }
            return std::nullopt;
        }));

    // ---- Deprecated string types (new warnings) ----
    reg.add(string_type_warning("w_subject_uses_teletex_string",
                                asn1::StringType::kTeletexString, Source::kRfc5280,
                                dates::kRfc5280,
                                "TeletexString is only permitted for previously-established "
                                "subjects"));
    reg.add(string_type_warning("w_subject_uses_universal_string",
                                asn1::StringType::kUniversalString, Source::kRfc5280,
                                dates::kRfc5280,
                                "UniversalString is discouraged in new certificates"));
    reg.add(string_type_warning("w_rfc9549_subject_uses_bmp_string",
                                asn1::StringType::kBmpString, Source::kRfc9549, dates::kRfc9549,
                                "RFC 9549 deprecates BMPString in certificate fields"));

    // ---- Byte-validity of declared encodings ----
    reg.add(make(
        "e_utf8string_invalid_sequence",
        "UTF8String values must be well-formed UTF-8",
        Severity::kError, Source::kX680, dates::kAlways, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kUtf8String}),
        [](const CertView& cert) -> std::optional<std::string> {
            // A UTF8String value decodes (subject_values) exactly when
            // it is well-formed UTF-8.
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->string_type == asn1::StringType::kUtf8String &&
                    !value.code_points) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " has ill-formed UTF-8";
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_bmpstring_odd_length", "BMPString values must have even byte length",
        Severity::kError, Source::kX680, dates::kAlways, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kBmpString}),
        [](const CertView& cert) -> std::optional<std::string> {
            std::optional<std::string> found;
            for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                if (found || av.string_type != asn1::StringType::kBmpString) return;
                if (av.value_bytes.size() % 2 != 0) {
                    found = asn1::attribute_short_name(av.type) + " BMPString has odd length";
                }
            });
            return found;
        }));
    reg.add(make(
        "e_bmpstring_surrogates", "BMPString values must not contain surrogate code units",
        Severity::kError, Source::kX680, dates::kAlways, true,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kBmpString}),
        [](const CertView& cert) -> std::optional<std::string> {
            // A BMPString value decodes (subject_values) exactly when it
            // is well-formed UCS-2.
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->string_type == asn1::StringType::kBmpString &&
                    !value.code_points) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " BMPString contains surrogates or is malformed";
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_universalstring_bad_length",
        "UniversalString values must be a multiple of 4 bytes",
        Severity::kError, Source::kX680, dates::kAlways, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kUniversalString}),
        [](const CertView& cert) -> std::optional<std::string> {
            std::optional<std::string> found;
            for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                if (found || av.string_type != asn1::StringType::kUniversalString) return;
                if (av.value_bytes.size() % 4 != 0) {
                    found = asn1::attribute_short_name(av.type) +
                            " UniversalString length not divisible by 4";
                }
            });
            return found;
        }));

    // ---- Attribute-specific string type requirements (not new) ----
    reg.add(make(
        "e_email_address_not_ia5", "emailAddress attributes must use IA5String",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}, {}, {&oids::email_address()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const AttributeValue* av : cert.subject().find_all(oids::email_address())) {
                if (av->string_type != asn1::StringType::kIa5String) {
                    return std::string("emailAddress uses ") +
                           asn1::string_type_name(av->string_type);
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_domain_component_not_ia5", "domainComponent attributes must use IA5String",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}, {}, {&oids::domain_component()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const AttributeValue* av : cert.subject().find_all(oids::domain_component())) {
                if (av->string_type != asn1::StringType::kIa5String) {
                    return std::string("DC uses ") + asn1::string_type_name(av->string_type);
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "e_dn_attribute_non_directory_string",
        "DirectoryString attributes must not use IA5String/NumericString/VisibleString",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}, {},
                  {&oids::common_name(), &oids::organization_name(),
                   &oids::organizational_unit_name(), &oids::locality_name(),
                   &oids::state_or_province_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            static const asn1::Oid* kDirectoryAttrs[] = {
                &oids::common_name(),      &oids::organization_name(),
                &oids::organizational_unit_name(), &oids::locality_name(),
                &oids::state_or_province_name(),
            };
            for (const asn1::Oid* oid : kDirectoryAttrs) {
                for (const AttributeValue* av : cert.subject().find_all(*oid)) {
                    if (!asn1::is_directory_string_type(av->string_type)) {
                        return asn1::attribute_short_name(*oid) + " uses non-DirectoryString " +
                               asn1::string_type_name(av->string_type);
                    }
                }
            }
            return std::nullopt;
        }));
}

}  // namespace unicert::lint
