// T1 "Invalid Character" rules: inadequate character-range checks on
// certificate field values (Section 4.3.1 type T1). 22 lints, 10 new.
#include "idna/labels.h"
#include "lint/helpers.h"
#include "lint/rules.h"
#include "unicode/properties.h"

namespace unicert::lint {
namespace {

using unicode::CodePoint;
using unicode::CodePoints;
using x509::AttributeValue;
using x509::CertField;
using x509::GeneralName;
using x509::GeneralNameType;

// Scan every decoded subject value with a code-point predicate; report
// the first hit.
std::optional<std::string> scan_subject(const CertView& cert,
                                        bool (*pred)(CodePoint),
                                        const char* what) {
    for (const SubjectValue& value : cert.subject_values()) {
        if (!value.code_points) continue;
        for (CodePoint cp : *value.code_points) {
            if (pred(cp)) {
                return asn1::attribute_short_name(value.attribute->type) + " contains " + what +
                       " " + unicode::codepoint_label(cp);
            }
        }
    }
    return std::nullopt;
}

// Scan SAN GeneralNames of string kinds with a per-code-point predicate.
std::optional<std::string> scan_san(const CertView& cert, GeneralNameType kind,
                                    bool (*pred)(CodePoint), const char* what) {
    for (const GeneralName& gn : cert.subject_alt_names()) {
        if (gn.type != kind) continue;
        // Decode as Latin-1 so every byte is visible to the predicate.
        CodePoints cps = unicode::decode_lossy(gn.value_bytes, unicode::Encoding::kLatin1,
                                               unicode::ErrorPolicy::kReplace);
        for (CodePoint cp : cps) {
            if (pred(cp)) {
                return std::string(x509::general_name_type_label(kind)) + " contains " + what +
                       " " + unicode::codepoint_label(cp);
            }
        }
    }
    return std::nullopt;
}

Rule make(std::string name, std::string description, Severity severity, Source source,
          int64_t effective, bool is_new, RuleFootprint fp,
          std::function<std::optional<std::string>(const CertView&)> check) {
    Rule r;
    r.info = {std::move(name), std::move(description), severity, source,
              NcType::kInvalidCharacter, effective, is_new, std::move(fp)};
    r.check = std::move(check);
    return r;
}

// Predicates used by the scanners (must be plain function pointers).
bool pred_control(CodePoint cp) { return unicode::is_control(cp); }
bool pred_nul(CodePoint cp) { return cp == 0x00; }
bool pred_bidi(CodePoint cp) { return unicode::is_bidi_control(cp); }
bool pred_layout(CodePoint cp) {
    return unicode::is_layout_control(cp) && !unicode::is_bidi_control(cp);
}
bool pred_del(CodePoint cp) { return cp == 0x7F; }
bool pred_c1(CodePoint cp) { return unicode::is_c1_control(cp); }
bool pred_fffd(CodePoint cp) { return cp == 0xFFFD; }
bool pred_nonchar_private(CodePoint cp) {
    return unicode::is_noncharacter(cp) || unicode::is_private_use(cp);
}

}  // namespace

void register_charset_rules(Registry& reg) {
    // 1. Non-printable characters anywhere in the Subject DN (zlint's
    //    subject_dn_not_printable_characters; fires on NUL/ESC/DEL —
    //    13.3K certs in the paper).
    reg.add(make(
        "e_rfc_subject_dn_not_printable_characters",
        "Subject DN attribute values must not contain control characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) { return scan_subject(cert, pred_control, "control"); }));

    // 2. PrintableString values restricted to the X.680 charset. RFC
    //    5280 section 4.1.2.4 incorporates the X.680 PrintableString
    //    repertoire into the profile, so the rule is cited (and dated)
    //    against RFC 5280 like its siblings in the "rfc" namespace.
    reg.add(make(
        "e_rfc_subject_printable_string_badalpha",
        "PrintableString Subject values may only use the X.680 printable charset",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kPrintableString}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->string_type != asn1::StringType::kPrintableString ||
                    !value.code_points) {
                    continue;
                }
                for (CodePoint cp : *value.code_points) {
                    if (!asn1::in_standard_charset(asn1::StringType::kPrintableString, cp)) {
                        return asn1::attribute_short_name(value.attribute->type) +
                               " PrintableString contains " + unicode::codepoint_label(cp);
                    }
                }
            }
            return std::nullopt;
        }));

    // 3/4. Leading / trailing whitespace in DN values (community lints;
    //      the Table 3 variant strategies rely on them passing).
    reg.add(make(
        "w_community_subject_dn_trailing_whitespace",
        "Subject DN values should not end with whitespace",
        Severity::kWarning, Source::kCommunity, dates::kCommunity, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                const auto& cps = value.code_points;
                if (cps && !cps->empty() && unicode::is_space(cps->back())) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " has trailing whitespace";
                }
            }
            return std::nullopt;
        }));
    reg.add(make(
        "w_community_subject_dn_leading_whitespace",
        "Subject DN values should not start with whitespace",
        Severity::kWarning, Source::kCommunity, dates::kCommunity, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                const auto& cps = value.code_points;
                if (cps && !cps->empty() && unicode::is_space(cps->front())) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " has leading whitespace";
                }
            }
            return std::nullopt;
        }));

    // 5. IDN A-label decodes to DISALLOWED code points (the paper's
    //    headline new lint — 26.7K certs, finding F1).
    reg.add(make(
        "e_rfc_dns_idn_a2u_unpermitted_unichar",
        "IDN A-labels must decode to IDNA2008-permitted code points",
        Severity::kError, Source::kIdna, dates::kIdna2008, true,
        footprint({CertField::kSubject}, {&asn1::oids::subject_alt_name()},
                  {&asn1::oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const DnsLabel* label =
                find_idn_issue(cert, idna::LabelIssue::kDisallowedCodePoint);
            if (label != nullptr) {
                return "label '" + std::string(label->text) +
                       "' decodes to a DISALLOWED code point";
            }
            return std::nullopt;
        }));

    // 6. IDN A-label cannot be converted to Unicode at all.
    reg.add(make(
        "e_rfc_dns_idn_malformed_unicode",
        "IDN A-labels must be convertible to U-labels",
        Severity::kError, Source::kIdna, dates::kIdna2008, false,
        footprint({CertField::kSubject}, {&asn1::oids::subject_alt_name()},
                  {&asn1::oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const DnsLabel* label =
                find_idn_issue(cert, idna::LabelIssue::kUndecodablePunycode);
            if (label != nullptr) {
                return "label '" + std::string(label->text) + "' is not decodable Punycode";
            }
            return std::nullopt;
        }));

    // 7. Plain DNS labels must be LDH (CABF domain validation rule).
    reg.add(make(
        "e_cab_dns_bad_character_in_label",
        "DNS labels must contain only letters, digits and hyphens",
        Severity::kError, Source::kCabfBr, dates::kCabfBr, false,
        footprint({CertField::kSubject}, {&asn1::oids::subject_alt_name()},
                  {&asn1::oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const DnsName& name : cert.dns_names()) {
                if (!name.from_san) continue;
                for (size_t i = 0; i < name.labels.size(); ++i) {
                    std::string_view label = name.labels[i].text;
                    if (i == 0 && label == "*") continue;
                    for (char c : label) {
                        unsigned char uc = static_cast<unsigned char>(c);
                        if (uc < 0x80 && !unicode::is_ldh(uc)) {
                            return "label '" + std::string(label) + "' contains '" + c + "'";
                        }
                    }
                }
            }
            return std::nullopt;
        }));

    // 8. SAN DNSName bytes carrying Unicode beyond printable ASCII.
    reg.add(make(
        "e_ext_san_dns_contain_unpermitted_unichar",
        "SAN DNSNames must not contain characters beyond printable ASCII",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({}, {&asn1::oids::subject_alt_name()}, {}, {asn1::StringType::kIa5String}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const GeneralName& gn : cert.subject_alt_names()) {
                if (gn.type != GeneralNameType::kDnsName) continue;
                for (uint8_t b : gn.value_bytes) {
                    if (b < 0x20 || b > 0x7E) {
                        return "DNSName byte 0x" + hex_encode({&b, 1}) +
                               " outside printable ASCII";
                    }
                }
            }
            return std::nullopt;
        }));

    // 9-15. Specific character classes in Subject values.
    reg.add(make(
        "e_subject_dn_nul_character", "Subject DN values must not contain NUL",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) { return scan_subject(cert, pred_nul, "NUL"); }));
    reg.add(make(
        "e_subject_dn_bidi_control",
        "Subject DN values must not contain bidirectional control characters",
        Severity::kError, Source::kRfc5280, dates::kCommunity, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) { return scan_subject(cert, pred_bidi, "bidi control"); }));
    reg.add(make(
        "e_subject_dn_layout_control",
        "Subject DN values must not contain invisible layout/format characters",
        Severity::kError, Source::kRfc5280, dates::kCommunity, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) {
            return scan_subject(cert, pred_layout, "layout control");
        }));
    reg.add(make(
        "e_subject_dn_del_character",
        "Subject DN values must not contain DEL (U+007F)",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) { return scan_subject(cert, pred_del, "DEL"); }));
    reg.add(make(
        "e_subject_dn_c1_control",
        "UTF8String Subject values must not contain C1 controls",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) { return scan_subject(cert, pred_c1, "C1 control"); }));
    reg.add(make(
        "e_subject_dn_replacement_character",
        "Subject DN values must not contain U+FFFD (evidence of mojibake re-encoding)",
        Severity::kError, Source::kCommunity, dates::kCommunity, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) {
            return scan_subject(cert, pred_fffd, "replacement character");
        }));
    reg.add(make(
        "e_utf8string_noncharacter",
        "UTF8String values must not contain noncharacters or private-use code points",
        Severity::kError, Source::kX680, dates::kAlways, true,
        footprint({CertField::kSubject}),
        [](const CertView& cert) {
            return scan_subject(cert, pred_nonchar_private, "noncharacter/private-use");
        }));

    // 16. Control characters specifically in the CN (hostname spoofing
    //     via NUL-termination — the classic PKI Layer Cake vector).
    reg.add(make(
        "e_cn_control_characters",
        "CommonName must not contain control characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}, {}, {&asn1::oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->type != asn1::oids::common_name() || !value.code_points) {
                    continue;
                }
                for (CodePoint cp : *value.code_points) {
                    if (unicode::is_control(cp)) {
                        return "CN contains " + unicode::codepoint_label(cp);
                    }
                }
            }
            return std::nullopt;
        }));

    // 17-19. Control characters in SAN string kinds.
    reg.add(make(
        "e_ext_san_rfc822_control_characters",
        "SAN rfc822Names must not contain control characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, false,
        footprint({}, {&asn1::oids::subject_alt_name()}),
        [](const CertView& cert) {
            return scan_san(cert, GeneralNameType::kRfc822Name, pred_control, "control");
        }));
    reg.add(make(
        "e_ext_san_uri_control_characters",
        "SAN URIs must not contain control characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({}, {&asn1::oids::subject_alt_name()}),
        [](const CertView& cert) {
            return scan_san(cert, GeneralNameType::kUri, pred_control, "control");
        }));
    reg.add(make(
        "e_ext_crldp_uri_control_characters",
        "CRLDistributionPoints URIs must not contain control characters",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({}, {&asn1::oids::crl_distribution_points()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const x509::Extension* ext =
                cert.find_extension(asn1::oids::crl_distribution_points());
            if (ext == nullptr) return std::nullopt;
            auto points = x509::parse_crl_distribution_points(*ext);
            if (!points.ok()) return std::nullopt;
            for (const x509::DistributionPoint& dp : points.value()) {
                for (const GeneralName& gn : dp.full_names) {
                    if (gn.type != GeneralNameType::kUri) continue;
                    for (uint8_t b : gn.value_bytes) {
                        if (b < 0x20 || b == 0x7F) {
                            return "CRL URI contains control byte 0x" + hex_encode({&b, 1});
                        }
                    }
                }
            }
            return std::nullopt;
        }));

    // 20. Non-standard whitespace variants (Table 3's NBSP / U+3000).
    reg.add(make(
        "w_subject_dn_nonstandard_whitespace",
        "Subject DN values should use U+0020 rather than typographic space characters",
        Severity::kWarning, Source::kCommunity, dates::kCommunity, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) {
            return scan_subject(cert, unicode::is_nonstandard_space, "non-standard space");
        }));

    // 21. IA5String value bytes above 0x7F (undecodable as IA5).
    reg.add(make(
        "e_ia5string_high_bytes",
        "IA5String values must stay within the 7-bit IA5 repertoire",
        Severity::kError, Source::kX680, dates::kAlways, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kIa5String}),
        [](const CertView& cert) -> std::optional<std::string> {
            std::optional<std::string> found;
            for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                if (found || av.string_type != asn1::StringType::kIa5String) return;
                for (uint8_t b : av.value_bytes) {
                    if (b > 0x7F) {
                        found = asn1::attribute_short_name(av.type) +
                                " IA5String has byte 0x" + hex_encode({&b, 1});
                        return;
                    }
                }
            });
            return found;
        }));

    // 22. T.61 escape sequences inside TeletexString (ambiguous charset
    //     switching — the reason parsers degrade T.61 to Latin-1).
    reg.add(make(
        "e_teletexstring_escape_sequences",
        "TeletexString values must not contain T.61 escape sequences",
        Severity::kError, Source::kX680, dates::kAlways, false,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kTeletexString}),
        [](const CertView& cert) -> std::optional<std::string> {
            std::optional<std::string> found;
            for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                if (found || av.string_type != asn1::StringType::kTeletexString) return;
                for (uint8_t b : av.value_bytes) {
                    if (b == 0x1B) {
                        found = asn1::attribute_short_name(av.type) +
                                " TeletexString contains ESC (charset switch)";
                        return;
                    }
                }
            });
            return found;
        }));
}

}  // namespace unicert::lint
