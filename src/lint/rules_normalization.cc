// T2 "Bad Normalization" rules: NFC requirements on UTF8String values
// and on IDN U-labels (Section 4.3.1 type T2). 4 lints, 3 new.
#include "idna/labels.h"
#include "lint/helpers.h"
#include "lint/rules.h"
#include "unicode/normalize.h"
#include "unicode/properties.h"

namespace unicert::lint {
namespace {

using x509::CertField;

Rule make(std::string name, std::string description, Severity severity, Source source,
          int64_t effective, bool is_new, RuleFootprint fp,
          std::function<std::optional<std::string>(const CertView&)> check) {
    Rule r;
    r.info = {std::move(name), std::move(description), severity, source,
              NcType::kBadNormalization, effective, is_new, std::move(fp)};
    r.check = std::move(check);
    return r;
}

}  // namespace

void register_normalization_rules(Registry& reg) {
    // 1. IDN U-labels derived from A-labels must be in NFC — the lint
    //    behind the paper's 3-certificate T2 finding: Punycode output
    //    that re-encodes to a *different* A-label because it was never
    //    NFC, breaking A<->U round-tripping (RFC 5890/9598 concern).
    reg.add(make(
        "e_rfc_idn_unicode_not_nfc",
        "Decoded IDN U-labels must be in Unicode NFC form",
        Severity::kError, Source::kIdna, dates::kIdna2008, true,
        footprint({CertField::kSubject}, {&asn1::oids::subject_alt_name()},
                  {&asn1::oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            if (const DnsLabel* label = find_idn_issue(cert, idna::LabelIssue::kNotNfc)) {
                return "label '" + std::string(label->text) + "' decodes to non-NFC Unicode";
            }
            return std::nullopt;
        }));

    // 2. UTF8String DN values SHOULD be NFC (RFC 5280 attribute
    //    normalization; severity mirrors the MUST in the cert profile
    //    for name chaining).
    reg.add(make(
        "e_rfc_utf8_string_not_nfc",
        "UTF8String attribute values must be NFC-normalized",
        Severity::kError, Source::kRfc5280, dates::kRfc5280, true,
        footprint({CertField::kSubject}, {}, {}, {asn1::StringType::kUtf8String}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                if (value.attribute->string_type != asn1::StringType::kUtf8String ||
                    !value.code_points) {
                    continue;
                }
                if (!unicode::is_nfc(*value.code_points)) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " value is not in NFC";
                }
            }
            return std::nullopt;
        }));

    // 3. SmtpUTF8Mailbox local parts must be NFC (RFC 9598).
    reg.add(make(
        "e_mail_smtp_utf8_not_nfc",
        "SmtpUTF8Mailbox values must be NFC-normalized",
        Severity::kError, Source::kRfc9598, dates::kRfc9598, true,
        footprint({}, {&asn1::oids::subject_alt_name()}, {}, {asn1::StringType::kUtf8String}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const x509::GeneralName& gn : cert.subject_alt_names()) {
                if (gn.type != x509::GeneralNameType::kOtherName ||
                    gn.other_name_oid != asn1::oids::smtp_utf8_mailbox()) {
                    continue;
                }
                auto tlv = asn1::read_tlv(gn.other_name_value);
                if (!tlv.ok()) continue;
                auto cps = unicode::decode(tlv->content, unicode::Encoding::kUtf8);
                if (!cps.ok()) continue;
                if (!unicode::is_nfc(cps.value())) return std::string("mailbox is not in NFC");
            }
            return std::nullopt;
        }));

    // 4. Values beginning with a combining mark cannot normalize/render
    //    deterministically (DN comparison hazard, RFC 5280 sec. 7).
    reg.add(make(
        "w_rfc_dn_leading_combining_mark",
        "DN values should not begin with a combining mark",
        Severity::kWarning, Source::kRfc5280, dates::kRfc5280, false,
        footprint({CertField::kSubject}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const SubjectValue& value : cert.subject_values()) {
                const auto& cps = value.code_points;
                if (cps && !cps->empty() && unicode::combining_class(cps->front()) != 0) {
                    return asn1::attribute_short_name(value.attribute->type) +
                           " starts with combining mark " +
                           unicode::codepoint_label(cps->front());
                }
            }
            return std::nullopt;
        }));
}

}  // namespace unicert::lint
