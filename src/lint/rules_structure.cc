// T3 "Invalid Structure" (2 lints) and "Discouraged Field" (2 lints)
// rules (Section 4.3.1).
#include <algorithm>

#include "lint/helpers.h"
#include "lint/rules.h"

namespace unicert::lint {
namespace {

using x509::AttributeValue;
using x509::CertField;
using x509::GeneralName;
using x509::GeneralNameType;

Rule make(std::string name, std::string description, Severity severity, NcType type,
          Source source, int64_t effective, RuleFootprint fp,
          std::function<std::optional<std::string>(const CertView&)> check) {
    Rule r;
    r.info = {std::move(name), std::move(description), severity, source, type, effective,
              /*is_new=*/false, std::move(fp)};
    r.check = std::move(check);
    return r;
}

}  // namespace

void register_structure_rules(Registry& reg) {
    namespace oids = asn1::oids;

    // 1. CABF BR: every Subject CN value must also appear in the SAN.
    //    The paper's single biggest structure lint (93.7K certs). The
    //    name keeps zlint's w_ prefix; the BR requirement level is MUST
    //    and the paper's Table 1 counts these as error-level.
    reg.add(make(
        "w_cab_subject_common_name_not_in_san",
        "Subject CommonName values must be repeated in the SAN",
        Severity::kError, NcType::kInvalidStructure, Source::kCabfBr, dates::kCabfBr,
        footprint({CertField::kSubject}, {&oids::subject_alt_name()}, {&oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            const std::vector<DnsName>& names = cert.dns_names();
            for (const DnsName& cn : names) {
                if (cn.from_san) continue;
                bool found = std::any_of(names.begin(), names.end(), [&](const DnsName& san) {
                    return san.from_san && san.value == cn.value;
                });
                if (!found) return "CN '" + cn.value + "' not present in SAN";
            }
            return std::nullopt;
        }));

    // 2. Duplicate non-CN attribute types in the Subject (duplicate CN
    //    is covered by w_cab_subject_contain_extra_common_name below).
    reg.add(make(
        "e_rfc_subject_duplicate_attribute",
        "Subject must not repeat attribute types (other than CN, OU, DC, STREET)",
        Severity::kError, NcType::kInvalidStructure, Source::kRfc5280, dates::kRfc5280,
        footprint({CertField::kSubject}),
        [](const CertView& cert) -> std::optional<std::string> {
            // Attributes that may legitimately repeat.
            const asn1::Oid* repeatable[] = {
                &asn1::oids::common_name(),  // handled by the discouraged lint
                &asn1::oids::organizational_unit_name(),
                &asn1::oids::domain_component(),
                &asn1::oids::street_address(),
            };
            std::vector<asn1::Oid> seen;
            std::optional<std::string> found;
            for_each_attribute(cert.subject(), [&](const AttributeValue& av) {
                if (found) return;
                for (const asn1::Oid* ok : repeatable) {
                    if (av.type == *ok) return;
                }
                for (const asn1::Oid& s : seen) {
                    if (s == av.type) {
                        found = "duplicate attribute " + asn1::attribute_short_name(av.type);
                        return;
                    }
                }
                seen.push_back(av.type);
            });
            return found;
        }));
}

void register_discouraged_rules(Registry& reg) {
    namespace oids = asn1::oids;

    // 1. Multiple CommonNames in the Subject (589 certs in the paper).
    reg.add(make(
        "w_cab_subject_contain_extra_common_name",
        "Subject should contain at most one CommonName",
        Severity::kWarning, NcType::kDiscouragedField, Source::kCabfBr, dates::kCabfBr,
        footprint({CertField::kSubject}, {}, {&oids::common_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            size_t n = cert.subject_common_names().size();
            if (n > 1) return std::to_string(n) + " CommonName attributes present";
            return std::nullopt;
        }));

    // 2. URIs in the SAN of TLS server certificates are discouraged.
    reg.add(make(
        "w_discouraged_san_uri",
        "URI entries in the SAN of server certificates are discouraged",
        Severity::kWarning, NcType::kDiscouragedField, Source::kCabfBr, dates::kCabfBr,
        footprint({}, {&oids::subject_alt_name()}),
        [](const CertView& cert) -> std::optional<std::string> {
            for (const GeneralName& gn : cert.subject_alt_names()) {
                if (gn.type == GeneralNameType::kUri) {
                    return std::string("SAN contains a URI entry");
                }
            }
            return std::nullopt;
        }));
}

}  // namespace unicert::lint
