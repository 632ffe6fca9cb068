#include "lint/helpers.h"

namespace unicert::lint {

void for_each_attribute(const x509::DistinguishedName& dn,
                        const std::function<void(const x509::AttributeValue&)>& fn) {
    for (const x509::Rdn& rdn : dn.rdns) {
        for (const x509::AttributeValue& av : rdn.attributes) fn(av);
    }
}

int64_t source_publication_date(Source s) noexcept {
    switch (s) {
        case Source::kRfc5280: return dates::kRfc5280;
        case Source::kRfc6818: return asn1::make_time(2013, 1, 1);
        case Source::kRfc8399: return asn1::make_time(2018, 5, 1);
        case Source::kRfc9549: return dates::kRfc9549;
        case Source::kRfc9598: return dates::kRfc9598;
        case Source::kIdna: return dates::kIdna2008;
        case Source::kDnsRfc: return dates::kAlways;  // RFC 1034 (1987) predates X.509 use
        case Source::kCabfBr: return dates::kCabfBr;
        case Source::kCommunity: return dates::kCommunity;
        case Source::kX680: return dates::kAlways;
    }
    return dates::kAlways;
}

const DnsLabel* find_idn_issue(const CertView& cert, idna::LabelIssue issue) {
    for (const DnsName& name : cert.dns_names()) {
        for (const DnsLabel& label : name.labels) {
            if (label.idn && label.idn->issue == issue) return &label;
        }
    }
    return nullptr;
}

std::optional<std::string> check_printable_or_utf8(const x509::AttributeValue& av) {
    using asn1::StringType;
    if (av.string_type == StringType::kPrintableString ||
        av.string_type == StringType::kUtf8String) {
        return std::nullopt;
    }
    return std::string("encoded as ") + asn1::string_type_name(av.string_type) +
           " (PrintableString or UTF8String required)";
}

std::optional<std::string> check_printable_only(const x509::AttributeValue& av) {
    if (av.string_type == asn1::StringType::kPrintableString) return std::nullopt;
    return std::string("encoded as ") + asn1::string_type_name(av.string_type) +
           " (PrintableString required)";
}

}  // namespace unicert::lint
