// unicert/lint/helpers.h
//
// Shared utilities for lint rule implementations: attribute iteration,
// DNSName label lookups over the CertView facts, string-type checks,
// and the effective-date constants of the standards each rule family
// derives from.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "asn1/time.h"
#include "lint/cert_view.h"
#include "lint/lint.h"
#include "x509/certificate.h"

namespace unicert::lint {

// ---- Effective dates --------------------------------------------------------

namespace dates {
// RFC 5280 published May 2008.
inline const int64_t kRfc5280 = asn1::make_time(2008, 5, 1);
// CA/B Baseline Requirements v1.0 effective July 2012.
inline const int64_t kCabfBr = asn1::make_time(2012, 7, 1);
// IDNA2008 suite (RFC 5890-5892) August 2010.
inline const int64_t kIdna2008 = asn1::make_time(2010, 8, 1);
// Community lints (zlint-era conventions) from 2016.
inline const int64_t kCommunity = asn1::make_time(2016, 3, 1);
// RFC 9549 (i18n updates to RFC 5280) January 2024.
inline const int64_t kRfc9549 = asn1::make_time(2024, 1, 1);
// RFC 9598 (internationalized email in certs) May 2024.
inline const int64_t kRfc9598 = asn1::make_time(2024, 5, 1);
// ASN.1 / X.680 base constraints predate everything relevant.
inline const int64_t kAlways = 0;
}  // namespace dates

// Publication date of the standard behind a Source: the floor for any
// rule's effective date. A rule citing a standard cannot take effect
// before the standard existed (the analyzer's anachronism check).
int64_t source_publication_date(Source s) noexcept;

// ---- Attribute iteration -----------------------------------------------------

// Visit every AttributeTypeAndValue in a DN.
void for_each_attribute(const x509::DistinguishedName& dn,
                        const std::function<void(const x509::AttributeValue&)>& fn);

// ---- DNSName facts ----------------------------------------------------------

// The first label among the view's DNSName candidates whose IDNA check
// reports `issue`, or nullptr.
const DnsLabel* find_idn_issue(const CertView& cert, idna::LabelIssue issue);

// ---- Predicate helpers ------------------------------------------------------

// The CABF DirectoryString rule: value must use PrintableString or
// UTF8String. Returns the offending type name if violated.
std::optional<std::string> check_printable_or_utf8(const x509::AttributeValue& av);

// PrintableString-only rule (country, serialNumber).
std::optional<std::string> check_printable_only(const x509::AttributeValue& av);

}  // namespace unicert::lint
