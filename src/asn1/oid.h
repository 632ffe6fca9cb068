// unicert/asn1/oid.h
//
// OBJECT IDENTIFIER handling plus the registry of OIDs that X.509
// certificate processing needs (DN attribute types, extensions,
// signature algorithms, access descriptors, general-name helpers).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"

namespace unicert::asn1 {

// An object identifier as its arc values, e.g. {2,5,4,3} for id-at-commonName.
class Oid {
public:
    Oid() = default;
    explicit Oid(std::vector<uint32_t> arcs) : arcs_(std::move(arcs)) {}

    // Parse dotted-decimal, e.g. "2.5.4.3".
    static Expected<Oid> from_string(std::string_view dotted);

    // Decode DER content octets (without tag/length).
    static Expected<Oid> from_der(BytesView content);

    const std::vector<uint32_t>& arcs() const noexcept { return arcs_; }
    bool empty() const noexcept { return arcs_.empty(); }

    // Encode to DER content octets.
    Bytes to_der() const;

    std::string to_string() const;

    bool operator==(const Oid& other) const = default;
    auto operator<=>(const Oid& other) const = default;

private:
    std::vector<uint32_t> arcs_;
};

// Structural validation of DER OID content octets without building the
// arc vector — exactly the acceptance set (and Errors) of
// Oid::from_der, minus the allocation. The zero-copy certificate index
// validates every OID it records a span for through this.
Status validate_oid_der(BytesView content);

// ---- Well-known OIDs -------------------------------------------------------

namespace oids {

// DN attribute types (X.520 / PKCS#9).
const Oid& common_name();              // 2.5.4.3
const Oid& surname();                  // 2.5.4.4
const Oid& serial_number();            // 2.5.4.5
const Oid& country_name();             // 2.5.4.6
const Oid& locality_name();            // 2.5.4.7
const Oid& state_or_province_name();   // 2.5.4.8
const Oid& street_address();           // 2.5.4.9
const Oid& organization_name();        // 2.5.4.10
const Oid& organizational_unit_name(); // 2.5.4.11
const Oid& business_category();        // 2.5.4.15
const Oid& postal_code();              // 2.5.4.17
const Oid& given_name();               // 2.5.4.42
const Oid& domain_component();         // 0.9.2342.19200300.100.1.25
const Oid& email_address();            // 1.2.840.113549.1.9.1 (PKCS#9)
const Oid& jurisdiction_locality();    // 1.3.6.1.4.1.311.60.2.1.1
const Oid& jurisdiction_state();       // 1.3.6.1.4.1.311.60.2.1.2
const Oid& jurisdiction_country();     // 1.3.6.1.4.1.311.60.2.1.3
const Oid& organization_identifier();  // 2.5.4.97

// Extensions.
const Oid& subject_key_identifier();     // 2.5.29.14
const Oid& key_usage();                  // 2.5.29.15
const Oid& subject_alt_name();           // 2.5.29.17
const Oid& issuer_alt_name();            // 2.5.29.18
const Oid& basic_constraints();          // 2.5.29.19
const Oid& crl_distribution_points();    // 2.5.29.31
const Oid& certificate_policies();       // 2.5.29.32
const Oid& authority_key_identifier();   // 2.5.29.35
const Oid& ext_key_usage();              // 2.5.29.37
const Oid& authority_info_access();      // 1.3.6.1.5.5.7.1.1
const Oid& subject_info_access();        // 1.3.6.1.5.5.7.1.11
const Oid& ct_poison();                  // 1.3.6.1.4.1.11129.2.4.3
const Oid& ct_sct_list();                // 1.3.6.1.4.1.11129.2.4.2
const Oid& smtp_utf8_mailbox();          // 1.3.6.1.5.5.7.8.9 (otherName)

// Policy qualifier ids.
const Oid& cps_qualifier();              // 1.3.6.1.5.5.7.2.1
const Oid& user_notice_qualifier();      // 1.3.6.1.5.5.7.2.2

// Access method ids (AIA/SIA).
const Oid& ad_ocsp();                    // 1.3.6.1.5.5.7.48.1
const Oid& ad_ca_issuers();              // 1.3.6.1.5.5.7.48.2

// Signature algorithm placeholder for the SimSig substrate; we reuse
// an arc under the private enterprise space reserved for experiments.
const Oid& sim_sig_with_sha256();        // 1.3.6.1.4.1.99999.1.1

}  // namespace oids

// Short attribute-type name ("CN", "O", …) for a DN attribute OID, or
// the dotted form when unknown.
std::string attribute_short_name(const Oid& oid);

}  // namespace unicert::asn1
