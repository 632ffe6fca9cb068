#include "asn1/oid.h"

namespace unicert::asn1 {

Expected<Oid> Oid::from_string(std::string_view dotted) {
    std::vector<uint32_t> arcs;
    uint64_t cur = 0;
    bool have_digit = false;
    for (char c : dotted) {
        if (c >= '0' && c <= '9') {
            cur = cur * 10 + static_cast<uint64_t>(c - '0');
            if (cur > 0xFFFFFFFFULL) return Error{"oid_arc_overflow", "arc exceeds 32 bits"};
            have_digit = true;
        } else if (c == '.') {
            if (!have_digit) return Error{"oid_bad_syntax", "empty arc"};
            arcs.push_back(static_cast<uint32_t>(cur));
            cur = 0;
            have_digit = false;
        } else {
            return Error{"oid_bad_syntax", std::string("invalid character '") + c + "'"};
        }
    }
    if (!have_digit) return Error{"oid_bad_syntax", "trailing dot or empty OID"};
    arcs.push_back(static_cast<uint32_t>(cur));
    if (arcs.size() < 2) return Error{"oid_bad_syntax", "OID needs at least two arcs"};
    if (arcs[0] > 2 || (arcs[0] < 2 && arcs[1] > 39)) {
        return Error{"oid_bad_syntax", "invalid first/second arc"};
    }
    return Oid{std::move(arcs)};
}

namespace {

// Shared base-128 scan behind from_der and validate_oid_der: one
// acceptance set, one Error vocabulary. `out` is null in validate-only
// mode, which is what keeps the zero-copy index allocation-free.
Status scan_oid_der(BytesView content, std::vector<uint32_t>* out) {
    if (content.empty()) return Error{"oid_empty", "empty OID content"};
    uint64_t cur = 0;
    bool in_arc = false;
    bool first_done = false;
    for (size_t i = 0; i < content.size(); ++i) {
        uint8_t b = content[i];
        if (!in_arc && b == 0x80) {
            return Error{"oid_nonminimal", "leading 0x80 in base-128 arc"};
        }
        cur = (cur << 7) | (b & 0x7F);
        if (cur > 0xFFFFFFFFULL) return Error{"oid_arc_overflow", "arc exceeds 32 bits"};
        in_arc = true;
        if ((b & 0x80) == 0) {
            if (!first_done) {
                // First subidentifier packs the first two arcs.
                first_done = true;
                if (out != nullptr) {
                    uint32_t first = cur < 40 ? 0 : (cur < 80 ? 1 : 2);
                    out->push_back(first);
                    out->push_back(static_cast<uint32_t>(cur - first * 40));
                }
            } else if (out != nullptr) {
                out->push_back(static_cast<uint32_t>(cur));
            }
            cur = 0;
            in_arc = false;
        }
    }
    if (in_arc) return Error{"oid_truncated", "OID ends mid-arc"};
    return Status::success();
}

}  // namespace

Expected<Oid> Oid::from_der(BytesView content) {
    std::vector<uint32_t> arcs;
    if (Status s = scan_oid_der(content, &arcs); !s.ok()) return s.error();
    return Oid{std::move(arcs)};
}

Status validate_oid_der(BytesView content) { return scan_oid_der(content, nullptr); }

Bytes Oid::to_der() const {
    Bytes out;
    if (arcs_.size() < 2) return out;
    auto push_base128 = [&out](uint64_t v) {
        uint8_t tmp[10];
        int n = 0;
        do {
            tmp[n++] = static_cast<uint8_t>(v & 0x7F);
            v >>= 7;
        } while (v > 0);
        for (int i = n - 1; i > 0; --i) out.push_back(static_cast<uint8_t>(tmp[i] | 0x80));
        out.push_back(tmp[0]);
    };
    push_base128(static_cast<uint64_t>(arcs_[0]) * 40 + arcs_[1]);
    for (size_t i = 2; i < arcs_.size(); ++i) push_base128(arcs_[i]);
    return out;
}

std::string Oid::to_string() const {
    std::string out;
    for (size_t i = 0; i < arcs_.size(); ++i) {
        if (i) out.push_back('.');
        out += std::to_string(arcs_[i]);
    }
    return out;
}

namespace oids {
namespace {
Oid make(std::initializer_list<uint32_t> arcs) { return Oid{std::vector<uint32_t>(arcs)}; }
}  // namespace

#define UNICERT_DEFINE_OID(name, ...)               \
    const Oid& name() {                             \
        static const Oid oid = make({__VA_ARGS__}); \
        return oid;                                 \
    }

UNICERT_DEFINE_OID(common_name, 2, 5, 4, 3)
UNICERT_DEFINE_OID(surname, 2, 5, 4, 4)
UNICERT_DEFINE_OID(serial_number, 2, 5, 4, 5)
UNICERT_DEFINE_OID(country_name, 2, 5, 4, 6)
UNICERT_DEFINE_OID(locality_name, 2, 5, 4, 7)
UNICERT_DEFINE_OID(state_or_province_name, 2, 5, 4, 8)
UNICERT_DEFINE_OID(street_address, 2, 5, 4, 9)
UNICERT_DEFINE_OID(organization_name, 2, 5, 4, 10)
UNICERT_DEFINE_OID(organizational_unit_name, 2, 5, 4, 11)
UNICERT_DEFINE_OID(business_category, 2, 5, 4, 15)
UNICERT_DEFINE_OID(postal_code, 2, 5, 4, 17)
UNICERT_DEFINE_OID(given_name, 2, 5, 4, 42)
UNICERT_DEFINE_OID(domain_component, 0, 9, 2342, 19200300, 100, 1, 25)
UNICERT_DEFINE_OID(email_address, 1, 2, 840, 113549, 1, 9, 1)
UNICERT_DEFINE_OID(jurisdiction_locality, 1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 1)
UNICERT_DEFINE_OID(jurisdiction_state, 1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 2)
UNICERT_DEFINE_OID(jurisdiction_country, 1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 3)
UNICERT_DEFINE_OID(organization_identifier, 2, 5, 4, 97)

UNICERT_DEFINE_OID(subject_key_identifier, 2, 5, 29, 14)
UNICERT_DEFINE_OID(key_usage, 2, 5, 29, 15)
UNICERT_DEFINE_OID(subject_alt_name, 2, 5, 29, 17)
UNICERT_DEFINE_OID(issuer_alt_name, 2, 5, 29, 18)
UNICERT_DEFINE_OID(basic_constraints, 2, 5, 29, 19)
UNICERT_DEFINE_OID(crl_distribution_points, 2, 5, 29, 31)
UNICERT_DEFINE_OID(certificate_policies, 2, 5, 29, 32)
UNICERT_DEFINE_OID(authority_key_identifier, 2, 5, 29, 35)
UNICERT_DEFINE_OID(ext_key_usage, 2, 5, 29, 37)
UNICERT_DEFINE_OID(authority_info_access, 1, 3, 6, 1, 5, 5, 7, 1, 1)
UNICERT_DEFINE_OID(subject_info_access, 1, 3, 6, 1, 5, 5, 7, 1, 11)
UNICERT_DEFINE_OID(ct_poison, 1, 3, 6, 1, 4, 1, 11129, 2, 4, 3)
UNICERT_DEFINE_OID(ct_sct_list, 1, 3, 6, 1, 4, 1, 11129, 2, 4, 2)
UNICERT_DEFINE_OID(smtp_utf8_mailbox, 1, 3, 6, 1, 5, 5, 7, 8, 9)

UNICERT_DEFINE_OID(cps_qualifier, 1, 3, 6, 1, 5, 5, 7, 2, 1)
UNICERT_DEFINE_OID(user_notice_qualifier, 1, 3, 6, 1, 5, 5, 7, 2, 2)

UNICERT_DEFINE_OID(ad_ocsp, 1, 3, 6, 1, 5, 5, 7, 48, 1)
UNICERT_DEFINE_OID(ad_ca_issuers, 1, 3, 6, 1, 5, 5, 7, 48, 2)

UNICERT_DEFINE_OID(sim_sig_with_sha256, 1, 3, 6, 1, 4, 1, 99999, 1, 1)

#undef UNICERT_DEFINE_OID

}  // namespace oids

std::string attribute_short_name(const Oid& oid) {
    using namespace oids;
    if (oid == common_name()) return "CN";
    if (oid == surname()) return "SN";
    if (oid == serial_number()) return "serialNumber";
    if (oid == country_name()) return "C";
    if (oid == locality_name()) return "L";
    if (oid == state_or_province_name()) return "ST";
    if (oid == street_address()) return "STREET";
    if (oid == organization_name()) return "O";
    if (oid == organizational_unit_name()) return "OU";
    if (oid == business_category()) return "businessCategory";
    if (oid == postal_code()) return "postalCode";
    if (oid == given_name()) return "GN";
    if (oid == domain_component()) return "DC";
    if (oid == email_address()) return "emailAddress";
    if (oid == jurisdiction_locality()) return "jurisdictionL";
    if (oid == jurisdiction_state()) return "jurisdictionST";
    if (oid == jurisdiction_country()) return "jurisdictionC";
    if (oid == organization_identifier()) return "organizationIdentifier";
    return oid.to_string();
}

}  // namespace unicert::asn1
