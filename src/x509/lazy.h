// unicert/x509/lazy.h
//
// Zero-copy certificate index: one structural walk over the DER that
// performs every validation parse_certificate performs — identical
// acceptance set, identical Error codes/messages/offsets — but records
// BytesView spans into the input buffer instead of materializing owned
// field values. parse_certificate itself is index() + materialize(),
// so there is exactly one decoder and parity is structural, not
// maintained by hand (proven by tests/parse_parity_test.cc).
//
// Borrowing rules (DESIGN.md section 13):
//   * Every span returned by a LazyCertificate aliases the buffer that
//     was passed to index(); the buffer must outlive the index and
//     every view derived from it (mmap'd corpus segments outlive the
//     pipeline run that borrows from them).
//   * When an Arena is supplied, the extension table lives in the
//     arena; releasing the enclosing scope mark invalidates the whole
//     LazyCertificate. A loop that indexes many certificates opens one
//     ArenaScope per certificate, so once warm it indexes with zero
//     heap traffic.
//   * materialize() deep-copies everything into an owning Certificate;
//     the result is independent of both buffer and arena.
#pragma once

#include <span>

#include "asn1/oid.h"
#include "common/bytes.h"
#include "common/expected.h"
#include "core/arena.h"
#include "x509/certificate.h"

namespace unicert::x509 {

class LazyCertificate {
public:
    // One indexed extension: raw OID content octets (validated),
    // criticality, and the DER inside extnValue's OCTET STRING.
    struct RawExtension {
        BytesView oid_der;
        bool critical = false;
        BytesView value;
    };

    // Walk + validate `der`, recording spans. With an arena, the
    // extension table is bump-allocated there; otherwise it is heap
    // allocated (one vector — still no per-field copies).
    static Expected<LazyCertificate> index(BytesView der, core::Arena* arena = nullptr);

    // ---- Eagerly decoded scalars (free at index time) -----------------

    int version() const noexcept { return version_; }
    const Validity& validity() const noexcept { return validity_; }

    // ---- Borrowed spans ------------------------------------------------

    BytesView der() const noexcept { return der_; }          // trimmed to the outer TLV
    BytesView tbs_der() const noexcept { return tbs_der_; }  // header + content
    BytesView serial() const noexcept { return serial_; }    // magnitude, leading 0x00 stripped
    BytesView signature_algorithm_der() const noexcept { return sig_alg_der_; }
    BytesView issuer_der() const noexcept { return issuer_der_; }    // full Name TLV
    BytesView subject_der() const noexcept { return subject_der_; }  // full Name TLV
    BytesView subject_public_key() const noexcept { return spki_key_; }
    BytesView signature() const noexcept { return signature_; }

    std::span<const RawExtension> raw_extensions() const noexcept {
        return arena_exts_ != nullptr ? std::span<const RawExtension>{arena_exts_, ext_count_}
                                      : std::span<const RawExtension>{owned_exts_};
    }

    // ---- On-demand decodes ---------------------------------------------
    //
    // All of these succeeded structurally at index time, so they cannot
    // fail here; they allocate exactly what they return.

    asn1::Oid signature_algorithm() const;
    DistinguishedName issuer() const;
    DistinguishedName subject() const;
    Extension decode_extension(const RawExtension& raw) const;

    // Deep copy into the owning model — byte-identical to what the
    // legacy owning parse produced.
    Certificate materialize() const;

private:
    int version_ = 0;
    Validity validity_;
    BytesView der_;
    BytesView tbs_der_;
    BytesView serial_;
    BytesView sig_alg_der_;
    BytesView issuer_der_;
    BytesView subject_der_;
    BytesView spki_key_;
    BytesView signature_;
    // Extension table: arena-backed (arena_exts_) or owned. The vector
    // move keeps its heap buffer, so LazyCertificate is safely movable
    // either way; copying is fine too (spans are non-owning).
    const RawExtension* arena_exts_ = nullptr;
    size_t ext_count_ = 0;
    std::vector<RawExtension> owned_exts_;
};

}  // namespace unicert::x509
