#include "x509/lazy.h"

#include <cassert>

#include "asn1/der.h"
#include "asn1/time.h"
#include "x509/name.h"

namespace unicert::x509 {
namespace {

Expected<int64_t> parse_time(const asn1::Tlv& tlv) {
    if (tlv.is_universal(asn1::Tag::kUtcTime)) return asn1::parse_utc_time(tlv.content);
    if (tlv.is_universal(asn1::Tag::kGeneralizedTime)) {
        return asn1::parse_generalized_time(tlv.content);
    }
    return Error{"x509_bad_time_tag", "validity time must be UTCTime or GeneralizedTime"};
}

// Count pass for arena sizing: a non-validating walk over the optional
// trailing fields that counts extension SEQUENCEs. Any malformation
// makes it stop early; that is safe because the validating fill pass
// errors out at (or before) the same point, so on every path that
// actually appends an extension the count is an upper bound.
size_t count_extensions(BytesView optional_fields) {
    size_t total = 0;
    asn1::Reader rc(optional_fields);
    while (!rc.done()) {
        auto tlv = rc.next();
        if (!tlv.ok()) break;
        if (!tlv->is_context(3) || !tlv->is_constructed()) continue;
        auto exts_seq = asn1::read_tlv(tlv->content);
        if (!exts_seq.ok() || !exts_seq->is_universal(asn1::Tag::kSequence)) break;
        asn1::Reader er(exts_seq->content);
        while (!er.done()) {
            auto e = er.next();
            if (!e.ok()) break;
            if (e->is_universal(asn1::Tag::kSequence)) ++total;
        }
    }
    return total;
}

}  // namespace

Expected<LazyCertificate> LazyCertificate::index(BytesView der, core::Arena* arena) {
    // Depth guard first: a nesting bomb must be rejected before any
    // structure-directed walk starts.
    if (Status depth = asn1::check_nesting(der); !depth.ok()) return depth.error();
    auto outer = asn1::read_tlv(der);
    if (!outer.ok()) return outer.error();
    if (!outer->is_universal(asn1::Tag::kSequence)) {
        return Error{"x509_not_sequence", "Certificate must be a SEQUENCE"};
    }

    LazyCertificate lc;
    lc.der_ = der.first(outer->total_len);

    asn1::Reader top(outer->content);

    // ---- TBSCertificate ----
    auto tbs = top.expect(asn1::Tag::kSequence);
    if (!tbs.ok()) return tbs.error();
    lc.tbs_der_ = der.subspan(outer->header_len, tbs->total_len);

    asn1::Reader r(tbs->content);

    // version [0] EXPLICIT (optional)
    auto first = r.peek();
    if (!first.ok()) return first.error();
    if (first->is_context(0) && first->is_constructed()) {
        auto vwrap = r.next();
        asn1::Reader vr(vwrap->content);
        auto v = vr.expect(asn1::Tag::kInteger);
        if (!v.ok()) return v.error();
        auto version = asn1::decode_integer(v.value());
        if (!version.ok()) return version.error();
        lc.version_ = static_cast<int>(version.value());
    } else {
        lc.version_ = 0;
    }

    // serialNumber
    auto serial = r.expect(asn1::Tag::kInteger);
    if (!serial.ok()) return serial.error();
    auto magnitude = asn1::decode_integer_magnitude(serial.value());
    if (!magnitude.ok()) return magnitude.error();
    lc.serial_ = magnitude.value();

    // signature AlgorithmIdentifier
    auto alg = r.expect(asn1::Tag::kSequence);
    if (!alg.ok()) return alg.error();
    {
        asn1::Reader ar(alg->content);
        auto oid_tlv = ar.expect(asn1::Tag::kOid);
        if (!oid_tlv.ok()) return oid_tlv.error();
        if (Status s = asn1::validate_oid_der(oid_tlv->content); !s.ok()) return s.error();
        lc.sig_alg_der_ = oid_tlv->content;
    }

    // issuer Name — validate over its raw TLV span, record the span.
    auto issuer_tlv = r.peek();
    if (!issuer_tlv.ok()) return issuer_tlv.error();
    {
        BytesView span = tbs->content.subspan(r.position(), issuer_tlv->total_len);
        if (Status s = validate_name(span); !s.ok()) return s.error();
        lc.issuer_der_ = span;
        (void)r.next();
    }

    // validity — decoded eagerly: every lint gate needs not_before.
    auto validity = r.expect(asn1::Tag::kSequence);
    if (!validity.ok()) return validity.error();
    {
        asn1::Reader vr(validity->content);
        auto nb_tlv = vr.next();
        if (!nb_tlv.ok()) return nb_tlv.error();
        auto nb = parse_time(nb_tlv.value());
        if (!nb.ok()) return nb.error();
        auto na_tlv = vr.next();
        if (!na_tlv.ok()) return na_tlv.error();
        auto na = parse_time(na_tlv.value());
        if (!na.ok()) return na.error();
        lc.validity_ = {nb.value(), na.value()};
    }

    // subject Name
    auto subject_tlv = r.peek();
    if (!subject_tlv.ok()) return subject_tlv.error();
    {
        BytesView span = tbs->content.subspan(r.position(), subject_tlv->total_len);
        if (Status s = validate_name(span); !s.ok()) return s.error();
        lc.subject_der_ = span;
        (void)r.next();
    }

    // SubjectPublicKeyInfo
    auto spki = r.expect(asn1::Tag::kSequence);
    if (!spki.ok()) return spki.error();
    {
        asn1::Reader sr(spki->content);
        auto spki_alg = sr.expect(asn1::Tag::kSequence);
        if (!spki_alg.ok()) return spki_alg.error();
        auto bit_str = sr.expect(asn1::Tag::kBitString);
        if (!bit_str.ok()) return bit_str.error();
        auto key = asn1::decode_bit_string_view(bit_str.value());
        if (!key.ok()) return key.error();
        lc.spki_key_ = key.value();
    }

    // Optional fields: issuerUniqueID [1], subjectUniqueID [2], extensions [3]
    RawExtension* arena_table = nullptr;
    size_t table_size = 0;
    size_t filled = 0;
    if (arena != nullptr) {
        table_size = count_extensions(tbs->content.subspan(r.position()));
        if (table_size > 0) arena_table = arena->alloc_array<RawExtension>(table_size);
    }
    while (!r.done()) {
        auto tlv = r.next();
        if (!tlv.ok()) return tlv.error();
        if (tlv->is_context(3) && tlv->is_constructed()) {
            asn1::Reader wrap(tlv->content);
            auto exts_seq = wrap.expect(asn1::Tag::kSequence);
            if (!exts_seq.ok()) return exts_seq.error();
            asn1::Reader er(exts_seq->content);
            while (!er.done()) {
                auto ext_tlv = er.expect(asn1::Tag::kSequence);
                if (!ext_tlv.ok()) return ext_tlv.error();
                asn1::Reader ef(ext_tlv->content);
                auto oid_tlv = ef.expect(asn1::Tag::kOid);
                if (!oid_tlv.ok()) return oid_tlv.error();
                if (Status s = asn1::validate_oid_der(oid_tlv->content); !s.ok()) {
                    return s.error();
                }

                RawExtension re;
                re.oid_der = oid_tlv->content;

                auto next = ef.next();
                if (!next.ok()) return next.error();
                if (next->is_universal(asn1::Tag::kBoolean)) {
                    auto crit = asn1::decode_boolean(next.value());
                    if (!crit.ok()) return crit.error();
                    re.critical = crit.value();
                    next = ef.next();
                    if (!next.ok()) return next.error();
                }
                if (!next->is_universal(asn1::Tag::kOctetString)) {
                    return Error{"x509_ext_not_octet_string",
                                 "extnValue must be an OCTET STRING"};
                }
                re.value = next->content;

                if (arena_table != nullptr) {
                    assert(filled < table_size);
                    new (arena_table + filled) RawExtension(re);
                } else {
                    lc.owned_exts_.push_back(re);
                }
                ++filled;
            }
        }
    }
    if (arena_table != nullptr) {
        lc.arena_exts_ = arena_table;
        lc.ext_count_ = filled;
    }

    // ---- signatureAlgorithm (outer) ----
    auto outer_alg = top.expect(asn1::Tag::kSequence);
    if (!outer_alg.ok()) return outer_alg.error();

    // ---- signatureValue ----
    auto sig = top.expect(asn1::Tag::kBitString);
    if (!sig.ok()) return sig.error();
    auto sig_view = asn1::decode_bit_string_view(sig.value());
    if (!sig_view.ok()) return sig_view.error();
    lc.signature_ = sig_view.value();

    return lc;
}

asn1::Oid LazyCertificate::signature_algorithm() const {
    return asn1::Oid::from_der(sig_alg_der_).value();
}

DistinguishedName LazyCertificate::issuer() const { return parse_name(issuer_der_).value(); }

DistinguishedName LazyCertificate::subject() const { return parse_name(subject_der_).value(); }

Extension LazyCertificate::decode_extension(const RawExtension& raw) const {
    Extension ext;
    ext.oid = asn1::Oid::from_der(raw.oid_der).value();
    ext.critical = raw.critical;
    ext.value.assign(raw.value.begin(), raw.value.end());
    return ext;
}

Certificate LazyCertificate::materialize() const {
    Certificate cert;
    cert.version = version_;
    cert.serial.assign(serial_.begin(), serial_.end());
    cert.signature_algorithm = signature_algorithm();
    cert.issuer = issuer();
    cert.validity = validity_;
    cert.subject = subject();
    cert.subject_public_key.assign(spki_key_.begin(), spki_key_.end());
    auto raws = raw_extensions();
    cert.extensions.reserve(raws.size());
    for (const RawExtension& re : raws) cert.extensions.push_back(decode_extension(re));
    cert.signature.assign(signature_.begin(), signature_.end());
    cert.tbs_der.assign(tbs_der_.begin(), tbs_der_.end());
    cert.der.assign(der_.begin(), der_.end());
    return cert;
}

}  // namespace unicert::x509
