// LazyCertificate: the zero-copy index must accept exactly what
// parse_certificate accepts, record spans that alias the input buffer,
// materialize byte-identically, and reuse arena memory across scopes.
// (Cross-corpus equivalence with the retained legacy parser lives in
// parse_parity_test.cc; these are the focused unit tests.)
#include "x509/lazy.h"

#include <gtest/gtest.h>

#include "asn1/der.h"
#include "asn1/time.h"
#include "core/arena.h"
#include "x509/builder.h"
#include "x509/parser.h"

namespace {

using namespace unicert;
namespace oids = asn1::oids;

x509::Certificate sample_cert() {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x01, 0x02, 0x03, 0x04};
    cert.issuer = x509::make_dn({
        x509::make_attribute(oids::country_name(), "US", asn1::StringType::kPrintableString),
        x509::make_attribute(oids::organization_name(), "Lazy CA"),
        x509::make_attribute(oids::common_name(), "Lazy CA R1"),
    });
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::organization_name(), "Škoda Díly s.r.o."),
        x509::make_attribute(oids::common_name(), "example.com"),
    });
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name("lazy-test").public_key();
    cert.extensions.push_back(x509::make_san({
        x509::dns_name("example.com"),
        x509::dns_name("xn--mnchen-3ya.example"),
    }));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Lazy CA");
    x509::sign_certificate(cert, ca);
    return cert;
}

// Is `view` a subrange of `buffer` (i.e. borrowed, not copied)?
bool aliases(BytesView view, BytesView buffer) {
    if (view.empty()) return true;
    return view.data() >= buffer.data() && view.data() + view.size() <= buffer.data() + buffer.size();
}

TEST(LazyCertificate, MaterializeEqualsOwningParse) {
    Bytes der = sample_cert().der;
    auto owned = x509::parse_certificate(der);
    ASSERT_TRUE(owned.ok());
    auto lazy = x509::LazyCertificate::index(der);
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->materialize(), owned.value());
}

TEST(LazyCertificate, SpansAliasTheInputBuffer) {
    Bytes der = sample_cert().der;
    auto lazy = x509::LazyCertificate::index(der);
    ASSERT_TRUE(lazy.ok());
    EXPECT_TRUE(aliases(lazy->der(), der));
    EXPECT_TRUE(aliases(lazy->tbs_der(), der));
    EXPECT_TRUE(aliases(lazy->serial(), der));
    EXPECT_TRUE(aliases(lazy->signature_algorithm_der(), der));
    EXPECT_TRUE(aliases(lazy->issuer_der(), der));
    EXPECT_TRUE(aliases(lazy->subject_der(), der));
    EXPECT_TRUE(aliases(lazy->subject_public_key(), der));
    EXPECT_TRUE(aliases(lazy->signature(), der));
    for (const auto& ext : lazy->raw_extensions()) {
        EXPECT_TRUE(aliases(ext.oid_der, der));
        EXPECT_TRUE(aliases(ext.value, der));
    }
}

TEST(LazyCertificate, ViewsSeeBufferMutations) {
    // Proof of borrowing: flipping a serial byte in the buffer is
    // visible through the already-built index.
    Bytes der = sample_cert().der;
    auto lazy = x509::LazyCertificate::index(der);
    ASSERT_TRUE(lazy.ok());
    ASSERT_FALSE(lazy->serial().empty());
    size_t offset = static_cast<size_t>(lazy->serial().data() - der.data());
    uint8_t before = lazy->serial()[0];
    der[offset] ^= 0xFF;
    EXPECT_EQ(lazy->serial()[0], static_cast<uint8_t>(before ^ 0xFF));
}

TEST(LazyCertificate, EagerFieldsAndProbes) {
    x509::Certificate cert = sample_cert();
    auto lazy = x509::LazyCertificate::index(cert.der);
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->version(), cert.version);
    EXPECT_EQ(lazy->validity(), cert.validity);
    EXPECT_EQ(lazy->signature_algorithm(), cert.signature_algorithm);
    EXPECT_EQ(lazy->issuer(), cert.issuer);
    EXPECT_EQ(lazy->subject(), cert.subject);
    // The raw extension table holds exactly the owned extensions: the
    // sample cert's one SAN, so no basicConstraints.
    auto raws = lazy->raw_extensions();
    ASSERT_EQ(raws.size(), 1u);
    x509::Extension san = lazy->decode_extension(raws[0]);
    EXPECT_EQ(san.oid, oids::subject_alt_name());
    EXPECT_EQ(san, *cert.find_extension(oids::subject_alt_name()));
}

TEST(LazyCertificate, ArenaBackedExtensionsAndScopeReuse) {
    Bytes der = sample_cert().der;
    core::Arena arena;
    {
        core::ArenaScope scope(arena);
        auto lazy = x509::LazyCertificate::index(der, &arena);
        ASSERT_TRUE(lazy.ok());
        ASSERT_EQ(lazy->raw_extensions().size(), 1u);
        EXPECT_EQ(asn1::Oid::from_der(lazy->raw_extensions()[0].oid_der).value(),
                  oids::subject_alt_name());
    }
    size_t warm_capacity;
    {
        core::ArenaScope scope(arena);
        auto lazy = x509::LazyCertificate::index(der, &arena);
        ASSERT_TRUE(lazy.ok());
        warm_capacity = arena.capacity();
    }
    // Steady state: further scoped indexes must not grow the arena.
    for (int i = 0; i < 100; ++i) {
        core::ArenaScope scope(arena);
        auto lazy = x509::LazyCertificate::index(der, &arena);
        ASSERT_TRUE(lazy.ok());
        EXPECT_EQ(lazy->materialize().der, der);
    }
    EXPECT_EQ(arena.capacity(), warm_capacity);
}

TEST(LazyCertificate, TruncationErrorsMatchOwningParse) {
    Bytes der = sample_cert().der;
    for (size_t len : {size_t{0}, size_t{1}, size_t{5}, size_t{17}, der.size() / 2, der.size() - 1}) {
        BytesView prefix{der.data(), len};
        auto owned = x509::parse_certificate(prefix);
        auto lazy = x509::LazyCertificate::index(prefix);
        ASSERT_FALSE(owned.ok()) << "len " << len;
        ASSERT_FALSE(lazy.ok()) << "len " << len;
        EXPECT_EQ(lazy.error().code, owned.error().code) << "len " << len;
        EXPECT_EQ(lazy.error().message, owned.error().message) << "len " << len;
        EXPECT_EQ(lazy.error().offset, owned.error().offset) << "len " << len;
    }
}

// Regression: decode_integer on an 8-byte negative INTEGER used to
// shift into the sign bit (UB); INT64_MIN must round-trip.
TEST(DerInteger, Int64MinRoundTrips) {
    asn1::Writer w;
    w.add_integer(std::numeric_limits<int64_t>::min());
    auto tlv = asn1::read_tlv(w.bytes());
    ASSERT_TRUE(tlv.ok());
    auto v = asn1::decode_integer(tlv.value());
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), std::numeric_limits<int64_t>::min());
}

TEST(DerInteger, MagnitudeViewMatchesOwnedDecode) {
    for (Bytes content : {Bytes{0x00}, Bytes{0x00, 0x80}, Bytes{0x7F}, Bytes{0x01, 0x02, 0x03}}) {
        asn1::Writer w;
        w.add_tlv(0x02, content);
        auto tlv = asn1::read_tlv(w.bytes());
        ASSERT_TRUE(tlv.ok());
        auto owned = asn1::decode_integer_bytes(tlv.value());
        auto view = asn1::decode_integer_magnitude(tlv.value());
        ASSERT_TRUE(owned.ok());
        ASSERT_TRUE(view.ok());
        EXPECT_EQ(Bytes(view->begin(), view->end()), owned.value());
    }
}

TEST(DerWriter, StringOverloadsAgree) {
    // Regression: the string_view overload of add_string used to make
    // an intermediate owned copy; both overloads must emit identical
    // DER (and still do, without the copy).
    asn1::Writer a;
    asn1::Writer b;
    Bytes raw = {'a', 'b', 'c'};
    a.add_string(asn1::Tag::kUtf8String, BytesView{raw});
    b.add_string(asn1::Tag::kUtf8String, std::string_view{"abc"});
    EXPECT_EQ(a.bytes(), b.bytes());
}

}  // namespace
