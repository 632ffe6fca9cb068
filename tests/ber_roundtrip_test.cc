// Seeded round-trip property: for every corpus certificate and every
// BER-izing DerMutator transform, the mutated document scans as
// exercising exactly that rule's family and normalizes back to the
// original DER byte-for-byte. This is the semantics-preservation
// contract the EncodingAnalyzer's ground-truth masks rest on.
#include <gtest/gtest.h>

#include <array>

#include "asn1/encoding.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "faultsim/der_mutator.h"
#include "x509/builder.h"

namespace unicert {
namespace {

using asn1::EncodingRule;

std::vector<Bytes> corpus_ders(uint64_t seed, double scale) {
    ctlog::CorpusOptions copts;
    copts.seed = seed;
    copts.scale = scale;
    ctlog::CorpusGenerator gen(copts);
    crypto::SimSigner signer = crypto::SimSigner::from_name("RoundTrip CA");
    std::vector<Bytes> ders;
    std::vector<ctlog::CorpusCert> corpus = gen.generate();
    for (ctlog::CorpusCert& cc : corpus) {
        ders.push_back(x509::sign_certificate(cc.cert, signer));
    }
    // Generated keyUsage values always have zero unused bits, so the
    // padded-bit-string transform needs this carrier: a keyUsage BIT
    // STRING with 5 spare (zero) pad bits for berize to dirty.
    if (!corpus.empty()) {
        x509::Certificate padded = corpus.front().cert;
        padded.extensions.push_back(
            x509::Extension{asn1::oids::key_usage(), true, Bytes{0x03, 0x02, 0x05, 0xA0}});
        ders.push_back(x509::sign_certificate(padded, signer));
    }
    return ders;
}

TEST(BerRoundTrip, EveryRuleEveryCertEverySalt) {
    const std::vector<Bytes> ders = corpus_ders(7, 2000000.0);  // ~18 certs
    ASSERT_FALSE(ders.empty());
    faultsim::DerMutator mutator(7);

    std::array<size_t, asn1::kEncodingRuleCount> applied{};
    for (const Bytes& der : ders) {
        ASSERT_TRUE(asn1::scan_encoding(der, asn1::kToleranceAllBer).ok());
        for (EncodingRule rule : asn1::kAllBerRules) {
            for (uint64_t salt = 0; salt < 3; ++salt) {
                auto mutated = mutator.berize(rule, der, salt);
                if (!mutated) continue;  // no eligible TLV in this cert
                applied[static_cast<size_t>(rule)]++;

                auto scan = asn1::scan_encoding(*mutated, asn1::kToleranceAllBer);
                ASSERT_TRUE(scan.ok()) << asn1::encoding_rule_name(rule);
                EXPECT_TRUE(scan->exercised(rule)) << asn1::encoding_rule_name(rule);
                // Strict DER must refuse the mutant outright.
                EXPECT_FALSE(asn1::scan_encoding(*mutated, asn1::kToleranceStrictDer).ok());

                auto norm = asn1::normalize_to_der(*mutated, asn1::kToleranceAllBer);
                ASSERT_TRUE(norm.ok()) << asn1::encoding_rule_name(rule);
                EXPECT_EQ(norm->der, der)
                    << asn1::encoding_rule_name(rule) << " salt " << salt
                    << ": normalization did not recover the original DER";
            }
        }
    }
    // The property is vacuous for any rule no certificate could carry.
    for (EncodingRule rule : asn1::kAllBerRules) {
        EXPECT_GT(applied[static_cast<size_t>(rule)], 0u)
            << asn1::encoding_rule_name(rule) << " was never applied";
    }
}

TEST(BerRoundTrip, BerizeIsDeterministic) {
    const std::vector<Bytes> ders = corpus_ders(11, 8000000.0);  // a handful
    ASSERT_FALSE(ders.empty());
    faultsim::DerMutator a(99);
    faultsim::DerMutator b(99);
    faultsim::DerMutator other(100);
    bool any_seed_divergence = false;
    for (const Bytes& der : ders) {
        for (EncodingRule rule : asn1::kAllBerRules) {
            auto m1 = a.berize(rule, der, 5);
            auto m2 = b.berize(rule, der, 5);
            ASSERT_EQ(m1.has_value(), m2.has_value());
            if (m1) {
                EXPECT_EQ(*m1, *m2);
            }
            auto m3 = other.berize(rule, der, 5);
            if (m1 && m3 && *m1 != *m3) any_seed_divergence = true;
        }
    }
    EXPECT_TRUE(any_seed_divergence) << "seed does not influence berize placement";
}

TEST(BerRoundTrip, BerizeRefusesNonDer) {
    faultsim::DerMutator mutator(1);
    Bytes already_ber = {0x04, 0x81, 0x03, 'a', 'b', 'c'};
    EXPECT_FALSE(mutator.berize(EncodingRule::kLongFormLength, already_ber, 0).has_value());
    Bytes garbage = {0xFF, 0x00, 0xAB};
    EXPECT_FALSE(mutator.berize(EncodingRule::kIndefiniteLength, garbage, 0).has_value());
}

}  // namespace
}  // namespace unicert
