// Tests for the synthetic corpus generator: determinism and the
// paper-derived marginals (issuer shares, NC rate, defect mixture).
#include "ctlog/corpus.h"

#include <gtest/gtest.h>

#include <map>

#include "asn1/time.h"
#include "lint/lint.h"
#include "x509/parser.h"

namespace unicert::ctlog {
namespace {

// One shared small corpus for the statistical assertions (scale 4000
// keeps the suite fast: ~9.2K certs).
const std::vector<CorpusCert>& small_corpus() {
    static const std::vector<CorpusCert> corpus = [] {
        CorpusGenerator gen({.seed = 7, .scale = 4000.0});
        return gen.generate();
    }();
    return corpus;
}

TEST(Corpus, DeterministicForSeed) {
    CorpusGenerator a({.seed = 99, .scale = 20000.0});
    CorpusGenerator b({.seed = 99, .scale = 20000.0});
    auto ca = a.generate();
    auto cb = b.generate();
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].cert.serial, cb[i].cert.serial);
        EXPECT_EQ(ca[i].issuer_org, cb[i].issuer_org);
        EXPECT_EQ(ca[i].year, cb[i].year);
    }
}

TEST(Corpus, DifferentSeedsDiffer) {
    CorpusGenerator a({.seed = 1, .scale = 20000.0});
    CorpusGenerator b({.seed = 2, .scale = 20000.0});
    auto ca = a.generate();
    auto cb = b.generate();
    size_t diff = 0;
    for (size_t i = 0; i < std::min(ca.size(), cb.size()); ++i) {
        if (ca[i].issuer_org != cb[i].issuer_org) ++diff;
    }
    EXPECT_GT(diff, 0u);
}

TEST(Corpus, SizeMatchesScale) {
    CorpusGenerator gen({.seed = 5, .scale = 10000.0});
    auto corpus = gen.generate();
    // target + variants + 4 pinned rare certs
    EXPECT_GE(corpus.size(), gen.target_count());
    EXPECT_LT(corpus.size(), gen.target_count() + gen.target_count() / 50 + 8);
}

TEST(Corpus, IssuerOligopolyShape) {
    std::map<std::string, size_t> by_issuer;
    for (const CorpusCert& c : small_corpus()) ++by_issuer[c.issuer_org];
    // Let's Encrypt dominates (68% of weight).
    EXPECT_GT(by_issuer["Let's Encrypt"], small_corpus().size() / 2);
    // Top-3 (LE + COMODO + cPanel) ≈ 89% in the paper.
    double top3 = static_cast<double>(by_issuer["Let's Encrypt"] +
                                      by_issuer["COMODO CA Limited"] + by_issuer["cPanel, Inc."]) /
                  static_cast<double>(small_corpus().size());
    EXPECT_GT(top3, 0.80);
    EXPECT_LT(top3, 0.95);
}

TEST(Corpus, TrustedShareIsHigh) {
    // Paper (footnote 3 semantics): 90.1% of Unicerts were issued by
    // CAs trusted at issuance time.
    size_t trusted = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (c.trusted_at_issuance) ++trusted;
    }
    double share = static_cast<double>(trusted) / small_corpus().size();
    EXPECT_GT(share, 0.85);
    EXPECT_LT(share, 0.97);
}

TEST(Corpus, NoncompliantTrustedShareNearPaper) {
    // Table 1: 65.3% of noncompliant Unicerts came from publicly
    // trusted CAs.
    size_t nc = 0, nc_trusted = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (!c.defect) continue;
        ++nc;
        if (c.trusted_at_issuance) ++nc_trusted;
    }
    ASSERT_GT(nc, 20u);
    double share = static_cast<double>(nc_trusted) / nc;
    EXPECT_GT(share, 0.45);
    EXPECT_LT(share, 0.90);
}

TEST(Corpus, NoncomplianceRateNearPaper) {
    size_t nc = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (c.defect) ++nc;
    }
    double rate = static_cast<double>(nc) / small_corpus().size();
    // Paper: 0.72%. Allow sampling slack at this scale.
    EXPECT_GT(rate, 0.003);
    EXPECT_LT(rate, 0.015);
}

TEST(Corpus, PinnedRareDefectsPresent) {
    size_t nfc = 0, extra_cn = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (c.defect == DefectKind::kIdnNotNfc) ++nfc;
        if (c.defect == DefectKind::kExtraCn) ++extra_cn;
    }
    EXPECT_GE(nfc, 3u);   // the paper's 3 T2 certs are pinned
    EXPECT_GE(extra_cn, 1u);
}

TEST(Corpus, YearsRespectIssuerWindows) {
    for (const CorpusCert& c : small_corpus()) {
        EXPECT_GE(c.year, 2013);
        EXPECT_LE(c.year, 2025);
        if (c.issuer_org == "Let's Encrypt") {
            EXPECT_GE(c.year, 2015);
        }
        if (c.issuer_org == "Symantec Corporation") {
            EXPECT_LE(c.year, 2017);
        }
        if (c.issuer_org == "ZeroSSL") {
            EXPECT_GE(c.year, 2020);
        }
        // notBefore lands inside the attributed year.
        int y = asn1::unix_to_civil(c.cert.validity.not_before).year;
        EXPECT_EQ(y, c.year) << c.issuer_org;
    }
}

TEST(Corpus, IssuanceTrendsUpward) {
    std::map<int, size_t> by_year;
    for (const CorpusCert& c : small_corpus()) ++by_year[c.year];
    // Figure 2's shape: later years dominate.
    EXPECT_GT(by_year[2024], by_year[2016]);
    EXPECT_GT(by_year[2020], by_year[2014]);
}

TEST(Corpus, IdnCertsPresentAndMostlyShortLived) {
    size_t idn = 0, idn_90day = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (!c.is_idn_cert) continue;
        ++idn;
        if (c.cert.validity.lifetime_days() <= 90) ++idn_90day;
    }
    ASSERT_GT(idn, 100u);
    // Figure 3: 89.6% of IDNCerts follow the 90-day trend.
    double share = static_cast<double>(idn_90day) / idn;
    EXPECT_GT(share, 0.80);
}

TEST(Corpus, NoncompliantCertsLiveLonger) {
    double nc_total = 0, nc_days = 0, ok_total = 0, ok_days = 0;
    for (const CorpusCert& c : small_corpus()) {
        double days = static_cast<double>(c.cert.validity.lifetime_days());
        if (c.defect) {
            nc_total += 1;
            nc_days += days;
        } else {
            ok_total += 1;
            ok_days += days;
        }
    }
    ASSERT_GT(nc_total, 0);
    EXPECT_GT(nc_days / nc_total, ok_days / ok_total);
}

TEST(Corpus, InjectedDefectsFireTheirExpectedLints) {
    size_t checked = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (!c.defect) continue;
        const DefectSpec* spec = nullptr;
        for (const DefectSpec& s : defect_specs()) {
            if (s.kind == *c.defect) spec = &s;
        }
        ASSERT_NE(spec, nullptr);
        lint::CertReport report = lint::run_lints(c.cert);
        EXPECT_TRUE(report.has_lint(spec->expected_lint))
            << "defect in " << c.issuer_org << " (year " << c.year
            << ") did not fire " << spec->expected_lint;
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST(Corpus, SignedDerParsesBackToInMemoryCert) {
    // Every wire-form consumer (DER census, CT log) must see the same
    // certificate the in-memory corpus holds, Table 3 variants included.
    CorpusGenerator gen({.seed = 7, .scale = 4000.0, .sign_certificates = true});
    size_t checked = 0;
    for (const CorpusCert& c : gen.generate()) {
        auto parsed = x509::parse_certificate(c.cert.der);
        ASSERT_TRUE(parsed.ok()) << parsed.error().message;
        // DER carries the serial in minimal form.
        x509::Certificate expected = c.cert;
        while (expected.serial.size() > 1 && expected.serial.front() == 0) {
            expected.serial.erase(expected.serial.begin());
        }
        EXPECT_TRUE(parsed.value() == expected) << "cert " << checked << " of " << c.issuer_org;
        ++checked;
    }
    EXPECT_GT(checked, 9000u);
}

TEST(Corpus, LatentDefectsOnlyCountWhenDatesIgnored) {
    size_t latent_checked = 0;
    for (const CorpusCert& c : small_corpus()) {
        if (!c.has_latent_defect || latent_checked >= 25) continue;
        lint::CertReport strict = lint::run_lints(c.cert);
        lint::CertReport loose =
            lint::run_lints(c.cert, lint::default_registry(), {.respect_effective_dates = false});
        EXPECT_FALSE(strict.noncompliant()) << c.year;
        EXPECT_TRUE(loose.noncompliant()) << c.year;
        ++latent_checked;
    }
    EXPECT_GT(latent_checked, 5u);
}

TEST(Corpus, IdnOnlyIssuersGetOnlyIdnDefects) {
    for (const CorpusCert& c : small_corpus()) {
        if (!c.defect || c.issuer_org != "Let's Encrypt") continue;
        const DefectSpec* spec = nullptr;
        for (const DefectSpec& s : defect_specs()) {
            if (s.kind == *c.defect) spec = &s;
        }
        ASSERT_NE(spec, nullptr);
        EXPECT_TRUE(spec->idn_defect) << spec->expected_lint;
    }
}

TEST(Corpus, SpecTablesExposed) {
    EXPECT_EQ(defect_specs().size(), 26u);
    EXPECT_GE(issuer_specs().size(), 15u);
    double weight_sum = 0;
    for (const IssuerSpec& s : issuer_specs()) weight_sum += s.unicert_weight;
    // ~34.8M Unicerts expressed in thousands.
    EXPECT_GT(weight_sum, 30000.0);
    EXPECT_LT(weight_sum, 45000.0);
}

TEST(Rng, DeterministicAndRoughlyUniform) {
    Rng rng(123);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 10000; ++i) ++counts[rng.below(10)];
    for (const auto& [bucket, count] : counts) {
        EXPECT_GT(count, 800) << bucket;
        EXPECT_LT(count, 1200) << bucket;
    }
    Rng again(123);
    Rng other(124);
    EXPECT_EQ(Rng(123).next(), again.next());
    EXPECT_NE(Rng(123).next(), other.next());
}

TEST(Rng, PickWeightedFollowsWeights) {
    Rng rng(55);
    double weights[] = {9.0, 1.0};
    int first = 0;
    for (int i = 0; i < 10000; ++i) {
        if (rng.pick_weighted(weights) == 0) ++first;
    }
    EXPECT_GT(first, 8500);
    EXPECT_LT(first, 9500);
}

}  // namespace
}  // namespace unicert::ctlog
