// Property tests for the scenario engine's statistics (Wilson score
// intervals with quarantine-conservative widening) and for the
// checksummed `unicert-scenario-v1` state serialization.
#include <gtest/gtest.h>

#include <string>

#include "threat/scenario/state.h"
#include "threat/scenario/stats.h"
#include "threat/scenario/traffic.h"
#include "x509/builder.h"

namespace unicert::threat::scenario {
namespace {

// ---- Wilson intervals ----

TEST(ScenarioStats, WilsonIntervalBasics) {
    // Degenerate: no trials means total ignorance.
    EXPECT_DOUBLE_EQ(wilson_low(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(wilson_high(0, 0), 1.0);

    // The interval always brackets the point estimate and [0,1].
    for (uint64_t n : {1u, 5u, 20u, 1000u}) {
        for (uint64_t s = 0; s <= n; s += std::max<uint64_t>(1, n / 7)) {
            double p = static_cast<double>(s) / static_cast<double>(n);
            double low = wilson_low(s, n);
            double high = wilson_high(s, n);
            EXPECT_GE(low, 0.0);
            EXPECT_LE(high, 1.0);
            EXPECT_LE(low, p + 1e-12) << s << "/" << n;
            EXPECT_GE(high, p - 1e-12) << s << "/" << n;
            EXPECT_LT(low, high) << s << "/" << n;
        }
    }

    // More data shrinks the interval at fixed rate.
    double narrow = wilson_high(500, 1000) - wilson_low(500, 1000);
    double wide = wilson_high(5, 10) - wilson_low(5, 10);
    EXPECT_LT(narrow, wide);
}

TEST(ScenarioStats, QuarantineWidensNotShifts) {
    RateEstimate clean = estimate_rate(30, 100, 0);
    RateEstimate dropped = estimate_rate(30, 100, 10);

    // The point estimate ignores quarantined users entirely...
    EXPECT_DOUBLE_EQ(clean.rate, dropped.rate);
    // ...but the interval must widen in both directions: a dropped
    // user could have been either outcome.
    EXPECT_LT(dropped.ci_low, clean.ci_low);
    EXPECT_GT(dropped.ci_high, clean.ci_high);
    // And the truth under either extreme stays inside the bounds.
    EXPECT_LE(dropped.ci_low, 30.0 / 110.0 + 1e-12);
    EXPECT_GE(dropped.ci_high, 40.0 / 110.0 - 1e-12);
    EXPECT_EQ(dropped.quarantined, 10u);
}

// ---- state serialization ----

ScenarioState sample_state() {
    ScenarioState state;
    state.seed = 7;
    state.dose_ppm = 12500;
    state.caa_ppm = 55000;
    state.next_user = 4096;
    state.shards_done = 32;
    state.evaluated = 4090;
    state.quarantined = 6;
    state.tallies["users_benign"] = 4000;
    state.tallies["users_adversarial"] = 90;
    state.tallies["monitor_any_surfaced"] = 55;
    state.tallies["technique_bidi_spoof"] = 11;
    return state;
}

TEST(ScenarioState, RoundTripsExactly) {
    ScenarioState state = sample_state();
    std::string text = serialize_state(state);
    auto parsed = parse_state(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(*parsed, state);
    // Deterministic bytes: serialize(parse(serialize(x))) == serialize(x).
    EXPECT_EQ(serialize_state(*parsed), text);
}

TEST(ScenarioState, TornTailIsTruncatedError) {
    std::string text = serialize_state(sample_state());
    // Every strict prefix must fail closed — never parse as an older
    // but "valid looking" state.
    for (size_t cut : {text.size() - 1, text.size() - 17, text.size() / 2, size_t{7}}) {
        auto parsed = parse_state(text.substr(0, cut));
        ASSERT_FALSE(parsed.ok()) << "cut=" << cut;
        EXPECT_TRUE(parsed.error().code == "scenario_truncated" ||
                    parsed.error().code == "scenario_checksum" ||
                    parsed.error().code == "scenario_bad_magic")
            << "cut=" << cut << ": " << parsed.error().code;
    }
}

TEST(ScenarioState, BitFlipIsChecksumError) {
    std::string text = serialize_state(sample_state());
    for (size_t pos : {size_t{25}, text.size() / 2, text.size() - 70}) {
        std::string rotted = text;
        rotted[pos] ^= 0x01;
        auto parsed = parse_state(rotted);
        ASSERT_FALSE(parsed.ok()) << "pos=" << pos;
    }
}

TEST(ScenarioState, WrongMagicRejected) {
    std::string text = serialize_state(sample_state());
    ASSERT_EQ(text.compare(0, kScenarioMagic.size(), kScenarioMagic), 0);
    text[0] ^= 0x20;  // damage the magic line
    auto parsed = parse_state(text);
    ASSERT_FALSE(parsed.ok());
}

// ---- traffic model purity ----

// The whole crash-survivability story rests on handshakes being pure
// functions of (seed, user_index): same inputs, same sample, across
// any call ordering.
TEST(ScenarioTraffic, HandshakesArePureFunctions) {
    TrafficModel model = resolved(TrafficModel{.seed = 13, .dose = 0.1, .victims = {}});
    for (uint64_t user : {0ull, 1ull, 999ull, 123456789ull}) {
        HandshakeSample a = synthesize_handshake(model, user);
        HandshakeSample b = synthesize_handshake(model, user);
        EXPECT_EQ(a.adversarial, b.adversarial) << user;
        EXPECT_EQ(a.victim, b.victim) << user;
        EXPECT_EQ(a.issuer, b.issuer) << user;
        EXPECT_EQ(static_cast<int>(a.technique), static_cast<int>(b.technique)) << user;
    }
    // And the dose knob actually selects adversarial users.
    TrafficModel zero = resolved(TrafficModel{.seed = 13, .dose = 0.0, .victims = {}});
    TrafficModel full = resolved(TrafficModel{.seed = 13, .dose = 1.0, .victims = {}});
    for (uint64_t user = 0; user < 200; ++user) {
        EXPECT_FALSE(synthesize_handshake(zero, user).adversarial);
        EXPECT_TRUE(synthesize_handshake(full, user).adversarial);
    }
}

TEST(ScenarioTraffic, CraftedCertsAreDeterministic) {
    for (AttackTechnique technique : kAllTechniques) {
        x509::Certificate a = craft_attack_cert("paypal.com", technique);
        x509::Certificate b = craft_attack_cert("paypal.com", technique);
        x509::sign_certificate(a, compromised_ca());
        x509::sign_certificate(b, compromised_ca());
        EXPECT_EQ(a.der, b.der) << technique_name(technique);
    }
}

}  // namespace
}  // namespace unicert::threat::scenario
