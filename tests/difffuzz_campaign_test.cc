// Tests for the feedback-guided campaign engine: state serialization
// self-checking, job-count parity, checkpoint-boundary resume parity
// (the property test: kill at every boundary, resume, and the final
// buckets and corpus are identical to an uninterrupted run), stop
// conditions, and worker supervision. The generation store it commits
// through is tested in core_generation_store_test.cc.
#include "difffuzz/campaign/campaign.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "difffuzz/campaign/state.h"

namespace unicert::difffuzz::campaign {
namespace {

CampaignState sample_state() {
    CampaignState s;
    s.seed = 42;
    s.next_salt = 96;
    s.batches_done = 6;
    s.evals = 850;
    s.failures = 17;
    s.quarantined = 2;
    SeedEntry a{0, 16, 3, 40, {0x30, 0x03, 0x0C, 0x01, 'x'}};
    SeedEntry b{7, 128, 1, 4, {0x1E, 0x02, 0x00, 't'}};
    s.corpus = {a, b};
    s.buckets = {"golang_crypto.crash.0011223344556677", "forge.divergence.8899aabbccddeeff"};
    return s;
}

// ---- state format ---------------------------------------------------------

TEST(CampaignState, SerializeParseRoundTrip) {
    CampaignState s = sample_state();
    auto parsed = parse_state(serialize_state(s));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(*parsed, s);
}

TEST(CampaignState, SerializationIsDeterministic) {
    EXPECT_EQ(serialize_state(sample_state()), serialize_state(sample_state()));
}

TEST(CampaignState, ChecksumCatchesBitRot) {
    std::string text = serialize_state(sample_state());
    std::string flipped = text;
    flipped[text.find("next_salt: ") + 11] ^= 0x01;  // 96 -> 97, say
    auto parsed = parse_state(flipped);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, "campaign_checksum");
}

TEST(CampaignState, TornTailIsDetected) {
    std::string text = serialize_state(sample_state());
    // Any prefix that loses part of the checksum trailer is truncated,
    // never silently accepted.
    for (size_t cut : {text.size() - 1, text.size() - 20, text.size() / 2}) {
        auto parsed = parse_state(text.substr(0, cut));
        ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
        EXPECT_TRUE(parsed.error().code == "campaign_truncated" ||
                    parsed.error().code == "campaign_checksum")
            << parsed.error().code;
    }
}

TEST(CampaignState, RejectsWrongMagic) {
    auto parsed = parse_state("unicert-crash-v1\nseed: 1\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, "campaign_bad_magic");
}

// ---- campaign runs --------------------------------------------------------

CampaignOptions small_options(uint64_t seed, size_t jobs, uint64_t max_evals) {
    CampaignOptions o;
    o.seed = seed;
    o.jobs = jobs;
    o.batch_size = 8;
    o.checkpoint_every = 2;
    o.max_evals = max_evals;
    return o;
}

// Run a fresh campaign to completion over a MemFs; returns the final
// serialized state (the byte-equivalence currency of the parity tests).
std::string run_to_completion(const CampaignOptions& options, core::MemFs& fs,
                              CampaignState* out_state = nullptr) {
    CrashCorpus corpus("camp/corpus", &fs);
    Campaign campaign(options, corpus, fs, "camp");
    EXPECT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    EXPECT_TRUE(report.io.ok()) << report.io.error().message;
    EXPECT_TRUE(report.stopped_by_evals);
    if (out_state != nullptr) *out_state = campaign.state();
    return serialize_state(campaign.state());
}

TEST(Campaign, FindsBucketsAndPromotesMutants) {
    core::MemFs fs;
    CampaignState state;
    run_to_completion(small_options(7, 1, 96), fs, &state);
    EXPECT_EQ(state.next_salt, 96u);
    EXPECT_GT(state.buckets.size(), 0u);
    // Feedback loop engaged: at least one mutant was promoted past the
    // five structural seeds.
    EXPECT_GT(state.corpus.size(), 5u);
    // Every bucket landed in the on-disk corpus.
    CrashCorpus reloaded("camp/corpus", &fs);
    LoadReport load;
    ASSERT_TRUE(reloaded.load(&load).ok());
    EXPECT_EQ(load.skipped, 0u);
    EXPECT_EQ(reloaded.size(), state.buckets.size());
    for (const auto& [key, entry] : reloaded.entries()) {
        EXPECT_TRUE(state.buckets.count(key)) << key;
    }
}

TEST(Campaign, StateIsByteIdenticalAtAnyJobCount) {
    core::MemFs fs1;
    std::string reference = run_to_completion(small_options(11, 1, 64), fs1);
    for (size_t jobs : {2u, 4u}) {
        core::MemFs fsn;
        EXPECT_EQ(run_to_completion(small_options(11, jobs, 64), fsn), reference)
            << "jobs=" << jobs;
    }
}

// The satellite property test: for every checkpoint boundary, kill the
// campaign there (model: stop via max_evals), resume, and the final
// bucket set and corpus contents equal the uninterrupted run's — for
// multiple seeds and jobs in {1, 2, 4}.
TEST(Campaign, ResumeFromEveryCheckpointBoundaryMatchesUninterruptedRun) {
    constexpr uint64_t kTotal = 64;
    for (uint64_t seed : {3u, 11u}) {
        for (size_t jobs : {1u, 2u, 4u}) {
            core::MemFs reference_fs;
            std::string reference =
                run_to_completion(small_options(seed, jobs, kTotal), reference_fs);
            // Boundaries fall every batch_size * checkpoint_every = 16
            // inputs; gen 0 is the fresh-start commit.
            for (uint64_t boundary = 0; boundary < kTotal; boundary += 16) {
                core::MemFs fs;
                CrashCorpus corpus("camp/corpus", &fs);
                CampaignOptions first = small_options(seed, jobs, kTotal);
                first.max_evals = boundary;
                if (boundary == 0) {
                    Campaign campaign(first, corpus, fs, "camp");
                    ASSERT_TRUE(campaign.start_fresh().ok());
                } else {
                    Campaign campaign(first, corpus, fs, "camp");
                    ASSERT_TRUE(campaign.start_fresh().ok());
                    CampaignReport report = campaign.run();
                    ASSERT_TRUE(report.io.ok());
                }

                // "Reboot": fresh objects, recover from disk, finish.
                CrashCorpus corpus2("camp/corpus", &fs);
                Campaign resumed(small_options(seed, jobs, kTotal), corpus2, fs, "camp");
                auto recovered = resumed.resume();
                ASSERT_TRUE(recovered.ok()) << recovered.error().message;
                ASSERT_TRUE(corpus2.load().ok());
                CampaignReport report = resumed.run();
                ASSERT_TRUE(report.io.ok());
                EXPECT_EQ(serialize_state(resumed.state()), reference)
                    << "seed " << seed << " jobs " << jobs << " boundary " << boundary;
            }
        }
    }
}

TEST(Campaign, RefusesToRunWithoutAStopCondition) {
    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    CampaignOptions options = small_options(1, 1, /*max_evals=*/0);
    Campaign campaign(options, corpus, fs, "camp");
    ASSERT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    ASSERT_FALSE(report.io.ok());
    EXPECT_EQ(report.io.error().code, "campaign_no_stop_condition");
}

TEST(Campaign, ResumeWithoutACheckpointIsAnError) {
    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    Campaign campaign(small_options(1, 1, 8), corpus, fs, "camp");
    auto recovered = campaign.resume();
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.error().code, "campaign_no_checkpoint");
}

TEST(Campaign, MaxEvalsStopsAtTheExactCumulativeCount) {
    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    CampaignOptions options = small_options(5, 1, /*max_evals=*/21);  // not a batch multiple
    Campaign campaign(options, corpus, fs, "camp");
    ASSERT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    ASSERT_TRUE(report.io.ok());
    EXPECT_TRUE(report.stopped_by_evals);
    EXPECT_EQ(campaign.state().next_salt, 21u);
    EXPECT_EQ(report.inputs, 21u);
}

// A clock whose time advances a fixed step on every now_ms() read, so
// wall-budget code paths can be driven without real sleeping.
// (ManualClock only moves on sleep_ms, which a healthy campaign never
// calls.)
class TickingClock final : public core::Clock {
public:
    explicit TickingClock(int64_t step_ms) : step_ms_(step_ms) {}
    int64_t now_ms() override { return now_ += step_ms_; }
    void sleep_ms(int64_t ms) override { now_ += ms; }

private:
    int64_t step_ms_;
    // Atomic: the campaign's worker and the main thread both read it.
    std::atomic<int64_t> now_{0};
};

TEST(Campaign, MaxWallMsStopsTheRun) {
    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    CampaignOptions options = small_options(5, 1, /*max_evals=*/0);
    options.max_wall_ms = 50;
    TickingClock clock(10);  // every loop-condition read costs 10 "ms"
    Campaign campaign(options, corpus, fs, "camp", tlslib::builtin_model(), clock);
    ASSERT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    ASSERT_TRUE(report.io.ok());
    EXPECT_TRUE(report.stopped_by_wall);
    EXPECT_FALSE(report.stopped_by_evals);
    // Bounded: a handful of batches at most, not an unbounded spin.
    EXPECT_GT(report.inputs, 0u);
    EXPECT_LE(campaign.state().batches_done, 10u);
    // The stop still committed a final generation.
    EXPECT_EQ(campaign.store().last_committed(),
              std::optional<uint64_t>(campaign.state().batches_done));
}

// ---- worker supervision ---------------------------------------------------

TEST(Campaign, TransientWorkerFlakesAreRetriedTransparently) {
    core::MemFs clean_fs;
    std::string reference = run_to_completion(small_options(13, 2, 48), clean_fs);

    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    CampaignOptions options = small_options(13, 2, 48);
    options.flake_rate = 0.2;   // transient failures, below the retry budget
    core::ManualClock clock;
    Campaign campaign(options, corpus, fs, "camp", tlslib::builtin_model(), clock);
    ASSERT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    ASSERT_TRUE(report.io.ok());
    EXPECT_GT(report.retried, 0u);
    EXPECT_EQ(report.quarantined, 0u);
    // The ladder absorbed every flake: final state is byte-identical to
    // the flake-free run.
    EXPECT_EQ(serialize_state(campaign.state()), reference);
}

TEST(Campaign, PoisonedEvaluationsAreQuarantinedNotFatal) {
    core::MemFs fs;
    CrashCorpus corpus("camp/corpus", &fs);
    CampaignOptions options = small_options(17, 2, 48);
    options.poison_rate = 0.15;  // permanent failures; the ladder gives up
    core::ManualClock clock;
    Campaign campaign(options, corpus, fs, "camp", tlslib::builtin_model(), clock);
    ASSERT_TRUE(campaign.start_fresh().ok());
    CampaignReport report = campaign.run();
    ASSERT_TRUE(report.io.ok()) << report.io.error().message;
    EXPECT_TRUE(report.stopped_by_evals);
    EXPECT_GT(report.quarantined, 0u);
    EXPECT_EQ(campaign.state().quarantined, report.quarantined);
    // The schedule marched on: every input salt was consumed.
    EXPECT_EQ(campaign.state().next_salt, 48u);
    // Quarantine is deterministic too: a rerun quarantines identically.
    core::MemFs fs2;
    CrashCorpus corpus2("camp/corpus", &fs2);
    core::ManualClock clock2;
    Campaign again(options, corpus2, fs2, "camp", tlslib::builtin_model(), clock2);
    ASSERT_TRUE(again.start_fresh().ok());
    CampaignReport report2 = again.run();
    ASSERT_TRUE(report2.io.ok());
    EXPECT_EQ(serialize_state(again.state()), serialize_state(campaign.state()));
}

// Resume adopts the checkpoint's seed for every decision, the harness
// fault schedule included: a resumed run whose options carry another
// seed still retries and quarantines exactly what the uninterrupted run
// did (the counterpart of ScenarioEngine.ResumeOverridesTrafficParameters).
TEST(Campaign, ResumeKeysHarnessFaultsByTheCheckpointSeed) {
    CampaignOptions options = small_options(/*seed=*/7, /*jobs=*/1, /*max_evals=*/64);
    options.flake_rate = 0.3;
    options.poison_rate = 0.2;

    std::string reference;
    {
        core::MemFs fs;
        CrashCorpus corpus("camp/corpus", &fs);
        core::ManualClock clock;
        Campaign campaign(options, corpus, fs, "camp", tlslib::builtin_model(), clock);
        ASSERT_TRUE(campaign.start_fresh().ok());
        ASSERT_TRUE(campaign.run().io.ok());
        reference = serialize_state(campaign.state());
    }

    core::MemFs fs;
    {
        CampaignOptions cut = options;
        cut.max_evals = 16;
        CrashCorpus corpus("camp/corpus", &fs);
        core::ManualClock clock;
        Campaign campaign(cut, corpus, fs, "camp", tlslib::builtin_model(), clock);
        ASSERT_TRUE(campaign.start_fresh().ok());
        ASSERT_TRUE(campaign.run().io.ok());
    }
    CampaignOptions drifted = options;
    drifted.seed = 1;  // wrong on purpose
    CrashCorpus corpus("camp/corpus", &fs);
    core::ManualClock clock;
    Campaign resumed(drifted, corpus, fs, "camp", tlslib::builtin_model(), clock);
    auto recovered = resumed.resume();
    ASSERT_TRUE(recovered.ok()) << recovered.error().message;
    ASSERT_TRUE(corpus.load().ok());
    ASSERT_TRUE(resumed.run().io.ok());
    EXPECT_GT(resumed.state().quarantined, 0u);
    EXPECT_EQ(serialize_state(resumed.state()), reference);
}

TEST(Campaign, DescribeStateMentionsTheHeadlineCounters) {
    CampaignState s = sample_state();
    std::string line = describe_state(s, 6);
    EXPECT_NE(line.find("gen 6"), std::string::npos);
    EXPECT_NE(line.find("inputs 96"), std::string::npos);
    EXPECT_NE(line.find("buckets 2"), std::string::npos);
}

}  // namespace
}  // namespace unicert::difffuzz::campaign
