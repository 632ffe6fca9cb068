// Crash-safety property tests for campaign checkpointing: a kill-point
// sweep (crash after every k-th filesystem operation in the checkpoint
// and corpus write path, with torn tails from the seeded plan), then
// recovery and resume.
//
// The durability contract under test, for every kill point:
//   * a committed generation (commit() returned success) is never lost
//     — recovery finds a generation at least that new;
//   * recovery never serves a torn or bit-rotted checkpoint — every
//     recovered state validates against its checksum trailer;
//   * a resumed campaign is byte-equivalent to an uninterrupted one:
//     identical serialized final state and identical on-disk corpus,
//     at any job count.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "difffuzz/campaign/campaign.h"
#include "faultsim/faulty_fs.h"

namespace unicert::difffuzz::campaign {
namespace {

CampaignOptions sweep_options(uint64_t seed, size_t jobs) {
    CampaignOptions o;
    o.seed = seed;
    o.jobs = jobs;
    o.batch_size = 8;
    o.checkpoint_every = 2;
    o.max_evals = 32;
    return o;
}

// Every *.crash file in the corpus directory, name -> bytes. The
// comparison currency for resume parity: buckets are in the state, the
// minimized representatives live here.
std::map<std::string, Bytes> corpus_files(core::Fs& fs) {
    std::map<std::string, Bytes> files;
    auto names = fs.list_dir("camp/corpus");
    if (!names.ok()) return files;
    for (const std::string& name : *names) {
        if (!name.ends_with(".crash")) continue;
        auto bytes = fs.read_file("camp/corpus/" + name);
        if (bytes.ok()) files[name] = std::move(bytes).value();
    }
    return files;
}

// What one workload run observed before the (possible) crash.
struct WorkloadResult {
    std::optional<uint64_t> acked;  // newest generation commit() acknowledged
    size_t ops = 0;                 // fs ops the full workload consumed
    bool completed = false;         // ran to its stop condition
};

// Start a fresh campaign over the faulty fs and run to max_evals,
// stopping at the first injected I/O failure.
WorkloadResult run_workload(faultsim::FaultyFs& fs, const CampaignOptions& options) {
    WorkloadResult result;
    CrashCorpus corpus("camp/corpus", &fs);
    Campaign campaign(options, corpus, fs, "camp");
    if (campaign.start_fresh().ok()) {
        CampaignReport report = campaign.run();
        result.completed = report.io.ok();
    }
    result.acked = campaign.store().last_committed();
    result.ops = fs.ops();
    return result;
}

void check_recovery(core::MemFs& inner, const CampaignOptions& options,
                    const WorkloadResult& before, const std::string& reference_state,
                    const std::map<std::string, Bytes>& reference_corpus,
                    const std::string& label) {
    CrashCorpus corpus("camp/corpus", &inner);
    Campaign campaign(options, corpus, inner, "camp");

    auto recovered = campaign.resume();
    if (!recovered.ok()) {
        // Nothing on disk is only legal when nothing was ever
        // acknowledged — the crash predates the start_fresh() commit.
        ASSERT_EQ(recovered.error().code, "campaign_no_checkpoint") << label;
        ASSERT_FALSE(before.acked.has_value()) << label << ": committed generation lost";
        ASSERT_TRUE(campaign.start_fresh().ok()) << label;
    } else {
        // An acknowledged generation must never be lost to the crash.
        if (before.acked.has_value()) {
            EXPECT_GE(recovered->generation, *before.acked) << label;
        }
        LoadReport load;
        ASSERT_TRUE(corpus.load(&load).ok()) << label;
        // atomic_write_file syncs before rename, so a torn tail can
        // only hit a temp file, never a landed .crash entry.
        EXPECT_EQ(load.skipped, 0u) << label << ": " << load.notes.front();
    }

    CampaignReport report = campaign.run();
    ASSERT_TRUE(report.io.ok()) << label << ": " << report.io.error().message;
    EXPECT_TRUE(report.stopped_by_evals) << label;

    // Byte-equivalence with the uninterrupted run: state and corpus.
    EXPECT_EQ(serialize_state(campaign.state()), reference_state) << label;
    EXPECT_EQ(corpus_files(inner), reference_corpus) << label;
}

void sweep(uint64_t seed, size_t jobs) {
    const CampaignOptions options = sweep_options(seed, jobs);

    // Reference: the same campaign over a healthy filesystem.
    core::MemFs reference_fs;
    {
        CrashCorpus corpus("camp/corpus", &reference_fs);
        Campaign campaign(options, corpus, reference_fs, "camp");
        ASSERT_TRUE(campaign.start_fresh().ok());
        CampaignReport report = campaign.run();
        ASSERT_TRUE(report.io.ok());
    }
    std::string reference_state;
    {
        CrashCorpus corpus("camp/corpus", &reference_fs);
        Campaign campaign(options, corpus, reference_fs, "camp");
        ASSERT_TRUE(campaign.resume().ok());
        reference_state = serialize_state(campaign.state());
    }
    const std::map<std::string, Bytes> reference_corpus = corpus_files(reference_fs);
    ASSERT_FALSE(reference_corpus.empty());

    // Probe: count the filesystem ops an uninterrupted run consumes.
    core::MemFs probe_inner;
    faultsim::FaultyFsOptions probe;
    probe.plan.seed = seed;
    faultsim::FaultyFs probe_fs(probe_inner, probe);
    const size_t total_ops = run_workload(probe_fs, options).ops;
    ASSERT_GT(total_ops, 10u);

    for (size_t k = 1; k <= total_ops; ++k) {
        core::MemFs inner;
        faultsim::FaultyFsOptions faulty_options;
        faulty_options.plan.seed = seed + k;  // vary the torn-tail shapes too
        faulty_options.plan.torn_tail_rate = 0.7;
        faulty_options.crash_after_ops = k;
        faultsim::FaultyFs faulty(inner, faulty_options);

        WorkloadResult result = run_workload(faulty, options);
        faulty.crash();  // power loss: tear the unsynced tails

        check_recovery(inner, options, result, reference_state, reference_corpus,
                       "seed " + std::to_string(seed) + " jobs " + std::to_string(jobs) +
                           " kill-point " + std::to_string(k));
    }
}

TEST(CampaignKillPointSweep, EveryCrashPointResumesByteEquivalent) {
    for (uint64_t seed : {1u, 7u}) sweep(seed, /*jobs=*/1);
}

TEST(CampaignKillPointSweep, ParityHoldsUnderParallelWorkers) {
    sweep(/*seed=*/7, /*jobs=*/2);
    sweep(/*seed=*/7, /*jobs=*/4);
}

// Regression (satellite 1): a corpus.meta cut mid-write — FaultyFs
// short-write channel — must not abort the crash-corpus replay path;
// readable entries load, the torn tail is reported.
TEST(CampaignRecovery, TruncatedCorpusMetaIsReportedNotFatal) {
    CorpusMeta meta;
    meta.seed = 9;
    meta.crash_rate = 0.25;
    std::string full = serialize_meta(meta);

    core::MemFs inner;
    faultsim::FaultyFsOptions options;
    options.plan.seed = 3;
    options.plan.short_write_rate = 1.0;  // every write lands a prefix only
    faultsim::FaultyFs faulty(inner, options);
    ASSERT_TRUE(faulty.make_dirs("corpus").ok());
    // Plain create/write (no atomic rename): the short write leaves a
    // genuinely truncated file, like a crashed writer without the
    // temp-file discipline — or a torn tail that survived one.
    auto file = faulty.create("corpus/corpus.meta");
    ASSERT_TRUE(file.ok());
    (void)(*file)->write(BytesView(reinterpret_cast<const uint8_t*>(full.data()), full.size()));

    auto bytes = inner.read_file("corpus/corpus.meta");
    ASSERT_TRUE(bytes.ok());
    ASSERT_LT(bytes->size(), full.size());  // the channel really truncated it

    MetaParseResult parsed = parse_meta(
        std::string_view(reinterpret_cast<const char*>(bytes->data()), bytes->size()));
    ASSERT_TRUE(parsed.ok);
    EXPECT_TRUE(parsed.truncated);
    EXPECT_FALSE(parsed.note.empty());
    // Every complete line before the tear applied.
    EXPECT_EQ(parsed.meta.seed, 9u);
}

}  // namespace
}  // namespace unicert::difffuzz::campaign
