// unicert/difffuzz/campaign/campaign.h
//
// Feedback-guided, crash-survivable differential fuzzing campaigns
// (DESIGN.md section 11). Where DiffFuzzer::run mutates its five fixed
// seeds blindly, a Campaign closes the loop: mutants are scored by the
// novel (library x outcome x signature) buckets they discover, a
// bucket-discovering mutant is promoted into the live corpus, and
// mutation energy is scheduled toward seeds whose offspring keep
// finding new buckets (energy doubles on discovery, decays otherwise —
// the corpus stays minimized because only coverage-contributing inputs
// ever enter it).
//
// Execution model: inputs are planned sequentially (weighted energy
// pick + structure-aware mutation, both pure hashes of the campaign
// seed and the global input cursor), fanned out across a
// core::Executor pool for the expensive 9-library evaluation, then
// merged back in cursor order — so the final state is byte-identical
// at any job count. A worker evaluation that crashes or hangs at the
// harness level is retried through the core::resilience ladder
// (transient faults) or quarantined (permanent ones) without poisoning
// the schedule: the input's salt is consumed either way. The fault
// fence doing this, faultsim::HarnessFence, is shared with the scenario
// engine, keyed by salt and seeded from the checkpoint.
//
// Robustness core: the campaign owns a core::GenerationStore in its
// state directory, the same commit path as the scenario engine. After
// every checkpoint interval the full campaign state is committed as a
// sealed `unicert-campaign-v1` generation through the core::Fs seam.
// Because planning is deterministic in (seed, salt), a kill -9 at any
// filesystem operation resumes from the last committed generation and
// replays the lost tail identically — resumed campaigns are
// byte-equivalent to uninterrupted ones, the property the kill-point
// sweep in tests/difffuzz_campaign_recovery_test.cc proves over every
// FaultyFs fault site.
//
// Caveat for injected-clock runs: retry-ladder sleeps advance the
// shared clock, so keep per-call wall budgets comfortably above the
// ladder's worst-case total sleep or healthy evaluations can be
// misclassified as hangs.
#pragma once

#include <string>

#include "core/generation_store.h"
#include "core/resilience.h"
#include "difffuzz/campaign/state.h"
#include "difffuzz/crash_corpus.h"
#include "difffuzz/fuzzer.h"

namespace unicert::faultsim {
class HarnessFence;
}

namespace unicert::difffuzz::campaign {

struct CampaignOptions {
    uint64_t seed = 1;
    size_t jobs = 1;            // executor workers evaluating a batch
    size_t batch_size = 16;     // inputs planned per scheduling round
    uint64_t checkpoint_every = 4;  // batches per committed generation

    // Stop conditions, both campaign-cumulative. max_evals counts
    // mutated inputs (so a resumed run stops at the same total as an
    // uninterrupted one); max_wall_ms bounds this process run against
    // the injectable Clock. At least one must be non-zero.
    uint64_t max_evals = 0;
    int64_t max_wall_ms = 0;

    tlslib::FieldContext context = tlslib::FieldContext::kDnName;
    tlslib::EvalBudget budget;  // per-call containment budget

    // Energy scheduling.
    uint64_t base_energy = 16;  // initial energy; also the discovery boost
    uint64_t max_energy = 128;
    size_t corpus_max = 64;     // live-corpus cap; least productive evicted

    // Harness-level worker fault injection (deterministic per input
    // salt and keyed by the checkpoint's seed, for supervision tests and
    // chaos CI): flakes fail twice then recover under the fence's retry
    // ladder; poisoned inputs fail permanently and are quarantined.
    double flake_rate = 0.0;
    double poison_rate = 0.0;
};

// What one run() call did (state counters are cumulative across the
// campaign; these are per-invocation).
struct CampaignReport {
    uint64_t inputs = 0;        // mutated inputs evaluated this run
    uint64_t new_buckets = 0;   // buckets discovered this run
    uint64_t retried = 0;       // worker evaluations retried by the ladder
    uint64_t quarantined = 0;   // inputs abandoned after the ladder gave up
    uint64_t checkpoints = 0;   // generations committed this run
    bool stopped_by_evals = false;
    bool stopped_by_wall = false;
    Status io;                  // first checkpoint/corpus persist failure
};

class Campaign {
public:
    // Checkpoint generations land in `state_dir` under `fs`. `corpus`
    // receives one CrashEntry per discovered bucket (its persist
    // failures stop the campaign) and writes through whatever Fs it was
    // built on.
    Campaign(CampaignOptions options, CrashCorpus& corpus, core::Fs& fs, std::string state_dir,
             tlslib::LibraryModel& model = tlslib::builtin_model(),
             core::Clock& clock = core::system_clock());

    // Initialize generation 0 (the structural seed inputs at base
    // energy) and commit it, so a kill before the first interval still
    // resumes cleanly.
    Status start_fresh();

    // Continue from the newest valid checkpoint generation; the
    // recovered state is then state(). Read-only on disk. Error code
    // campaign_no_checkpoint when the state directory has none. The
    // checkpoint's seed, not the options', drives the resumed run.
    Expected<core::RecoveredGeneration> resume();

    // Run batches until a stop condition or an I/O failure; commits a
    // final generation for whatever progress was made.
    CampaignReport run();

    const CampaignOptions& options() const noexcept { return options_; }
    const CampaignState& state() const noexcept { return state_; }
    core::GenerationStore& store() noexcept { return store_; }

private:
    struct Slot;  // one planned input in flight

    size_t pick_parent(uint64_t salt) const;
    void evaluate_slot(Slot& slot, const faultsim::HarnessFence& fence);
    void merge_slot(const Slot& slot, CampaignReport& report);
    void evict_to_cap();

    CampaignOptions options_;
    CrashCorpus* corpus_;
    core::Clock* clock_;
    core::GenerationStore store_;
    CampaignState state_;
    DiffFuzzer fuzzer_;  // evaluation engine (evaluate_input only)
};

// One-line human summary ("gen 12 | inputs 384 | buckets 17 | ...").
std::string describe_state(const CampaignState& state, uint64_t generation);

}  // namespace unicert::difffuzz::campaign
