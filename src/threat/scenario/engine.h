// unicert/threat/scenario/engine.h
//
// The crash-survivable population-scale scenario engine (DESIGN.md
// section 15). One run streams `users` simulated TLS handshakes through
// the profile fleets: users are planned into fixed-size shards from the
// checkpoint cursor, shards fan out on core::Executor, and per-shard
// tallies merge back in submission order — so detection/evasion counts
// are byte-identical at any job count. Every per-user decision is a
// pure hash of (seed, user_index); the cursor is the only in-flight
// ledger a resume needs.
//
// Robustness contract (the kill-point sweep asserts all of it):
//   * state lands as sealed `unicert-scenario-v1` generations through
//     the engine's core::GenerationStore, the commit path the fuzzing
//     campaign shares — SIGKILL at any filesystem op resumes from the
//     newest valid generation to a byte-identical final state;
//   * per-user profile evaluation runs through faultsim::HarnessFence
//     (FaultPlan flake/poison channels under core::resilience retry,
//     seeded from the checkpoint) — transient faults are absorbed,
//     poisoned users are quarantined exactly once and reported
//     separately (the Wilson intervals in stats.h widen for them rather
//     than absorbing the loss).
#pragma once

#include <string>

#include "core/generation_store.h"
#include "core/resilience.h"
#include "threat/scenario/fleet.h"
#include "threat/scenario/state.h"
#include "threat/scenario/traffic.h"

namespace unicert::faultsim {
class HarnessFence;
}

namespace unicert::threat::scenario {

struct ScenarioOptions {
    TrafficModel traffic;
    uint64_t users = 0;       // stop condition: total user indexes to consume
    size_t jobs = 1;
    size_t shard_size = 512;  // users per executor task
    size_t round_shards = 8;  // shards planned per fan-out round
    // Commit a generation every N shards (generation number ==
    // shards_done, so boundaries are independent of job count).
    uint64_t checkpoint_every = 8;

    // Harness fault channels (FaultPlan kTransient / kPoison, keyed by
    // user index so the schedule is identical at any job count).
    double flake_rate = 0.0;
    double poison_rate = 0.0;
};

struct ScenarioReport {
    uint64_t users_processed = 0;  // consumed this run (incl. quarantined)
    uint64_t retried = 0;          // transient faults absorbed by backoff
    uint64_t quarantined = 0;      // users dropped this run
    uint64_t checkpoints = 0;      // generations committed this run
    bool stopped_by_users = false;
    Status io;                     // first I/O failure, if any
};

class ScenarioEngine {
public:
    // The engine writes checkpoint generations into `state_dir` under
    // `fs`; `clock` drives retry backoff (inject a ManualClock to keep
    // fault schedules deterministic and fast).
    ScenarioEngine(ScenarioOptions options, core::Fs& fs, std::string state_dir,
                   core::Clock& clock);

    // Begin a new run: generation 0 is committed before any work so a
    // crash at the first user still resumes.
    Status start_fresh();

    // Continue from the newest valid generation; the recovered state is
    // then state(). Read-only on disk. Error code scenario_no_checkpoint
    // when the state directory holds none. The recovered seed/dose/CAA
    // parameters override the options' traffic model — a resumed run
    // must replay the original draws.
    Expected<core::RecoveredGeneration> resume();

    // Consume users until the `users` bound; checkpoint per the options.
    ScenarioReport run();

    const ScenarioState& state() const noexcept { return state_; }
    core::GenerationStore& store() noexcept { return store_; }

private:
    struct Shard;
    void evaluate_shard(Shard& shard, const TrafficModel& model,
                        const DetectionMatrix& matrix, const KeyTable& keys,
                        const faultsim::HarnessFence& fence) const;
    TrafficModel effective_model() const;

    ScenarioOptions options_;
    core::Clock* clock_;
    core::GenerationStore store_;
    ScenarioState state_;
    bool started_ = false;
};

// One-line summary for --status output and the CI tally-parity grep.
std::string describe_state(const ScenarioState& state, uint64_t generation);

}  // namespace unicert::threat::scenario
