#include "threat/scenario/engine.h"

#include <algorithm>
#include <sstream>

#include "core/executor.h"
#include "faultsim/harness_fence.h"

namespace unicert::threat::scenario {
namespace {

constexpr uint64_t kPpm = 1000000;

uint64_t to_ppm(double rate) {
    return static_cast<uint64_t>(rate * static_cast<double>(kPpm) + 0.5);
}

double from_ppm(uint64_t ppm) {
    return static_cast<double>(ppm) / static_cast<double>(kPpm);
}

}  // namespace

// One planned shard of users: filled sequentially from the cursor,
// evaluated on a worker, merged back in plan order.
struct ScenarioEngine::Shard {
    uint64_t begin = 0;
    uint64_t end = 0;
    Tally tally;
    uint64_t evaluated = 0;
    uint64_t quarantined = 0;
    uint64_t retries = 0;
};

ScenarioEngine::ScenarioEngine(ScenarioOptions options, core::Fs& fs, std::string state_dir,
                               core::Clock& clock)
    : options_(std::move(options)),
      clock_(&clock),
      store_(fs, std::move(state_dir), "scenario") {}

TrafficModel ScenarioEngine::effective_model() const {
    TrafficModel model = resolved(options_.traffic);
    model.seed = state_.seed;
    model.dose = from_ppm(state_.dose_ppm);
    model.caa_adoption = from_ppm(state_.caa_ppm);
    return model;
}

Status ScenarioEngine::start_fresh() {
    state_ = ScenarioState{};
    state_.seed = options_.traffic.seed;
    state_.dose_ppm = to_ppm(options_.traffic.dose);
    state_.caa_ppm = to_ppm(options_.traffic.caa_adoption);
    if (Status st = store_.init(); !st.ok()) return st;
    started_ = true;
    return store_.commit(serialize_state(state_), 0);
}

Expected<core::RecoveredGeneration> ScenarioEngine::resume() {
    ScenarioState recovered_state;
    auto recovered = store_.recover([&recovered_state](std::string_view payload) -> Status {
        auto state = parse_state(payload);
        if (!state.ok()) return state.error();
        recovered_state = std::move(state).value();
        return Status::success();
    });
    if (!recovered.ok()) return recovered.error();
    if (!recovered->found) {
        return Error{"scenario_no_checkpoint", "no checkpoint in " + store_.dir()};
    }
    state_ = std::move(recovered_state);
    started_ = true;
    return recovered;
}

void ScenarioEngine::evaluate_shard(Shard& shard, const TrafficModel& model,
                                    const DetectionMatrix& matrix, const KeyTable& keys,
                                    const faultsim::HarnessFence& fence) const {
    shard.tally.assign(keys.size(), 0);
    for (uint64_t user = shard.begin; user < shard.end; ++user) {
        auto result = fence.run<HandshakeSample>(
            user, [&] { return synthesize_handshake(model, user); }, &shard.retries);
        if (!result.ok()) {
            // The ladder gave up (classify_failure: quarantine, not
            // abort) — the user index is consumed, the schedule moves
            // on undisturbed.
            ++shard.quarantined;
            continue;
        }
        observe(*result, matrix, keys, shard.tally);
        ++shard.evaluated;
    }
}

ScenarioReport ScenarioEngine::run() {
    ScenarioReport report;
    if (!started_) {
        report.io = Error{"scenario_not_started", "call start_fresh() or resume() first"};
        return report;
    }
    if (options_.users == 0) {
        report.io = Error{"scenario_no_stop_condition",
                          "set a user count; unbounded runs are refused"};
        return report;
    }

    const TrafficModel model = effective_model();
    const KeyTable keys;
    const DetectionMatrix matrix = build_matrix(model);
    // Seeded from the checkpoint, salted apart from the traffic stream.
    const faultsim::HarnessFence fence({.seed = model.seed ^ 0xF1EE7CA5ULL,
                                        .flake_rate = options_.flake_rate,
                                        .poison_rate = options_.poison_rate},
                                       *clock_);

    core::Executor executor(std::max<size_t>(options_.jobs, 1));
    const size_t shard_size = std::max<size_t>(options_.shard_size, 1);
    const size_t round_shards = std::max<size_t>(options_.round_shards, 1);

    for (;;) {
        if (state_.next_user >= options_.users) {
            report.stopped_by_users = true;
            break;
        }
        // Plan the round sequentially against the cursor; shard
        // boundaries depend only on the options, never on job count.
        std::vector<Shard> shards;
        uint64_t cursor = state_.next_user;
        while (shards.size() < round_shards && cursor < options_.users) {
            Shard shard;
            shard.begin = cursor;
            shard.end = std::min<uint64_t>(cursor + shard_size, options_.users);
            cursor = shard.end;
            shards.push_back(std::move(shard));
        }

        // Fan out, then merge in plan order: byte-identical state at
        // any job count.
        for (Shard& shard : shards) {
            executor.submit([this, &shard, &model, &matrix, &keys, &fence] {
                evaluate_shard(shard, model, matrix, keys, fence);
            });
        }
        executor.wait_idle();
        for (const Shard& shard : shards) {
            for (size_t i = 0; i < shard.tally.size(); ++i) {
                if (shard.tally[i] != 0) state_.tallies[keys.names()[i]] += shard.tally[i];
            }
            state_.evaluated += shard.evaluated;
            state_.quarantined += shard.quarantined;
            report.retried += shard.retries;
            report.quarantined += shard.quarantined;
            report.users_processed += shard.end - shard.begin;
            state_.next_user = shard.end;
            ++state_.shards_done;

            if (options_.checkpoint_every > 0 &&
                state_.shards_done % options_.checkpoint_every == 0) {
                if (Status st = store_.commit(serialize_state(state_), state_.shards_done);
                    !st.ok()) {
                    report.io = st;
                    return report;
                }
                ++report.checkpoints;
            }
        }
    }

    // Commit whatever progress the stop condition left uncheckpointed.
    if (report.io.ok() &&
        (!store_.last_committed() || *store_.last_committed() != state_.shards_done)) {
        if (Status st = store_.commit(serialize_state(state_), state_.shards_done); st.ok()) {
            ++report.checkpoints;
        } else {
            report.io = st;
        }
    }
    return report;
}

std::string describe_state(const ScenarioState& state, uint64_t generation) {
    auto tally = [&state](const char* key) -> uint64_t {
        auto it = state.tallies.find(key);
        return it == state.tallies.end() ? 0 : it->second;
    };
    std::ostringstream out;
    out << "gen " << generation << " | users " << state.next_user << " | evaluated "
        << state.evaluated << " | adversarial " << tally("users_adversarial")
        << " | detected " << tally("detected_any") << " | joint " << tally("joint_detected")
        << " | quarantined " << state.quarantined;
    return out.str();
}

}  // namespace unicert::threat::scenario
