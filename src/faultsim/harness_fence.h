// unicert/faultsim/harness_fence.h
//
// The fault fence both long-running engines run their per-item work
// through: the fuzzing campaign (one item = one mutated input) and the
// threat-scenario engine (one item = one simulated user). Each attempt
// at item `index` goes, in order:
//   1. the poison channel: a permanent `harness_poisoned` failure;
//   2. the transient channel: `timeout` for the first two attempts,
//      then the item recovers;
//   3. the work itself, behind an exception fence: anything it throws
//      becomes a permanent `harness_crashed` failure;
// and core::retry drives up to four attempts (1 ms backoff, capped at
// 8 ms), so a transient fault is absorbed by backoff and a permanent
// one hands the caller an error to quarantine the item on. Both
// channels are FaultPlan decisions keyed by (seed, index), so the
// schedule is identical at any job count or retry interleaving. Engines
// seed the fence from their checkpoint, so a resumed run replays the
// original schedule.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>

#include "common/expected.h"
#include "core/resilience.h"
#include "faultsim/fault_plan.h"

namespace unicert::faultsim {

struct HarnessFenceOptions {
    uint64_t seed = 1;          // checkpoint seed ^ the engine's salt
    double flake_rate = 0.0;    // FaultPlan kTransient
    double poison_rate = 0.0;   // FaultPlan kPoison
};

class HarnessFence {
public:
    HarnessFence(HarnessFenceOptions options, core::Clock& clock);

    // Run `work` for item `index` under the fence; adds the retries the
    // ladder spent to `*retries`. Thread-safe: the fence is read-only
    // and the clock is the caller's to share.
    template <typename T, typename Work>
    Expected<T> run(uint64_t index, Work&& work, uint64_t* retries) const {
        int attempt_no = 0;
        std::function<Expected<T>()> attempt = [&]() -> Expected<T> {
            if (Status fault = inject(index, attempt_no++); !fault.ok()) return fault.error();
            try {
                return work();
            } catch (const std::exception& e) {
                return Error{"harness_crashed", e.what()};
            } catch (...) {
                return Error{"harness_crashed", "non-standard exception"};
            }
        };
        core::RetryOutcome outcome;
        Expected<T> result = core::retry<T>(kRetry, *clock_, attempt, &outcome);
        *retries += outcome.retries;
        return result;
    }

private:
    static constexpr int kFlakeFailures = 2;  // transient failures before recovery
    static constexpr core::RetryPolicy kRetry{.max_attempts = 4, .initial_backoff_ms = 1,
                                              .max_backoff_ms = 8};

    // The injected fault for attempt `attempt` (0-based) at `index`.
    Status inject(uint64_t index, int attempt) const;

    FaultPlan plan_;
    core::Clock* clock_;
};

}  // namespace unicert::faultsim
