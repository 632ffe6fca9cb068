// unicert/core/resilience.h
//
// Retry/backoff, deadline budgets and the failure-degradation ladder
// shared by the ingestion consumers (CompliancePipeline, Monitor::sync,
// the CLI tools). Everything is deterministic under test: the clock is
// injected and backoff jitter derives from a seeded hash, so a fault
// schedule replays identically run after run.
//
// Built as its own target (unicert_resilience) below ctlog in the
// layering so the CT modules can depend on it without a cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/expected.h"

namespace unicert::core {

// Monotonic millisecond clock. Injectable so backoff is testable and
// chaos runs stay deterministic.
class Clock {
public:
    virtual ~Clock() = default;
    virtual int64_t now_ms() = 0;
    virtual void sleep_ms(int64_t ms) = 0;
};

// The process-wide wall clock (std::chrono::steady_clock).
Clock& system_clock();

// Manually advanced clock: sleep_ms() moves the epoch forward without
// blocking. Backoff schedules become pure arithmetic under test.
// Thread-safe: parallel tasks back off against a shared instance,
// and the slept total stays deterministic (a commutative sum) however
// the sleeps interleave.
class ManualClock final : public Clock {
public:
    ManualClock() = default;
    // Movable for value members; the atomics only make concurrent
    // sleeps safe, moving a clock mid-use was never supported.
    ManualClock(ManualClock&& other) noexcept
        : now_(other.now_.load(std::memory_order_relaxed)),
          slept_(other.slept_.load(std::memory_order_relaxed)) {}
    ManualClock& operator=(ManualClock&& other) noexcept {
        now_.store(other.now_.load(std::memory_order_relaxed), std::memory_order_relaxed);
        slept_.store(other.slept_.load(std::memory_order_relaxed), std::memory_order_relaxed);
        return *this;
    }

    int64_t now_ms() override { return now_.load(std::memory_order_relaxed); }
    void sleep_ms(int64_t ms) override {
        now_.fetch_add(ms, std::memory_order_relaxed);
        slept_.fetch_add(ms, std::memory_order_relaxed);
    }
    int64_t total_slept_ms() const noexcept { return slept_.load(std::memory_order_relaxed); }

private:
    std::atomic<int64_t> now_{0};
    std::atomic<int64_t> slept_{0};
};

// Errors worth retrying: the operation may succeed on a later attempt
// (flaky frontend, dropped response, stale read of a moving log).
bool is_transient_error(const Error& e) noexcept;

// The degradation ladder: retry transient faults; quarantine faults
// scoped to a single entry (bad DER, a lint that threw); abort only on
// stream-level failures the caller cannot skip past.
enum class FailureAction { kRetry, kQuarantine, kAbort };

const char* failure_action_name(FailureAction a) noexcept;

// Ladder verdict for an entry-scoped failure. Stream-scoped escalation
// (retry budget exhausted, deadline blown) is the caller's decision.
FailureAction classify_failure(const Error& e) noexcept;

// Capped exponential backoff with deterministic jitter.
struct RetryPolicy {
    int max_attempts = 4;            // total tries, including the first
    int64_t initial_backoff_ms = 10;
    double multiplier = 2.0;
    int64_t max_backoff_ms = 2000;   // cap before jitter
    // Jitter in [0, jitter_fraction] of the base delay, derived from
    // hash(jitter_seed, attempt) — no global RNG, replayable.
    double jitter_fraction = 0.25;
    uint64_t jitter_seed = 0;
    // Total time budget for one operation, spanning all attempts and
    // sleeps. 0 = unbounded. Retrying stops once the next sleep would
    // exceed the budget.
    int64_t deadline_ms = 0;

    // Delay after the `attempt`-th failure (1-based).
    int64_t backoff_ms(int attempt) const noexcept;
};

// Cooperative execution budget for one supervised operation: a
// wall-clock deadline plus a step limit, both measured against the
// injectable Clock so budget tests burn simulated time only. The
// supervised differential engine charges one step per profile call and
// aborts the evaluation when tick() reports a blown budget.
class BudgetGuard {
public:
    struct Limits {
        int64_t wall_ms = 0;     // 0 = unbounded
        uint64_t max_steps = 0;  // 0 = unbounded
    };

    BudgetGuard(Limits limits, Clock& clock)
        : limits_(limits), clock_(&clock), start_ms_(clock.now_ms()) {}

    // Account `steps` units of work, then check both budgets. Error
    // codes: "budget_deadline" (wall clock) / "budget_steps".
    Status tick(uint64_t steps = 1);

    // Re-check without consuming steps (e.g. after a call returns).
    Status check() const;

    uint64_t steps_used() const noexcept { return steps_; }
    int64_t elapsed_ms() const { return clock_->now_ms() - start_ms_; }

private:
    Limits limits_;
    Clock* clock_;
    int64_t start_ms_;
    uint64_t steps_ = 0;
};

// Attempt accounting for one retried operation.
struct RetryOutcome {
    int attempts = 1;     // tries made (>= 1)
    size_t retries = 0;   // attempts - 1
};

// Run `op` until it succeeds, fails permanently, or the policy's
// attempt/deadline budget runs out. Only transient errors are retried;
// the last error is returned verbatim when retries stop.
template <typename T>
Expected<T> retry(const RetryPolicy& policy, Clock& clock,
                  const std::function<Expected<T>()>& op, RetryOutcome* outcome = nullptr) {
    const int64_t start = clock.now_ms();
    int attempt = 1;
    for (;;) {
        Expected<T> result = op();
        if (outcome != nullptr) {
            outcome->attempts = attempt;
            outcome->retries = static_cast<size_t>(attempt - 1);
        }
        if (result.ok()) return result;
        if (!is_transient_error(result.error())) return result;
        if (attempt >= policy.max_attempts) return result;
        int64_t delay = policy.backoff_ms(attempt);
        if (policy.deadline_ms > 0 &&
            clock.now_ms() - start + delay > policy.deadline_ms) {
            return result;  // deadline budget exhausted
        }
        clock.sleep_ms(delay);
        ++attempt;
    }
}

}  // namespace unicert::core
