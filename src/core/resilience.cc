#include "core/resilience.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>

#include "common/splitmix.h"

namespace unicert::core {
namespace {

class SystemClock final : public Clock {
public:
    int64_t now_ms() override {
        using namespace std::chrono;
        return duration_cast<milliseconds>(steady_clock::now().time_since_epoch()).count();
    }
    void sleep_ms(int64_t ms) override {
        if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
};

}  // namespace

Clock& system_clock() {
    static SystemClock clock;
    return clock;
}

bool is_transient_error(const Error& e) noexcept {
    std::string_view code = e.code;
    return code == "unavailable" || code == "timeout" || code == "stale_read" ||
           code == "entry_dropped";
}

const char* failure_action_name(FailureAction a) noexcept {
    switch (a) {
        case FailureAction::kRetry: return "retry";
        case FailureAction::kQuarantine: return "quarantine";
        case FailureAction::kAbort: return "abort";
    }
    return "?";
}

FailureAction classify_failure(const Error& e) noexcept {
    if (is_transient_error(e)) return FailureAction::kRetry;
    std::string_view code = e.code;
    // Stream-level integrity failures: skipping past them would silently
    // corrupt the measurement, so the consumer must stop and report.
    if (code == "split_view" || code == "source_closed" || code == "aborted") {
        return FailureAction::kAbort;
    }
    // Everything else is scoped to one entry (malformed DER, a rule that
    // threw, an out-of-range proof request): isolate and continue.
    return FailureAction::kQuarantine;
}

Status BudgetGuard::tick(uint64_t steps) {
    steps_ += steps;
    if (limits_.max_steps > 0 && steps_ > limits_.max_steps) {
        return Error{"budget_steps",
                     "step budget exceeded: " + std::to_string(steps_) + " > " +
                         std::to_string(limits_.max_steps)};
    }
    return check();
}

Status BudgetGuard::check() const {
    if (limits_.wall_ms > 0) {
        int64_t elapsed = elapsed_ms();
        if (elapsed > limits_.wall_ms) {
            return Error{"budget_deadline",
                         "wall budget exceeded: " + std::to_string(elapsed) + "ms > " +
                             std::to_string(limits_.wall_ms) + "ms"};
        }
    }
    return Status::success();
}

int64_t RetryPolicy::backoff_ms(int attempt) const noexcept {
    if (attempt < 1) attempt = 1;
    double base = static_cast<double>(initial_backoff_ms);
    for (int i = 1; i < attempt; ++i) {
        base *= multiplier;
        if (base >= static_cast<double>(max_backoff_ms)) break;
    }
    base = std::min(base, static_cast<double>(max_backoff_ms));
    // Deterministic jitter in [0, jitter_fraction] of the base delay.
    uint64_t h = mix64(jitter_seed ^ (0xA5A5A5A5ULL + static_cast<uint64_t>(attempt)));
    double jitter = jitter_fraction > 0 ? base * jitter_fraction * unit_draw(h) : 0.0;
    return static_cast<int64_t>(base + jitter);
}

}  // namespace unicert::core
