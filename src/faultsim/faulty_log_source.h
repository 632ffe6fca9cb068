// unicert/faultsim/faulty_log_source.h
//
// LogSource decorator that replays a FaultPlan against monitor sync:
// transient unavailable/timeout errors, dropped entries that recover,
// stale (duplicate) deliveries, corrupted leaf DER, flaky tree-head
// reads and one-shot tree-head regressions. Recoverable faults vanish
// under the consumer's retry policy; corruption is quarantined. All
// state is per-instance, so the same plan replayed against a fresh
// decorator produces the identical fault sequence.
//
// Thread-safe: the bookkeeping is per-index and guarded by an internal
// mutex, so callers may fetch entries from several threads and still
// observe exactly the per-index schedule the plan dictates.
#pragma once

#include <map>
#include <mutex>

#include "ctlog/log_source.h"
#include "faultsim/fault_plan.h"

namespace unicert::faultsim {

class FaultyLogSource final : public ctlog::LogSource {
public:
    FaultyLogSource(ctlog::LogSource& inner, FaultPlan plan)
        : inner_(&inner), plan_(std::move(plan)) {}

    std::string name() const override { return inner_->name() + "+faults"; }

    Expected<ctlog::SignedTreeHead> latest_tree_head() override;
    Expected<ctlog::RawLogEntry> entry_at(size_t index) override;
    Expected<crypto::Digest> root_at(size_t tree_size) override;

    // Fault accounting, for assertions.
    size_t injected_faults() const noexcept {
        std::lock_guard<std::mutex> lk(mu_);
        return injected_;
    }

private:
    ctlog::LogSource* inner_;
    FaultPlan plan_;
    mutable std::mutex mu_;  // guards every mutable member below
    std::map<size_t, int> entry_failures_;   // consecutive failures served per index
    std::map<size_t, bool> stale_served_;    // duplicate delivery done?
    std::map<size_t, bool> poison_served_;   // corrupted copy delivered?
    size_t head_reads_ = 0;
    int head_failures_ = 0;
    size_t injected_ = 0;
};

}  // namespace unicert::faultsim
