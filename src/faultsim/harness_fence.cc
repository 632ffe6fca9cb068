#include "faultsim/harness_fence.h"

namespace unicert::faultsim {
namespace {

FaultPlanOptions plan_options(const HarnessFenceOptions& options) {
    FaultPlanOptions plan;
    plan.seed = options.seed;
    plan.transient_rate = options.flake_rate;
    plan.poison_rate = options.poison_rate;
    return plan;
}

}  // namespace

HarnessFence::HarnessFence(HarnessFenceOptions options, core::Clock& clock)
    : plan_(plan_options(options)), clock_(&clock) {}

Status HarnessFence::inject(uint64_t index, int attempt) const {
    if (plan_.fires(FaultKind::kPoison, index)) {
        return Error{"harness_poisoned", "injected permanent failure"};
    }
    if (plan_.fires(FaultKind::kTransient, index) && attempt < kFlakeFailures) {
        return Error{"timeout", "injected transient failure"};
    }
    return Status::success();
}

}  // namespace unicert::faultsim
