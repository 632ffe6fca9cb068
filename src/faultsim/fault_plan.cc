#include "faultsim/fault_plan.h"

#include "common/splitmix.h"

namespace unicert::faultsim {
namespace {

uint64_t channel_hash(uint64_t seed, FaultKind kind, size_t index) noexcept {
    uint64_t k = static_cast<uint64_t>(kind) + 1;
    return mix64(seed ^ mix64(k * 0x517CC1B727220A95ULL) ^ mix64(index));
}

}  // namespace

bool FaultPlan::fires(FaultKind kind, size_t index) const noexcept {
    double rate = 0.0;
    switch (kind) {
        case FaultKind::kTransient: rate = options_.transient_rate; break;
        case FaultKind::kDrop: rate = options_.drop_rate; break;
        case FaultKind::kDuplicate: rate = options_.duplicate_rate; break;
        case FaultKind::kPoison: rate = options_.poison_rate; break;
        case FaultKind::kHeadFlake: rate = options_.head_flake_rate; break;
        case FaultKind::kHeadRegression: rate = options_.head_regression_rate; break;
        case FaultKind::kShortWrite: rate = options_.short_write_rate; break;
        case FaultKind::kSyncFail: rate = options_.sync_fail_rate; break;
        case FaultKind::kNoSpace: rate = options_.no_space_rate; break;
        case FaultKind::kTornTail: rate = options_.torn_tail_rate; break;
        case FaultKind::kBitFlip: rate = options_.bit_flip_rate; break;
    }
    if (rate <= 0.0) return false;
    return unit_draw(channel_hash(options_.seed, kind, index)) < rate;
}

size_t FaultPlan::choose(FaultKind kind, size_t index, size_t bound) const noexcept {
    if (bound == 0) return 0;
    return static_cast<size_t>(mix64(channel_hash(options_.seed, kind, index) ^ 0x5EED) %
                               bound);
}

Bytes FaultPlan::corrupt_der(BytesView der, size_t index) const {
    uint64_t h = channel_hash(options_.seed, FaultKind::kPoison, index) ^ 0xC0FFEE;
    Bytes out(der.begin(), der.end());
    if (out.empty()) {
        // Nothing to corrupt: synthesize a reserved high-tag fragment
        // that no DER reader accepts.
        out = {0x3F, 0x03, 0x01};
        return out;
    }
    if ((h & 1) != 0 && out.size() > 2) {
        // Truncate strictly inside the outer TLV: its length now runs
        // past the buffer, a guaranteed der_truncated.
        out.resize(1 + h % (out.size() - 1));
    } else {
        // Reserved high-tag-number identifier: guaranteed der_high_tag.
        out[0] |= 0x1F;
    }
    return out;
}

Bytes FaultPlan::mutate_der(BytesView der, uint64_t salt) const {
    uint64_t state = mix64(options_.seed ^ mix64(salt));
    auto next = [&state]() {
        state = mix64(state);
        return state;
    };
    Bytes out(der.begin(), der.end());
    if (out.empty()) return out;
    size_t flips = 1 + next() % 4;
    for (size_t i = 0; i < flips; ++i) {
        out[next() % out.size()] ^= static_cast<uint8_t>(1u << (next() % 8));
    }
    if (next() % 5 == 0) out.resize(1 + next() % out.size());
    if (next() % 10 == 0) out.push_back(static_cast<uint8_t>(next() % 256));
    return out;
}

}  // namespace unicert::faultsim
