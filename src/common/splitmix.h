// unicert/common/splitmix.h
//
// splitmix64, the repo's one decision hash. Every seeded schedule (fault
// plans, DER mutations, fuzz campaigns, scenario traffic, retry jitter)
// is a pure function of it, so a schedule depends on its inputs and
// never on the order decisions are taken in.
#pragma once

#include <cstdint>

namespace unicert {

// The splitmix64 finalizer: a one-shot mixer of one 64-bit word.
inline uint64_t mix64(uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

// The top 53 bits of `h` as a uniform double in [0, 1).
inline double unit_draw(uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1p-53;
}

}  // namespace unicert
