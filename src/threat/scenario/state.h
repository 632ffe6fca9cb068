// unicert/threat/scenario/state.h
//
// The complete persistent state of one scenario run, and its
// checksummed on-disk serialization (format `unicert-scenario-v1`,
// DESIGN.md section 15). Because every per-user decision is a pure hash
// of (seed, user_index), the cursor `next_user` doubles as the
// in-flight ledger: replaying users past the cursor reproduces any work
// that was in flight when the process died, so no redo log is needed.
// Tallies are a sorted name -> count map, which keeps the serialization
// byte-for-byte deterministic — the property the resume-parity sweep
// compares.
//
// Serialization is the core/sealed_state.h codec: line-oriented text
// with a trailing SHA-256 line covering every preceding byte, so a torn
// tail or a flipped bit is always detected (parse fails, recovery falls
// back to the previous committed generation).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/expected.h"

namespace unicert::threat::scenario {

inline constexpr std::string_view kScenarioMagic = "unicert-scenario-v1";

struct ScenarioState {
    uint64_t seed = 42;
    // Rates are persisted as parts-per-million so the text round-trip
    // is exact (resume must reproduce the original draws bit-for-bit).
    uint64_t dose_ppm = 10000;
    uint64_t caa_ppm = 55000;
    uint64_t next_user = 0;     // first user index not yet consumed (the cursor)
    uint64_t shards_done = 0;   // checkpoint generation counter
    uint64_t evaluated = 0;     // users whose observations are in the tallies
    uint64_t quarantined = 0;   // users abandoned by the retry ladder
    std::map<std::string, uint64_t> tallies;

    bool operator==(const ScenarioState&) const = default;
};

// Text serialization with the SHA-256 trailer. Byte-for-byte
// deterministic in the state.
std::string serialize_state(const ScenarioState& state);

// Error codes: scenario_bad_magic, scenario_truncated (checksum line
// missing — torn tail), scenario_checksum (trailer mismatch — bit
// rot), scenario_bad_field.
Expected<ScenarioState> parse_state(std::string_view text);

}  // namespace unicert::threat::scenario
