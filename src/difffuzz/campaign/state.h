// unicert/difffuzz/campaign/state.h
//
// The complete persistent state of one feedback-guided fuzzing
// campaign, and its checksummed on-disk serialization (format
// `unicert-campaign-v1`, DESIGN.md section 11). Everything the engine
// needs to continue a run lives here: the live seed corpus with its
// per-seed mutation-energy accounting, the set of discovered
// (library x outcome x signature) buckets, cumulative counters, and
// the input cursor `next_salt` that doubles as the in-flight ledger —
// because every mutation/selection decision is a pure hash of
// (campaign seed, salt), replaying salts past the cursor reproduces
// any work that was in flight when the process died, so no explicit
// redo log is needed.
//
// Serialization is the core/sealed_state.h codec: line-oriented text
// with a trailing SHA-256 line covering every preceding byte, so a torn
// tail or a flipped bit is always detected (parse fails, recovery falls
// back to the previous committed generation).
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"

namespace unicert::difffuzz::campaign {

inline constexpr std::string_view kStateMagic = "unicert-campaign-v1";

// One live-corpus seed. `id` is stable and deterministic: the initial
// seeds take 0..n-1, a mutant promoted into the corpus takes
// n + the salt that produced it, so two runs of the same campaign
// assign identical ids regardless of job count.
struct SeedEntry {
    uint64_t id = 0;
    uint64_t energy = 0;       // mutation-energy driving weighted selection
    uint64_t discoveries = 0;  // novel buckets found by this seed's mutants
    uint64_t trials = 0;       // mutants generated from this seed
    Bytes payload;

    bool operator==(const SeedEntry&) const = default;
};

struct CampaignState {
    uint64_t seed = 1;         // campaign RNG seed, pinned at start
    uint64_t next_salt = 0;    // mutated inputs generated so far (the cursor)
    uint64_t batches_done = 0;
    uint64_t evals = 0;        // supported (library, input) model evaluations
    uint64_t failures = 0;     // failing (library, input) pairs observed
    uint64_t quarantined = 0;  // inputs abandoned by the worker retry ladder
    std::vector<SeedEntry> corpus;   // insertion-ordered live corpus
    std::set<std::string> buckets;   // discovered bucket keys

    bool operator==(const CampaignState&) const = default;
};

// Text serialization with the SHA-256 trailer. Byte-for-byte
// deterministic in the state, which is what the resume-parity tests
// compare.
std::string serialize_state(const CampaignState& state);

// Error codes: campaign_bad_magic, campaign_truncated (checksum line
// missing — torn tail), campaign_checksum (trailer mismatch — bit
// rot), campaign_bad_field.
Expected<CampaignState> parse_state(std::string_view text);

}  // namespace unicert::difffuzz::campaign
