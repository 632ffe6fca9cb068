// unicert/core/sealed_state.h
//
// The sealed-state text codec every GenerationStore payload uses (the
// fuzzing campaign's `unicert-campaign-v1`, the scenario engine's
// `unicert-scenario-v1`):
//
//   <magic>
//   <key>: <value>          one line per field, in the writer's order
//   checksum: <64 hex>      SHA-256 over every preceding byte
//
// The trailer makes a torn tail or a flipped bit always detectable, so
// recovery can fall back to the previous committed generation. The
// codec owns the framing and the integrity check; what the keys mean
// belongs to each engine's serialize_state/parse_state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/expected.h"

namespace unicert::core {

// Builds a sealed payload field by field. Output is byte-for-byte
// deterministic in the sequence of calls.
class SealedStateWriter {
public:
    explicit SealedStateWriter(std::string_view magic);

    void field(std::string_view key, std::string_view value);
    void field(std::string_view key, uint64_t value);

    // Append the checksum trailer and hand back the payload.
    std::string seal() &&;

private:
    std::string text_;
};

// Called once per field line, in order. Return false when the value is
// malformed; unknown keys should return true (forward compatibility —
// the checksum already vouches for their integrity).
using SealedFieldSink = std::function<bool(std::string_view key, std::string_view value)>;

// Check the magic and the trailer, then feed every field to `apply`.
// Error codes, branded with `code_prefix`:
//   <prefix>_bad_magic  the text does not start with the magic line;
//   <prefix>_truncated  no complete checksum trailer (a torn tail);
//   <prefix>_checksum   the trailer does not match (bit rot);
//   <prefix>_bad_field  a line without ": ", or one `apply` rejected.
Status unseal_state(std::string_view text, std::string_view magic,
                    std::string_view code_prefix, const SealedFieldSink& apply);

// Strict decimal: the whole of `text`, no sign, no spaces.
bool parse_u64(std::string_view text, uint64_t* out);

}  // namespace unicert::core
