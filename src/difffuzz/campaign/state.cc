#include "difffuzz/campaign/state.h"

#include "core/sealed_state.h"

namespace unicert::difffuzz::campaign {
namespace {

// Split "a b c" on single spaces; returns false when the field count
// does not match.
bool split_fields(std::string_view line, std::vector<std::string_view>& out, size_t count) {
    out.clear();
    size_t pos = 0;
    while (pos <= line.size()) {
        size_t space = line.find(' ', pos);
        if (space == std::string_view::npos) space = line.size();
        out.push_back(line.substr(pos, space - pos));
        pos = space + 1;
    }
    return out.size() == count;
}

}  // namespace

std::string serialize_state(const CampaignState& state) {
    core::SealedStateWriter out(kStateMagic);
    out.field("seed", state.seed);
    out.field("next_salt", state.next_salt);
    out.field("batches_done", state.batches_done);
    out.field("evals", state.evals);
    out.field("failures", state.failures);
    out.field("quarantined", state.quarantined);
    for (const std::string& key : state.buckets) out.field("bucket", key);
    for (const SeedEntry& entry : state.corpus) {
        out.field("seed_entry", std::to_string(entry.id) + " " + std::to_string(entry.energy) +
                                    " " + std::to_string(entry.discoveries) + " " +
                                    std::to_string(entry.trials) + " " +
                                    hex_encode(entry.payload));
    }
    return std::move(out).seal();
}

Expected<CampaignState> parse_state(std::string_view text) {
    CampaignState state;
    std::vector<std::string_view> fields;
    Status parsed = core::unseal_state(
        text, kStateMagic, "campaign", [&](std::string_view key, std::string_view value) {
            using core::parse_u64;
            if (key == "seed") return parse_u64(value, &state.seed);
            if (key == "next_salt") return parse_u64(value, &state.next_salt);
            if (key == "batches_done") return parse_u64(value, &state.batches_done);
            if (key == "evals") return parse_u64(value, &state.evals);
            if (key == "failures") return parse_u64(value, &state.failures);
            if (key == "quarantined") return parse_u64(value, &state.quarantined);
            if (key == "bucket") {
                state.buckets.insert(std::string(value));
            } else if (key == "seed_entry") {
                SeedEntry entry;
                if (!split_fields(value, fields, 5) || !parse_u64(fields[0], &entry.id) ||
                    !parse_u64(fields[1], &entry.energy) ||
                    !parse_u64(fields[2], &entry.discoveries) ||
                    !parse_u64(fields[3], &entry.trials)) {
                    return false;
                }
                entry.payload = hex_decode(fields[4]);
                if (entry.payload.empty() && !fields[4].empty()) return false;
                state.corpus.push_back(std::move(entry));
            }
            return true;  // unknown keys: forward compatibility
        });
    if (!parsed.ok()) return parsed.error();
    return state;
}

}  // namespace unicert::difffuzz::campaign
