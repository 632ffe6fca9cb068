#include "threat/scenario/state.h"

#include "core/sealed_state.h"

namespace unicert::threat::scenario {

std::string serialize_state(const ScenarioState& state) {
    core::SealedStateWriter out(kScenarioMagic);
    out.field("seed", state.seed);
    out.field("dose_ppm", state.dose_ppm);
    out.field("caa_ppm", state.caa_ppm);
    out.field("next_user", state.next_user);
    out.field("shards_done", state.shards_done);
    out.field("evaluated", state.evaluated);
    out.field("quarantined", state.quarantined);
    for (const auto& [name, count] : state.tallies) {
        out.field("tally", name + " " + std::to_string(count));
    }
    return std::move(out).seal();
}

Expected<ScenarioState> parse_state(std::string_view text) {
    ScenarioState state;
    Status parsed = core::unseal_state(
        text, kScenarioMagic, "scenario", [&state](std::string_view key, std::string_view value) {
            using core::parse_u64;
            if (key == "seed") return parse_u64(value, &state.seed);
            if (key == "dose_ppm") return parse_u64(value, &state.dose_ppm);
            if (key == "caa_ppm") return parse_u64(value, &state.caa_ppm);
            if (key == "next_user") return parse_u64(value, &state.next_user);
            if (key == "shards_done") return parse_u64(value, &state.shards_done);
            if (key == "evaluated") return parse_u64(value, &state.evaluated);
            if (key == "quarantined") return parse_u64(value, &state.quarantined);
            if (key == "tally") {
                size_t space = value.rfind(' ');
                uint64_t count = 0;
                if (space == std::string_view::npos || space == 0 ||
                    !parse_u64(value.substr(space + 1), &count)) {
                    return false;
                }
                state.tallies[std::string(value.substr(0, space))] = count;
            }
            return true;  // unknown keys: forward compatibility
        });
    if (!parsed.ok()) return parsed.error();
    return state;
}

}  // namespace unicert::threat::scenario
