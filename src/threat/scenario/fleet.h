// unicert/threat/scenario/fleet.h
//
// The profile fleets the scenario engine drives (the §6.2 middlebox
// and HTTP-client models, the Appendix F browser renderers, and the
// Table 6 CT-monitor profiles), evaluated once per (victim, technique)
// cell into a DetectionMatrix by the catalogue's evaluate_fleets
// (threat/forgery.h). Because a forgery is a pure function of its cell,
// every fleet verdict is too; the per-user hot path then costs a few
// hash draws plus counter increments, which is what makes population
// scale (millions of users) tractable without materializing any
// traffic.
//
// The monitor column indexes each cell's forgery into an in-memory
// ctlog::Monitor per profile. Monitor answers through the same
// index::lookup as the durable index::QueryService, so its verdicts are
// the service's (tests/threat_scenario_engine_test.cc checks this over
// the grid; the ctlog parity and kill-point suites pin the service's
// degradation ladder).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "threat/scenario/traffic.h"

namespace unicert::threat::scenario {

struct DetectionMatrix {
    size_t victims = 0;
    size_t techniques = 0;
    std::vector<FleetVerdicts> cells;   // victim-major, kAllTechniques order
    std::vector<bool> victim_caa;       // per-victim CAA adoption draw

    const FleetVerdicts& cell(size_t victim, size_t technique) const {
        return cells[victim * techniques + technique];
    }
};

// Craft and evaluate every (victim, technique) cell once. Pure function
// of the (resolved) model.
DetectionMatrix build_matrix(const TrafficModel& model);

// The fixed tally vocabulary: every counter the engine can emit, with
// stable string names (used in checkpoints, reports and goldens) and
// dense ids (used on the hot path).
class KeyTable {
public:
    KeyTable();

    size_t size() const noexcept { return names_.size(); }
    const std::vector<std::string>& names() const noexcept { return names_; }

    // Dense ids, grouped for observe()'s direct indexing.
    size_t users_benign;
    size_t users_adversarial;
    size_t benign_idn;
    std::vector<size_t> technique;          // kAllTechniques order
    std::vector<size_t> mb_flagged;         // kAllMiddleboxes order
    size_t mb_any_flagged;
    size_t mb_all_evaded;
    std::vector<size_t> client_accepted;    // kAllClients order
    std::vector<size_t> browser_spoofed;    // kAllBrowsers order
    size_t browser_any_spoofed;
    std::vector<size_t> monitor_concealed;  // monitor_profiles() order
    size_t monitor_any_surfaced;
    size_t caa_applicable;
    size_t caa_flagged;
    size_t joint_detected;   // monitor OR CAA caught it (the interlink question)
    size_t detected_any;     // any fleet dimension caught it

private:
    size_t intern(std::string name);
    std::vector<std::string> names_;
};

// Dense per-shard tally, merged into the state's name -> count map in
// shard submission order.
using Tally = std::vector<uint64_t>;

// Fold one synthesized handshake into `tally` using the precomputed
// verdicts. Pure: same sample + matrix -> same increments.
void observe(const HandshakeSample& sample, const DetectionMatrix& matrix,
             const KeyTable& keys, Tally& tally);

}  // namespace unicert::threat::scenario
