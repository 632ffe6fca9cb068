// Determinism, monitor-parity and fault-accounting tests for the
// population-scale scenario engine (DESIGN.md section 15).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/resilience.h"
#include "ctlog/index/query.h"
#include "ctlog/monitor.h"
#include "ctlog/store/store.h"
#include "threat/scenario/engine.h"
#include "x509/builder.h"

namespace unicert::threat::scenario {
namespace {

ScenarioOptions base_options(uint64_t users = 2000) {
    ScenarioOptions o;
    o.traffic.seed = 11;
    o.traffic.dose = 0.05;
    o.users = users;
    o.shard_size = 128;
    o.round_shards = 4;
    o.checkpoint_every = 2;
    return o;
}

std::string run_to_string(ScenarioOptions options, size_t jobs) {
    options.jobs = jobs;
    core::MemFs fs;
    core::ManualClock clock;
    ScenarioEngine engine(options, fs, "scn", clock);
    EXPECT_TRUE(engine.start_fresh().ok());
    ScenarioReport report = engine.run();
    EXPECT_TRUE(report.io.ok());
    EXPECT_TRUE(report.stopped_by_users);
    return serialize_state(engine.state());
}

// The headline determinism contract: per-shard tallies merge in plan
// order, so the serialized state is byte-identical at any job count.
TEST(ScenarioEngine, StateByteIdenticalAcrossJobCounts) {
    const std::string reference = run_to_string(base_options(), 1);
    for (size_t jobs : {2u, 4u, 8u}) {
        EXPECT_EQ(run_to_string(base_options(), jobs), reference) << "jobs=" << jobs;
    }
}

// Fault injection must not disturb determinism either: the FaultPlan
// channels key on user index, not on scheduling.
TEST(ScenarioEngine, FaultedStateByteIdenticalAcrossJobCounts) {
    ScenarioOptions options = base_options();
    options.flake_rate = 0.05;
    options.poison_rate = 0.01;
    const std::string reference = run_to_string(options, 1);
    for (size_t jobs : {2u, 4u, 8u}) {
        EXPECT_EQ(run_to_string(options, jobs), reference) << "jobs=" << jobs;
    }
}

// The monitor column against the durable query path: for every profile
// and victim, build_matrix's concealment verdict over the crafted grid
// (craft_attack_cert x victims x kAllTechniques) equals a QueryService
// answer over a store holding that grid. The NUL, slash, RLO, homograph
// and duplicate-CN forgeries appear in none of the random index
// corpora, so this is their Monitor-vs-service parity check.
TEST(ScenarioEngine, MonitorVerdictsMatchTheQueryService) {
    const TrafficModel model = resolved(TrafficModel{});
    const DetectionMatrix matrix = build_matrix(model);
    const size_t T = kTechniqueCount;

    core::MemFs fs;
    ctlog::store::StoreOptions store_options;
    store_options.create_if_missing = true;
    auto store = ctlog::store::Store::open(fs, "monitor", store_options);
    ASSERT_TRUE(store.ok()) << store.error().message;
    std::vector<ctlog::store::PendingEntry> grid;
    for (size_t v = 0; v < matrix.victims; ++v) {
        for (size_t t = 0; t < T; ++t) {
            x509::Certificate cert = craft_attack_cert(model.victims[v], kAllTechniques[t]);
            x509::sign_certificate(cert, compromised_ca());
            ctlog::store::PendingEntry entry;
            entry.leaf_der = cert.der;
            entry.timestamp = static_cast<int64_t>(v * T + t);
            grid.push_back(std::move(entry));
        }
    }
    ASSERT_TRUE((*store)->append_batch(grid).ok());
    ctlog::index::QueryService service(fs, **store);
    ASSERT_TRUE(service.refresh().ok());

    // Store entry ids are append order: id == v * T + t.
    std::span<const ctlog::MonitorProfile> profiles = ctlog::monitor_profiles();
    for (size_t m = 0; m < profiles.size(); ++m) {
        for (size_t v = 0; v < matrix.victims; ++v) {
            ctlog::index::ServedQuery served = service.query(profiles[m], model.victims[v]);
            EXPECT_FALSE(served.degraded) << served.degradation_reason;
            const std::vector<size_t>& ids = served.result.cert_ids;
            for (size_t t = 0; t < T; ++t) {
                bool found = served.result.query_accepted &&
                             std::find(ids.begin(), ids.end(), v * T + t) != ids.end();
                EXPECT_EQ(matrix.cell(v, t).monitor_concealed[m], !found)
                    << profiles[m].name << " / " << model.victims[v] << " / "
                    << technique_name(kAllTechniques[t]);
            }
        }
    }
}

// Poisoned users are quarantined exactly once, counted separately, and
// never contribute to the tallies; transient flakes are absorbed.
TEST(ScenarioEngine, QuarantineAccounting) {
    ScenarioOptions options = base_options();
    options.flake_rate = 0.10;
    options.poison_rate = 0.02;
    options.jobs = 4;

    core::MemFs fs;
    core::ManualClock clock;
    ScenarioEngine engine(options, fs, "scn", clock);
    ASSERT_TRUE(engine.start_fresh().ok());
    ScenarioReport report = engine.run();
    ASSERT_TRUE(report.io.ok());

    const ScenarioState& state = engine.state();
    EXPECT_GT(report.retried, 0u);       // flakes really fired and were retried
    EXPECT_GT(report.quarantined, 0u);   // poisons really fired
    EXPECT_EQ(state.quarantined, report.quarantined);
    // Every user is accounted exactly once: evaluated or quarantined.
    EXPECT_EQ(state.evaluated + state.quarantined, options.users);
    auto benign = state.tallies.find("users_benign");
    auto adversarial = state.tallies.find("users_adversarial");
    uint64_t observed = (benign != state.tallies.end() ? benign->second : 0) +
                        (adversarial != state.tallies.end() ? adversarial->second : 0);
    EXPECT_EQ(observed, state.evaluated);
}

// The CAA interlink: joint detection can only add to monitor-only
// detection, and only via techniques where CAA applies.
TEST(ScenarioEngine, CaaJointDetectionIsMonotone) {
    ScenarioOptions options = base_options(/*users=*/4000);
    options.traffic.dose = 0.2;  // plenty of adversarial draws
    options.traffic.caa_adoption = 0.5;
    options.jobs = 2;

    core::MemFs fs;
    core::ManualClock clock;
    ScenarioEngine engine(options, fs, "scn", clock);
    ASSERT_TRUE(engine.start_fresh().ok());
    ASSERT_TRUE(engine.run().io.ok());
    const ScenarioState& state = engine.state();
    auto tally = [&state](const char* key) -> uint64_t {
        auto it = state.tallies.find(key);
        return it == state.tallies.end() ? 0 : it->second;
    };
    EXPECT_GE(tally("joint_detected"), tally("monitor_any_surfaced"));
    EXPECT_GE(tally("detected_any"), tally("joint_detected"));
    EXPECT_GT(tally("caa_applicable"), 0u);
    EXPECT_GE(tally("caa_applicable"), tally("caa_flagged"));
}

// Refusing to run without a stop condition or before start/resume.
TEST(ScenarioEngine, RefusesUnstartedAndUnbounded) {
    core::MemFs fs;
    core::ManualClock clock;
    {
        ScenarioEngine engine(base_options(), fs, "scn", clock);
        ScenarioReport report = engine.run();  // no start_fresh()/resume()
        EXPECT_EQ(report.io.error().code, "scenario_not_started");
    }
    {
        ScenarioOptions options = base_options();
        options.users = 0;
        ScenarioEngine engine(options, fs, "scn", clock);
        ASSERT_TRUE(engine.start_fresh().ok());
        ScenarioReport report = engine.run();
        EXPECT_EQ(report.io.error().code, "scenario_no_stop_condition");
    }
}

// Resume adopts the checkpointed traffic parameters, not the (possibly
// different) command-line ones: the replayed draws must be original.
TEST(ScenarioEngine, ResumeOverridesTrafficParameters) {
    core::MemFs fs;
    core::ManualClock clock;
    ScenarioOptions options = base_options(/*users=*/1000);
    {
        ScenarioEngine engine(options, fs, "scn", clock);
        ASSERT_TRUE(engine.start_fresh().ok());
        ASSERT_TRUE(engine.run().io.ok());
    }
    std::string reference = run_to_string(base_options(/*users=*/2000), 1);

    ScenarioOptions drifted = options;
    drifted.users = 2000;
    drifted.traffic.seed = 999;   // wrong on purpose
    drifted.traffic.dose = 0.5;   // wrong on purpose
    ScenarioEngine engine(drifted, fs, "scn", clock);
    auto recovered = engine.resume();
    ASSERT_TRUE(recovered.ok()) << recovered.error().message;
    ASSERT_TRUE(engine.run().io.ok());
    EXPECT_EQ(serialize_state(engine.state()), reference);
}

}  // namespace
}  // namespace unicert::threat::scenario
