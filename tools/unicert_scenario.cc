// unicert_scenario: the population-scale threat traffic simulation as a
// CLI (DESIGN.md section 15).
//
//   unicert_scenario --run       start a fresh scenario run in --state DIR
//   unicert_scenario --resume    continue a run after a crash
//   unicert_scenario --status    print the last committed generation
//
// Traffic is synthesized as a pure function of (seed, user index) —
// nothing is materialized — and streamed through the middlebox /
// client / browser / monitor profile fleets, with a CAA-interlink
// dimension composed with the monitor queries. State persists as
// checksummed `unicert-scenario-v1` checkpoint generations in --state
// DIR; kill -9 at any point and `--resume` continues byte-equivalently
// to an uninterrupted run. Reported rates carry Wilson 95% intervals
// whose bounds widen for quarantined users instead of absorbing them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/fs.h"
#include "core/resilience.h"
#include "threat/scenario/engine.h"
#include "threat/scenario/stats.h"

using namespace unicert;
namespace scenario = unicert::threat::scenario;

namespace {

constexpr const char* kUsage = R"(unicert_scenario - population-scale threat traffic simulation

usage: unicert_scenario [mode] [options]

modes (default --run):
  --run                 start a fresh scenario run in --state DIR (refuses
                        to clobber an existing one)
  --resume              continue a run from its newest valid checkpoint
                        generation (traffic parameters come from the
                        checkpoint, not the flags)
  --status              print the last committed generation

options:
  --state DIR           checkpoint state directory (required)
  --users N             total simulated users to consume (required for
                        --run/--resume; a resume continues toward N)
  --seed N              traffic seed (default 42)
  --dose R              adversarial handshake fraction [0,1] (default 0.01)
  --caa-adoption R      per-victim CAA adoption rate [0,1] (default 0.055)
  --jobs N              shard evaluation workers (default 1)
  --shard N             users per shard (default 512)
  --checkpoint-every N  shards per committed generation (default 8)
  --flake-rate R        injected transient profile-fault rate [0,1]
  --poison-rate R       injected permanent profile-fault rate [0,1]
  --json                emit the rate table as JSON on stdout
  --help                this text

exit codes:
  0   success: run reached its user bound
  64  usage error (unknown flag, missing argument, bad number, run
      without --users)
  65  --run refused: --state DIR already holds a scenario (use --resume
      to continue it)
  66  state directory unreadable or no valid checkpoint to resume
  74  I/O error committing a checkpoint
)";

struct Options {
    enum class Mode { kRun, kResume, kStatus };
    Mode mode = Mode::kRun;
    std::string state_dir;
    uint64_t users = 0;
    uint64_t seed = 42;
    double dose = 0.01;
    double caa_adoption = 0.055;
    size_t jobs = 1;
    size_t shard = 512;
    uint64_t checkpoint_every = 8;
    double flake_rate = 0.0;
    double poison_rate = 0.0;
    bool json = false;
};

bool parse_double(const char* s, double* out) {
    char* end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0' && *out >= 0.0 && *out <= 1.0;
}

bool parse_u64(const char* s, uint64_t* out) {
    char* end = nullptr;
    *out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

int parse_args(int argc, char** argv, Options* opts) {
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "unicert_scenario: %s requires a value\n", argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        auto need_u64 = [&](uint64_t* out) {
            const char* v = need_value();
            return v != nullptr && parse_u64(v, out);
        };
        auto need_rate = [&](double* out) {
            const char* v = need_value();
            return v != nullptr && parse_double(v, out);
        };
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--run") {
            opts->mode = Options::Mode::kRun;
        } else if (arg == "--resume") {
            opts->mode = Options::Mode::kResume;
        } else if (arg == "--status") {
            opts->mode = Options::Mode::kStatus;
        } else if (arg == "--state") {
            const char* v = need_value();
            if (!v) return 64;
            opts->state_dir = v;
        } else if (arg == "--users") {
            if (!need_u64(&opts->users)) return 64;
        } else if (arg == "--seed") {
            if (!need_u64(&opts->seed)) return 64;
        } else if (arg == "--dose") {
            if (!need_rate(&opts->dose)) return 64;
        } else if (arg == "--caa-adoption") {
            if (!need_rate(&opts->caa_adoption)) return 64;
        } else if (arg == "--jobs") {
            uint64_t n = 0;
            if (!need_u64(&n) || n == 0) return 64;
            opts->jobs = static_cast<size_t>(n);
        } else if (arg == "--shard") {
            uint64_t n = 0;
            if (!need_u64(&n) || n == 0) return 64;
            opts->shard = static_cast<size_t>(n);
        } else if (arg == "--checkpoint-every") {
            if (!need_u64(&opts->checkpoint_every)) return 64;
        } else if (arg == "--flake-rate") {
            if (!need_rate(&opts->flake_rate)) return 64;
        } else if (arg == "--poison-rate") {
            if (!need_rate(&opts->poison_rate)) return 64;
        } else if (arg == "--json") {
            opts->json = true;
        } else {
            std::fprintf(stderr, "unicert_scenario: unknown argument %s (try --help)\n",
                         argv[i]);
            return 64;
        }
    }
    return 0;
}

scenario::ScenarioOptions engine_options(const Options& o) {
    scenario::ScenarioOptions so;
    so.traffic.seed = o.seed;
    so.traffic.dose = o.dose;
    so.traffic.caa_adoption = o.caa_adoption;
    so.users = o.users;
    so.jobs = o.jobs;
    so.shard_size = o.shard;
    so.checkpoint_every = o.checkpoint_every;
    so.flake_rate = o.flake_rate;
    so.poison_rate = o.poison_rate;
    return so;
}

uint64_t tally(const scenario::ScenarioState& state, const char* key) {
    auto it = state.tallies.find(key);
    return it == state.tallies.end() ? 0 : it->second;
}

void print_rate_row(const char* label, const scenario::RateEstimate& est, bool json,
                    bool* first) {
    if (json) {
        std::printf("%s\n    {\"name\": \"%s\", \"rate\": %.6f, \"ci_low\": %.6f, "
                    "\"ci_high\": %.6f, \"successes\": %llu, \"trials\": %llu, "
                    "\"quarantined\": %llu}",
                    *first ? "" : ",", label, est.rate, est.ci_low, est.ci_high,
                    static_cast<unsigned long long>(est.successes),
                    static_cast<unsigned long long>(est.trials),
                    static_cast<unsigned long long>(est.quarantined));
        *first = false;
    } else {
        std::printf("  %-28s %8.4f  [%.4f, %.4f]  (%llu/%llu, %llu quarantined)\n", label,
                    est.rate, est.ci_low, est.ci_high,
                    static_cast<unsigned long long>(est.successes),
                    static_cast<unsigned long long>(est.trials),
                    static_cast<unsigned long long>(est.quarantined));
    }
}

// The headline dose-response rates: denominators are adversarial users
// for detection dimensions, all evaluated users for prevalence.
void print_report(const scenario::ScenarioState& state, bool json) {
    uint64_t adversarial = tally(state, "users_adversarial");
    uint64_t q = state.quarantined;
    struct Row {
        const char* label;
        const char* key;
    };
    const Row rows[] = {
        {"mb_any_flagged", "mb_any_flagged"},
        {"mb_all_evaded", "mb_all_evaded"},
        {"monitor_any_surfaced", "monitor_any_surfaced"},
        {"caa_flagged", "caa_flagged"},
        {"joint_detected", "joint_detected"},
        {"detected_any", "detected_any"},
        {"browser_any_spoofed", "browser_any_spoofed"},
    };
    bool first = true;
    if (json) {
        std::printf("{\n  \"users\": %llu,\n  \"evaluated\": %llu,\n  "
                    "\"quarantined\": %llu,\n  \"adversarial\": %llu,\n  \"rates\": [",
                    static_cast<unsigned long long>(state.next_user),
                    static_cast<unsigned long long>(state.evaluated),
                    static_cast<unsigned long long>(q),
                    static_cast<unsigned long long>(adversarial));
    } else {
        std::printf("rates over %llu adversarial users (95%% Wilson, quarantine-widened):\n",
                    static_cast<unsigned long long>(adversarial));
    }
    for (const Row& row : rows) {
        scenario::RateEstimate est =
            scenario::estimate_rate(tally(state, row.key), adversarial, q);
        print_rate_row(row.label, est, json, &first);
    }
    if (json) std::printf("\n  ]\n}\n");
}

int run_scenario(const Options& o, bool fresh) {
    if (o.state_dir.empty()) {
        std::fprintf(stderr, "unicert_scenario: %s requires --state DIR\n",
                     fresh ? "--run" : "--resume");
        return 64;
    }
    if (o.users == 0) {
        std::fprintf(stderr, "unicert_scenario: set --users N; unbounded runs are refused\n");
        return 64;
    }

    core::ManualClock clock;  // injected-fault backoff burns simulated time only
    scenario::ScenarioEngine engine(engine_options(o), core::real_fs(), o.state_dir, clock);

    // Recovery is read-only, so probing before a fresh run is safe even
    // while another process is committing to the same directory.
    auto recovered = engine.resume();
    if (fresh) {
        if (recovered.ok()) {
            std::fprintf(stderr,
                         "unicert_scenario: %s already holds a scenario (gen %llu); use "
                         "--resume to continue it or point --state elsewhere\n",
                         o.state_dir.c_str(),
                         static_cast<unsigned long long>(recovered->generation));
            return 65;
        }
        if (recovered.error().code != "scenario_no_checkpoint") {
            std::fprintf(stderr, "unicert_scenario: %s\n", recovered.error().message.c_str());
            return 66;
        }
        if (Status st = engine.start_fresh(); !st.ok()) {
            std::fprintf(stderr, "unicert_scenario: cannot start: %s\n",
                         st.error().message.c_str());
            return 74;
        }
        std::printf("scenario: started in %s (seed=%llu dose=%.4f)\n", o.state_dir.c_str(),
                    static_cast<unsigned long long>(o.seed), o.dose);
    } else {
        if (!recovered.ok()) {
            std::fprintf(stderr, "unicert_scenario: cannot resume: %s\n",
                         recovered.error().message.c_str());
            return 66;
        }
        for (const std::string& note : recovered->notes) {
            std::fprintf(stderr, "unicert_scenario: recovery: %s\n", note.c_str());
        }
        std::printf("scenario: resumed %s at %s\n", o.state_dir.c_str(),
                    scenario::describe_state(engine.state(), recovered->generation).c_str());
    }

    scenario::ScenarioReport report = engine.run();
    if (!report.io.ok()) {
        std::fprintf(stderr, "unicert_scenario: run aborted: %s: %s\n",
                     report.io.error().code.c_str(), report.io.error().message.c_str());
        return 74;
    }
    std::printf("scenario: %s\n",
                scenario::describe_state(engine.state(), engine.state().shards_done).c_str());
    std::printf("run: users=%llu retried=%llu quarantined=%llu checkpoints=%llu\n",
                static_cast<unsigned long long>(report.users_processed),
                static_cast<unsigned long long>(report.retried),
                static_cast<unsigned long long>(report.quarantined),
                static_cast<unsigned long long>(report.checkpoints));
    print_report(engine.state(), o.json);
    return 0;
}

int run_status(const Options& o) {
    if (o.state_dir.empty()) {
        std::fprintf(stderr, "unicert_scenario: --status requires --state DIR\n");
        return 64;
    }
    core::ManualClock clock;
    scenario::ScenarioEngine engine(engine_options(o), core::real_fs(), o.state_dir, clock);
    auto recovered = engine.resume();
    if (!recovered.ok()) {
        std::fprintf(stderr, "unicert_scenario: %s\n", recovered.error().message.c_str());
        return 66;
    }
    for (const std::string& note : recovered->notes) {
        std::fprintf(stderr, "unicert_scenario: recovery: %s\n", note.c_str());
    }
    std::printf("status: %s\n",
                scenario::describe_state(engine.state(), recovered->generation).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options opts;
    if (int rc = parse_args(argc, argv, &opts); rc != 0) return rc;
    switch (opts.mode) {
        case Options::Mode::kRun: return run_scenario(opts, /*fresh=*/true);
        case Options::Mode::kResume: return run_scenario(opts, /*fresh=*/false);
        case Options::Mode::kStatus: return run_status(opts);
    }
    return 0;
}
