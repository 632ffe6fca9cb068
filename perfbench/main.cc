// perfbench: the end-to-end benchmark of the paper's two paths.
//
//   perfbench --workload census|monitor_read|monitor_ingest --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// Inputs are generated from --seed; the library only ever sees those
// inputs. --trace 0 measures the end-to-end metrics with no tracing;
// --trace 1 is a separate run that wraps the public calls each workload
// makes in spans and reports the per-layer metrics. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics. The
// exit code is 0 only when every output oracle passed.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

// Each workload's name for the generic end-to-end metrics.
struct Alias {
    const char* workload;
    const char* metric;
    const char* name;
    double scale;
    const char* unit;
};

constexpr Alias kAliases[] = {
    {"census", "throughput_per_s", "census_certs_per_s", 1, "1/s"},
    {"census", "latency_tail_ms", "census_pass_p75_ms", 1, "ms"},
    {"monitor_read", "throughput_per_s", "query_per_s", 1, "1/s"},
    {"monitor_read", "latency_tail_ms", "query_p90_us", 1e3, "us"},
    {"monitor_ingest", "throughput_per_s", "ingest_entries_per_s", 1, "1/s"},
    {"monitor_ingest", "latency_tail_ms", "append_to_answer_p90_ms", 1, "ms"},
};

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload census|monitor_read|monitor_ingest --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 64;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || args.seconds < 0) return usage();

    Outcome (*run)(const Args&) = nullptr;
    if (args.workload == "census") run = perfbench::run_census;
    if (args.workload == "monitor_read") run = perfbench::run_monitor_read;
    if (args.workload == "monitor_ingest") run = perfbench::run_monitor_ingest;
    if (run == nullptr) return usage();

    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "perfbench: cannot create %s: %s\n", args.workdir.c_str(),
                     ec.message().c_str());
        return 73;
    }

    Outcome out = run(args);
    const bool correct = out.attempted > 0 && out.failed == 0;

    std::printf("workload: %s seed: %llu trace: %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    for (const std::string& line : out.notes) std::printf("  %s\n", line.c_str());
    std::printf("  failed_ratio: %.6g (%llu of %llu)\n",
                out.attempted ? static_cast<double>(out.failed) / out.attempted : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const perfbench::Metric& m : out.metrics) {
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        for (const Alias& a : kAliases) {
            if (args.workload == a.workload && m.name == a.metric) {
                std::printf("  %-40s %16.6f %s\n", a.name, m.value * a.scale, a.unit);
            }
        }
    }

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric& m = out.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + json_escape(m.name) + "\": {\"value\": " + value +
                ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
