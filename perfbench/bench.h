// Shared plumbing of the end-to-end benchmark program: run arguments,
// the result a workload hands back, timing and percentile helpers,
// peak-RSS sampling, and the in-memory span tracer used by traced runs.
//
// The tracer lives only in this directory: spans wrap the public calls
// the benchmark itself makes into x509, lint, core, crypto and ctlog.
// Nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_run";  // where traced runs write their spans
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

// What one workload run reports. `attempted` and `failed` count the
// workload's own unit (certificates, queries or rounds); `notes` are
// human-readable "key: value" lines printed before the result line.
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    // `units` more of the workload's unit attempted, `bad` of them failed
    // an oracle.
    void tally(uint64_t units, uint64_t bad) {
        attempted += units;
        failed += bad < units ? bad : units;
    }
};

double now_s();
uint64_t now_ns();
double process_cpu_s();  // CPU time of all threads of this process

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

// Peak resident set size (VmHWM) since the last reset, in MiB.
double peak_rss_mib();
// Returns freed heap to the kernel and restarts VmHWM at the current
// RSS, so the next peak_rss_mib() covers only what follows.
bool reset_peak_rss();

// Heap allocations made by the calling thread while counting is on
// (the binary replaces global operator new to count them).
void count_allocations(bool on);
uint64_t counted_allocations();

// ---- tracing ----------------------------------------------------------------

struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;    // index of the enclosing span, -1 for a root
    uint64_t request;  // certificate, query or round this span served
};

struct LayerTotals {
    uint64_t calls = 0;
    double total_s = 0;  // summed span durations
    double self_s = 0;   // minus the time child spans cover
};

// Single-threaded span recorder. Disabled tracers record nothing, so the
// untraced runs pay one branch per wrapped call.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }

    int64_t begin(const char* name, uint64_t request);
    void end(int64_t id);

    // Sums a count observed at a span boundary (results, rungs, bytes).
    void count(const std::string& name, double value);
    double counter(const std::string& name) const;

    std::map<std::string, LayerTotals> layers() const;
    LayerTotals layer(const std::string& name) const;
    double mean_us(const std::string& name) const;

    // One line per span: id, parent, request, name, start_ns, end_ns.
    bool write(const std::string& path) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
    std::map<std::string, double> counters_;
};

class ScopedSpan {
public:
    ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
        : tracer_(&tracer), id_(tracer.enabled() ? tracer.begin(name, request) : -1) {}
    ~ScopedSpan() {
        if (id_ >= 0) tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    Tracer* tracer_;
    int64_t id_;
};

// Prints each layer's calls, self time and share of `e2e_s`, the
// workload's end-to-end time over the same traced section. Spans marked
// "beside" repeat, next to the path, a call the path makes internally
// (or run a subset of it); their share estimates that inner cost.
void print_layer_table(const Tracer& tracer, double e2e_s, const std::string& title);

// ---- workloads --------------------------------------------------------------

// Untraced runs set up this many times and report the median as setup_s.
constexpr int kSetups = 5;

Outcome run_census(const Args& args);
Outcome run_monitor_read(const Args& args);
Outcome run_monitor_ingest(const Args& args);

}  // namespace perfbench
