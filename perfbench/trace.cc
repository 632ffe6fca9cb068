#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string_view>

#include "bench.h"

// Counting allocator: every heap allocation in the binary goes through
// here, and the calling thread's counter only advances while counting
// is switched on (the lint span of a traced run).
namespace {
thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
    if (t_counting) ++t_allocations;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t now_ns() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
        }
    }
    return 0;
}

bool reset_peak_rss() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

void count_allocations(bool on) { t_counting = on; }
uint64_t counted_allocations() { return t_allocations; }

int64_t Tracer::begin(const char* name, uint64_t request) {
    int64_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_ns(), 0, parent, request});
    int64_t id = static_cast<int64_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void Tracer::end(int64_t id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
    if (enabled_) counters_[name] += value;
}

double Tracer::counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, LayerTotals> Tracer::layers() const {
    std::vector<double> child_s(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += (s.end_ns - s.start_ns) * 1e-9;
    }
    std::map<std::string, LayerTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        double dur = (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
        LayerTotals& t = out[spans_[i].name];
        ++t.calls;
        t.total_s += dur;
        t.self_s += dur - child_s[i];
    }
    return out;
}

LayerTotals Tracer::layer(const std::string& name) const {
    LayerTotals t;
    for (const Span& s : spans_) {
        if (name != s.name) continue;
        ++t.calls;
        t.total_s += (s.end_ns - s.start_ns) * 1e-9;
    }
    return t;
}

double Tracer::mean_us(const std::string& name) const {
    LayerTotals t = layer(name);
    return t.calls == 0 ? 0 : t.total_s * 1e6 / static_cast<double>(t.calls);
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu,%lld,%llu,%s,%llu,%llu\n", i, static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

void print_layer_table(const Tracer& tracer, double e2e_s, const std::string& title) {
    std::printf("%s (end-to-end %.3f s)\n", title.c_str(), e2e_s);
    std::printf("  %-34s %10s %12s %12s %8s\n", "span", "calls", "self_ms", "mean_us", "share");
    for (const auto& [name, t] : tracer.layers()) {
        std::string_view n = name;
        bool beside = n == "ctlog.index.valid_for" || n == "ctlog.merkle.root_at" ||
                      n == "ctlog.index.build" || n.rfind("lint.t", 0) == 0;
        std::printf("  %-34s %10llu %12.3f %12.3f %7.2f%%%s\n", name.c_str(),
                    static_cast<unsigned long long>(t.calls), t.self_s * 1e3,
                    t.calls ? t.total_s * 1e6 / static_cast<double>(t.calls) : 0.0,
                    e2e_s > 0 ? 100.0 * t.self_s / e2e_s : 0.0, beside ? " beside" : "");
    }
}

}  // namespace perfbench
