// Parse + lint hot path: certs/sec and heap allocation counts for
// (a) the owning parse_certificate, (b) the arena-backed
// LazyCertificate index, and (c) the owning parse feeding the full /
// a narrowed lint registry. The parity gate re-checks that every
// cert's index()->materialize() equals parse_certificate, so a faster
// index that changed a decoded field fails the run.
//
// Emits BENCH_parse_zero_copy.json.
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/arena.h"
#include "lint/lint.h"
#include "x509/lazy.h"
#include "x509/parser.h"

// ---- Heap instrumentation: replacement global new/delete -------------------

namespace {
std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace unicert;

namespace {

double now_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Phase {
    std::string name;
    double seconds = 0.0;        // per repetition
    double certs_per_sec = 0.0;
    double allocs_per_cert = 0.0;
    double bytes_per_cert = 0.0;
};

template <typename Fn>
Phase measure(const std::string& name, size_t certs, int repetitions, Fn&& fn) {
    fn();  // warm up caches, arenas, lazy statics — untimed
    uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
    uint64_t bytes0 = g_heap_bytes.load(std::memory_order_relaxed);
    double start = now_seconds();
    for (int r = 0; r < repetitions; ++r) fn();
    Phase phase;
    phase.name = name;
    phase.seconds = (now_seconds() - start) / repetitions;
    phase.certs_per_sec = certs / phase.seconds;
    double total = static_cast<double>(certs) * repetitions;
    phase.allocs_per_cert =
        (g_heap_allocs.load(std::memory_order_relaxed) - allocs0) / total;
    phase.bytes_per_cert =
        (g_heap_bytes.load(std::memory_order_relaxed) - bytes0) / total;
    return phase;
}

}  // namespace

int main(int argc, char** argv) {
    int repetitions = 3;
    if (argc > 1) repetitions = std::max(1, std::atoi(argv[1]));

    bench::print_header("Parse + lint hot path — owned parse vs arena-backed index",
                        "DESIGN.md §13 zero-copy decode");

    // Wire-form corpus: the zero-copy path starts from DER bytes, so
    // certificates must actually be signed/serialized.
    std::vector<Bytes> ders;
    {
        ctlog::CorpusGenerator gen({.seed = 42, .scale = 10000.0, .sign_certificates = true});
        for (ctlog::CorpusCert& c : gen.generate()) ders.push_back(std::move(c.cert.der));
    }
    const size_t n = ders.size();
    std::printf("corpus size          | %zu signed certs, %d repetitions per phase\n\n", n,
                repetitions);

    const lint::Registry& full = lint::default_registry();
    lint::Registry narrow;
    for (size_t i = 0; i < full.size() && narrow.size() < 12; ++i) {
        narrow.add(full.rules()[i]);
    }

    core::Arena arena;
    std::vector<Phase> phases;

    phases.push_back(measure("parse owned", n, repetitions, [&] {
        for (const Bytes& der : ders) {
            auto cert = x509::parse_certificate(der);
            if (!cert.ok()) std::abort();
        }
    }));
    phases.push_back(measure("index zero-copy", n, repetitions, [&] {
        for (const Bytes& der : ders) {
            core::ArenaScope scope(arena);
            auto lazy = x509::LazyCertificate::index(der, &arena);
            if (!lazy.ok()) std::abort();
        }
    }));
    phases.push_back(measure("parse+lint owned (full registry)", n, repetitions, [&] {
        for (const Bytes& der : ders) {
            auto cert = x509::parse_certificate(der);
            (void)lint::run_lints(cert.value(), full);
        }
    }));
    phases.push_back(measure("parse+lint owned (narrow registry)", n, repetitions, [&] {
        for (const Bytes& der : ders) {
            auto cert = x509::parse_certificate(der);
            (void)lint::run_lints(cert.value(), narrow);
        }
    }));

    // Parity gate (untimed): the arena-backed index of every cert must
    // materialize to exactly the owning parse.
    bool parity = true;
    for (const Bytes& der : ders) {
        auto owned = x509::parse_certificate(der);
        core::ArenaScope scope(arena);
        auto lazy = x509::LazyCertificate::index(der, &arena);
        if (!owned.ok() || !lazy.ok() || lazy->materialize() != owned.value()) {
            parity = false;
            break;
        }
    }

    core::TextTable table({"Phase", "Certs/sec", "Allocs/cert", "Heap B/cert"});
    for (const Phase& p : phases) {
        char allocs[32], bytes[32];
        std::snprintf(allocs, sizeof(allocs), "%.1f", p.allocs_per_cert);
        std::snprintf(bytes, sizeof(bytes), "%.0f", p.bytes_per_cert);
        table.add_row({p.name, core::with_commas(static_cast<size_t>(p.certs_per_sec)),
                       allocs, bytes});
    }
    std::fputs(table.to_string().c_str(), stdout);
    std::printf("\nparse speedup (index vs owned)        | %.2fx\n",
                phases[0].seconds / phases[1].seconds);
    std::printf("parity                                | %s\n", parity ? "OK" : "DIVERGED");

    std::FILE* f = std::fopen("BENCH_parse_zero_copy.json", "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n  \"benchmark\": \"bench_parse_zero_copy\",\n");
        std::fprintf(f, "  \"corpus_certs\": %zu,\n  \"repetitions\": %d,\n", n, repetitions);
        std::fprintf(f, "  \"phases\": [\n");
        for (size_t i = 0; i < phases.size(); ++i) {
            const Phase& p = phases[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"seconds\": %.6f, \"certs_per_sec\": %.1f, "
                         "\"allocs_per_cert\": %.2f, \"heap_bytes_per_cert\": %.1f}%s\n",
                         p.name.c_str(), p.seconds, p.certs_per_sec, p.allocs_per_cert,
                         p.bytes_per_cert, i + 1 < phases.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"parse_speedup\": %.3f,\n", phases[0].seconds / phases[1].seconds);
        std::fprintf(f, "  \"parity\": %s\n}\n", parity ? "true" : "false");
        std::fclose(f);
        std::printf("\nbaseline written to BENCH_parse_zero_copy.json\n");
    }

    if (!parity) {
        std::printf("PARITY FAILURE: index+materialize diverged from the owning parse\n");
        return 1;
    }
    return 0;
}
