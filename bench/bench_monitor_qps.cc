// Monitor query-service throughput: indexed lookups vs the linear-scan
// fallback over the durable store, per Table 6 profile, as the store
// size sweeps. Answers must be byte-identical between the two rungs
// (that parity IS the degradation ladder's correctness claim), so the
// bench doubles as a gate: any indexed/scan divergence — including on
// a stale generation whose appended tail is answered from the delta —
// fails the run, and the largest store size must show the index
// actually beating the scan. Miss queries (empty answers) isolate what
// every query pays besides its result set; their QPS must stay flat as
// the store grows (at least half the smallest size's at the largest),
// or the run fails. The refresh after the stale tail folds the delta
// into the served generation; at the largest size it must take at most
// half the time of the first refresh, a full build plus publish, or
// the run fails. Emits BENCH_monitor_qps.json so later runs can spot
// regressions in the speedup, the miss flatness, the fold or the
// parity gate.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/fs.h"
#include "ctlog/index/matcher.h"
#include "ctlog/index/query.h"
#include "ctlog/monitor.h"
#include "ctlog/store/store.h"
#include "x509/builder.h"
#include "x509/parser.h"

using namespace unicert;
using ctlog::index::QueryOptions;
using ctlog::index::QueryService;
using ctlog::store::PendingEntry;
using ctlog::store::Store;
using ctlog::store::StoreOptions;

namespace {

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// The signed synthetic corpus, generated once (scale 1:4000 of the
// paper's 34.8M Unicerts keeps the largest sweep point CI-friendly).
const std::vector<ctlog::CorpusCert>& signed_corpus() {
    static const std::vector<ctlog::CorpusCert> corpus = [] {
        ctlog::CorpusGenerator gen(
            {.seed = 42, .scale = 4000.0, .sign_certificates = true});
        return gen.generate();
    }();
    return corpus;
}

// Query mix: keys harvested from real corpus entries (guaranteed hits,
// exercising case folding and punycode), substrings of those keys
// (fuzzy path), and guaranteed misses.
std::vector<std::string> make_queries(const Store& store) {
    std::vector<std::string> queries;
    const auto& crtsh = ctlog::monitor_profiles()[0];
    for (size_t i = 0; i < store.size() && queries.size() < 6; i += 97) {
        auto cert = x509::parse_certificate(store.entries()[i].leaf_der);
        if (!cert.ok()) continue;
        auto derived = ctlog::index::derive_record(crtsh.caps, cert.value());
        if (derived.keys.empty()) continue;
        const std::string& key = derived.keys.front();
        queries.push_back(key);
        if (key.size() > 8) queries.push_back(key.substr(2, key.size() - 4));
    }
    queries.push_back("zzz-absent-host.invalid");
    queries.push_back("xn--mnchen-3ya.example");
    queries.push_back("EXAMPLE");  // case-folding + short-needle path
    return queries;
}

struct SizeResult {
    size_t entries = 0;
    double build_s = 0;        // first refresh: full build + publish
    double fold_refresh_s = 0; // refresh after the stale tail: fold + publish
    double index_qps = 0;
    double scan_qps = 0;
    double miss_qps = 0;
    bool parity_ok = true;
};

bool same_answer(const ctlog::index::ServedQuery& a, const ctlog::index::ServedQuery& b) {
    return a.result.query_accepted == b.result.query_accepted &&
           a.result.rejection_reason == b.result.rejection_reason &&
           a.result.cert_ids == b.result.cert_ids;
}

SizeResult run_size(size_t entries) {
    SizeResult result;
    result.entries = entries;

    core::MemFs memfs;
    StoreOptions options;
    options.create_if_missing = true;
    auto store = Store::open(memfs, "bench-qps", options);
    if (!store.ok()) return result;

    const auto& corpus = signed_corpus();
    std::vector<PendingEntry> batch;
    for (size_t i = 0; i < entries; ++i) {
        PendingEntry entry;
        entry.leaf_der = corpus[i % corpus.size()].cert.der;
        entry.timestamp = static_cast<int64_t>(i);
        batch.push_back(std::move(entry));
        if (batch.size() == 512 || i + 1 == entries) {
            if (!(*store)->append_batch(batch).ok()) return result;
            batch.clear();
        }
    }

    QueryService service(memfs, **store);
    double t0 = now_s();
    if (!service.refresh().ok()) return result;
    result.build_s = now_s() - t0;

    std::vector<std::string> queries = make_queries(**store);
    auto profiles = ctlog::monitor_profiles();

    // Parity gate #1: fresh generation, every query x profile.
    for (const auto& profile : profiles) {
        for (const std::string& q : queries) {
            auto indexed = service.query(profile, q, {.use_index = true});
            auto scanned = service.query(profile, q, {.use_index = false});
            if (!same_answer(indexed, scanned) ||
                indexed.path != ctlog::index::QueryPath::kIndex) {
                result.parity_ok = false;
                std::fprintf(stderr, "PARITY FAIL (fresh) %s query '%s'\n",
                             profile.name.c_str(), q.c_str());
            }
        }
    }

    // Parity gate #2: let the index go stale (append without refresh)
    // so indexed answers must add the delta past the basis.
    std::vector<PendingEntry> tail;
    for (size_t i = 0; i < 64; ++i) {
        PendingEntry entry;
        entry.leaf_der = corpus[(entries + i * 7) % corpus.size()].cert.der;
        entry.timestamp = static_cast<int64_t>(entries + i);
        tail.push_back(std::move(entry));
    }
    if (!service.ingest(tail).ok()) return result;
    for (const auto& profile : profiles) {
        for (const std::string& q : queries) {
            auto indexed = service.query(profile, q, {.use_index = true});
            auto scanned = service.query(profile, q, {.use_index = false});
            if (!same_answer(indexed, scanned) || indexed.tail_scanned != tail.size()) {
                result.parity_ok = false;
                std::fprintf(stderr, "PARITY FAIL (stale tail) %s query '%s'\n",
                             profile.name.c_str(), q.c_str());
            }
        }
    }
    t0 = now_s();
    if (!service.refresh().ok()) return result;
    result.fold_refresh_s = now_s() - t0;

    // Throughput. Scan reps shrink with store size so the bench stays
    // bounded; a "query" is one (profile, pattern) evaluation.
    const size_t index_reps = 50;
    const size_t scan_reps = std::max<size_t>(1, 40000 / std::max<size_t>(entries, 1));
    size_t count = 0;
    t0 = now_s();
    for (size_t rep = 0; rep < index_reps; ++rep) {
        for (const auto& profile : profiles) {
            for (const std::string& q : queries) {
                (void)service.query(profile, q, {.use_index = true});
                ++count;
            }
        }
    }
    double elapsed = now_s() - t0;
    result.index_qps = elapsed > 0 ? count / elapsed : 0;

    count = 0;
    t0 = now_s();
    for (size_t rep = 0; rep < scan_reps; ++rep) {
        for (const auto& profile : profiles) {
            for (const std::string& q : queries) {
                (void)service.query(profile, q, {.use_index = false});
                ++count;
            }
        }
    }
    elapsed = now_s() - t0;
    result.scan_qps = elapsed > 0 ? count / elapsed : 0;

    // Miss throughput: patterns no corpus entry holds (like the miss in
    // make_queries), so the answer is empty on every profile. Best of
    // three 0.1 s windows, which keeps a neighbour's burst on a shared
    // machine out of the flatness gate.
    const std::vector<std::string> misses = {"zzz-absent-host.invalid", "qqq-unlogged.invalid"};
    for (int window = 0; window < 3; ++window) {
        count = 0;
        t0 = now_s();
        do {
            for (const auto& profile : profiles) {
                for (const std::string& q : misses) {
                    (void)service.query(profile, q, {.use_index = true});
                    ++count;
                }
            }
            elapsed = now_s() - t0;
        } while (elapsed < 0.1);
        result.miss_qps = std::max(result.miss_qps, count / elapsed);
    }
    return result;
}

void write_json(const std::vector<SizeResult>& results, bool parity_ok,
                bool index_beats_scan, bool miss_flat, bool fold_faster) {
    std::FILE* f = std::fopen("BENCH_monitor_qps.json", "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"sizes\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const SizeResult& r = results[i];
        std::fprintf(f,
                     "    {\"entries\": %zu, \"build_s\": %.6f, \"fold_refresh_ms\": %.3f, "
                     "\"index_qps\": %.1f, \"scan_qps\": %.1f, \"speedup\": %.2f, "
                     "\"miss_qps\": %.1f}%s\n",
                     r.entries, r.build_s, r.fold_refresh_s * 1000.0, r.index_qps, r.scan_qps,
                     r.scan_qps > 0 ? r.index_qps / r.scan_qps : 0.0, r.miss_qps,
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
    std::fprintf(f, "  \"index_at_least_scan\": %s,\n", index_beats_scan ? "true" : "false");
    std::fprintf(f, "  \"miss_qps_flat\": %s,\n", miss_flat ? "true" : "false");
    std::fprintf(f, "  \"fold_refresh_faster\": %s\n", fold_faster ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<size_t> sizes = {500, 2000, 8000};
    if (argc > 1) {
        sizes.clear();
        for (int i = 1; i < argc; ++i) {
            sizes.push_back(static_cast<size_t>(std::stoul(argv[i])));
        }
    }

    bench::print_header("Monitor query service — indexed vs linear-scan throughput",
                        "Table 6 capabilities; DESIGN.md section 12 degradation ladder");

    std::vector<SizeResult> results;
    bool parity_ok = true;
    for (size_t entries : sizes) {
        results.push_back(run_size(entries));
        parity_ok = parity_ok && results.back().parity_ok;
    }

    core::TextTable table({"Entries", "Index build ms", "Fold refresh ms", "Index QPS",
                           "Scan QPS", "Speedup", "Miss QPS", "Parity"});
    for (const SizeResult& r : results) {
        table.add_row({core::with_commas(r.entries),
                       std::to_string(r.build_s * 1000.0).substr(0, 6),
                       std::to_string(r.fold_refresh_s * 1000.0).substr(0, 6),
                       core::with_commas(static_cast<size_t>(r.index_qps)),
                       core::with_commas(static_cast<size_t>(r.scan_qps)),
                       std::to_string(r.scan_qps > 0 ? r.index_qps / r.scan_qps : 0.0)
                           .substr(0, 5) + "x",
                       core::with_commas(static_cast<size_t>(r.miss_qps)),
                       r.parity_ok ? "ok" : "FAIL"});
    }
    std::printf("%s\n", table.to_string().c_str());

    const SizeResult& largest = results.back();
    bool index_beats_scan = largest.index_qps > largest.scan_qps;
    std::printf("parity_ok            | %s\n", parity_ok ? "true" : "false");
    std::printf("index_at_least_scan  | %s (at %zu entries)\n",
                index_beats_scan ? "true" : "false", largest.entries);

    auto by_size = [](const SizeResult& a, const SizeResult& b) { return a.entries < b.entries; };
    const SizeResult& smallest = *std::min_element(results.begin(), results.end(), by_size);
    const SizeResult& biggest = *std::max_element(results.begin(), results.end(), by_size);
    bool miss_flat = biggest.miss_qps >= 0.5 * smallest.miss_qps;
    std::printf("miss_qps_flat        | %s (%zu entries: %.0f/s, %zu entries: %.0f/s)\n",
                miss_flat ? "true" : "false", smallest.entries, smallest.miss_qps,
                biggest.entries, biggest.miss_qps);

    // The fold copies the served generation, adds the 64 tail records
    // and publishes; the build parses and derives every entry.
    bool fold_faster = 2.0 * largest.fold_refresh_s <= largest.build_s;
    std::printf("fold_refresh_faster  | %s (at %zu entries: fold %.2f ms, build %.2f ms)\n",
                fold_faster ? "true" : "false", largest.entries,
                largest.fold_refresh_s * 1000.0, largest.build_s * 1000.0);

    write_json(results, parity_ok, index_beats_scan, miss_flat, fold_faster);
    std::printf("baseline written to BENCH_monitor_qps.json\n");
    return (parity_ok && index_beats_scan && miss_flat && fold_faster) ? 0 : 1;
}
