// monitor_read and monitor_ingest: a CT-log append to an answered
// Table 6 monitor query, over the durable store and QueryService. The
// store keeps its default flush policy (sync per commit, head snapshot
// every commit) and writes through core::MemFs: the benchmark may write
// only inside its checkout, and a disk there would put the device's
// fsync noise into every latency instead of the program's own cost.
//
//  * monitor_read: 8,192 entries appended in 512-entry batches, the
//    store closed and reopened as a restarting monitor would, one
//    refresh(), then one closed-loop client sending a seeded mix over
//    the five Table 6 profiles. Per-query cost should follow the result
//    set, not the store size.
//  * monitor_ingest: appends beside reads. From 2,048 entries and a
//    fresh index, each round ingests a 4-entry batch and at once asks
//    for the newest entry; refresh() runs after every 512 entries.
//    Every lap restarts from the same 2,048-entry store, so a faster
//    program runs more identical laps instead of a bigger store.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/fs.h"
#include "ctlog/corpus.h"
#include "ctlog/index/index.h"
#include "ctlog/index/matcher.h"
#include "ctlog/index/query.h"
#include "ctlog/store/store.h"
#include "idna/labels.h"
#include "layers.h"
#include "x509/parser.h"

namespace perfbench {

using namespace unicert;
using ctlog::index::derive_record;
using ctlog::index::DerivedRecord;
using ctlog::index::QueryPath;
using ctlog::index::QueryService;
using ctlog::index::ServedQuery;
using ctlog::store::PendingEntry;
using ctlog::store::Store;

namespace {

constexpr double kMonitorScale = 4000.0;
constexpr size_t kSetupBatch = 512;
constexpr size_t kReadEntries = 8192;
constexpr size_t kIngestStart = 2048;
constexpr size_t kIngestBatch = 4;
constexpr size_t kRefreshEvery = 512;  // appended entries between refresh() calls
constexpr size_t kRoundsPerLap = 512;
// Samples a run holds at least, so its p99 has ten beyond it. The gated
// tail is the p90: on a shared machine one burst of noise from other
// tenants covers the slowest 1% of a run, not the slowest 10%.
constexpr size_t kMinSamples = 1000;
constexpr size_t kOracleThreads = 4;

// ---- counting filesystem ----------------------------------------------------

// Bytes written and syncs issued by the store and the index publisher.
struct FsCounts {
    uint64_t bytes = 0;
    uint64_t syncs = 0;
};

class CountingFile final : public core::File {
public:
    CountingFile(core::FilePtr inner, FsCounts& counts)
        : inner_(std::move(inner)), counts_(&counts) {}

    Expected<size_t> write(BytesView data) override {
        Expected<size_t> written = inner_->write(data);
        if (written.ok()) counts_->bytes += *written;
        return written;
    }
    Status sync() override {
        ++counts_->syncs;
        return inner_->sync();
    }
    Status close() override { return inner_->close(); }

private:
    core::FilePtr inner_;
    FsCounts* counts_;
};

class CountingFs final : public core::Fs {
public:
    explicit CountingFs(core::Fs& inner) : inner_(&inner) {}

    FsCounts counts;

    Expected<core::FilePtr> open_append(const std::string& path) override {
        return wrap(inner_->open_append(path));
    }
    Expected<core::FilePtr> create(const std::string& path) override {
        return wrap(inner_->create(path));
    }
    Expected<Bytes> read_file(const std::string& path) override { return inner_->read_file(path); }
    Expected<bool> exists(const std::string& path) override { return inner_->exists(path); }
    Status rename(const std::string& from, const std::string& to) override {
        return inner_->rename(from, to);
    }
    Status remove(const std::string& path) override { return inner_->remove(path); }
    Status make_dirs(const std::string& path) override { return inner_->make_dirs(path); }
    Expected<std::vector<std::string>> list_dir(const std::string& path) override {
        return inner_->list_dir(path);
    }
    Status sync_dir(const std::string& path) override {
        ++counts.syncs;
        return inner_->sync_dir(path);
    }
    Expected<core::MappedPtr> map_readonly(const std::string& path) override {
        return inner_->map_readonly(path);
    }

private:
    Expected<core::FilePtr> wrap(Expected<core::FilePtr> file) {
        if (!file.ok()) return file;
        return core::FilePtr(std::make_unique<CountingFile>(std::move(file.value()), counts));
    }

    core::Fs* inner_;
};

// What the append path wrote, per commit and per leaf byte.
struct AppendCounts {
    uint64_t commits = 0;
    uint64_t leaf_bytes = 0;
    FsCounts fs;
};

// ---- store + service ---------------------------------------------------------

constexpr const char* kStoreDir = "store";

// A store, the query service over it, and the filesystem both write to.
// Members are destroyed bottom-up, so the filesystem outlives its users.
struct Served {
    std::unique_ptr<core::MemFs> memory = std::make_unique<core::MemFs>();
    std::unique_ptr<CountingFs> fs = std::make_unique<CountingFs>(*memory);
    std::unique_ptr<Store> store;
    std::unique_ptr<QueryService> service;
};

Status append_counted(CountingFs& fs, AppendCounts& counts, const std::function<Status()>& append,
                      std::span<const PendingEntry> batch) {
    FsCounts before = fs.counts;
    Status status = append();
    counts.fs.bytes += fs.counts.bytes - before.bytes;
    counts.fs.syncs += fs.counts.syncs - before.syncs;
    ++counts.commits;
    for (const PendingEntry& e : batch) counts.leaf_bytes += e.leaf_der.size();
    return status;
}

void refresh(Served& s, Tracer& tracer, uint64_t request, double& shadow_s, bool& ok) {
    {
        ScopedSpan span(tracer, "ctlog.index.refresh", request);
        ok = s.service->refresh().ok() && ok;
    }
    if (tracer.enabled()) {
        // Side-effect-free build of the same generation: refresh minus
        // build is the publish (write, sync, rename, prune) cost. The
        // probe, its generation's destruction included, is kept out of
        // the loop time.
        double t0 = now_s();
        {
            ScopedSpan span(tracer, "ctlog.index.build", request);
            ctlog::index::IndexGeneration generation = ctlog::index::build_index(*s.store, 0);
        }
        shadow_s += now_s() - t0;
    }
}

// Appends ders[0, n) in 512-entry batches to a new store, closes it,
// reopens it as a restarting monitor would, and serves a fresh index.
std::optional<Served> serve_store(const std::vector<BytesView>& ders, size_t n, Tracer& tracer,
                                  AppendCounts& counts) {
    Served served;
    {
        auto created = Store::open(*served.fs, kStoreDir, {.create_if_missing = true});
        if (!created.ok()) return std::nullopt;
        std::vector<PendingEntry> batch;
        for (size_t i = 0; i < n; ++i) {
            BytesView der = ders[i % ders.size()];
            batch.push_back({Bytes(der.begin(), der.end()), static_cast<int64_t>(i)});
            if (batch.size() == kSetupBatch || i + 1 == n) {
                ScopedSpan span(tracer, "ctlog.store.append", i / kSetupBatch);
                Store& store = **created;
                Status s = append_counted(
                    *served.fs, counts, [&] { return store.append_batch(batch); }, batch);
                if (!s.ok()) return std::nullopt;
                batch.clear();
            }
        }
    }
    {
        ScopedSpan span(tracer, "ctlog.store.reopen", 0);
        auto reopened = Store::open(*served.fs, kStoreDir);
        if (!reopened.ok() || (*reopened)->size() != n) return std::nullopt;
        served.store = std::move(reopened.value());
    }
    served.service = std::make_unique<QueryService>(*served.fs, *served.store);
    double shadow = 0;
    bool ok = true;
    refresh(served, tracer, 0, shadow, ok);
    if (!ok) return std::nullopt;
    return served;
}

// ---- requests -----------------------------------------------------------------

enum class Kind { kExact, kFuzzy, kShort, kMiss, kUnicode, kSpecial };
constexpr size_t kKinds = 6;
constexpr const char* kKindNames[kKinds] = {"exact",   "fuzzy",   "short_needle",
                                            "miss",    "unicode_punycode", "special_unicode"};
// Requests per (profile, kind) in monitor_read's pool; the loop
// draws from the pool uniformly. There is no traffic data on monitor
// queries, so the mix is unweighted: every kind and every profile gets
// the same share. That is an assumption, not a measurement.
constexpr size_t kPoolPerKind = 6;

struct Request {
    Kind kind = Kind::kExact;
    size_t profile = 0;
    std::string pattern;
    uint8_t mask = 0;
    size_t source = SIZE_MAX;  // entry the key was harvested from
};

ServedQuery serve(QueryService& service, const Request& r, bool use_index) {
    const ctlog::MonitorProfile& profile = ctlog::monitor_profiles()[r.profile];
    return r.kind == Kind::kSpecial
               ? service.special_unicode(profile, r.mask, {.use_index = use_index})
               : service.query(profile, r.pattern, {.use_index = use_index});
}

bool same_answer(const ServedQuery& a, const ServedQuery& b) {
    return a.result.query_accepted == b.result.query_accepted &&
           a.result.rejection_reason == b.result.rejection_reason &&
           a.result.cert_ids == b.result.cert_ids;
}

// One request through the index rung. When a traced query reached the
// index, the two checks it made internally are then called again with
// the same arguments (nothing changes the store or the served
// generation in between), so their cost can be read against the
// query's; that time is excluded from the request's latency and
// reported in `shadow_s`.
ServedQuery timed_query(Served& s, const Request& r, Tracer& tracer, uint64_t request,
                        double& shadow_s) {
    ServedQuery served;
    double t0 = now_s();
    {
        ScopedSpan span(tracer, "ctlog.index.query", request);
        served = serve(*s.service, r, true);
    }
    double query_s = now_s() - t0;
    if (!tracer.enabled()) return served;

    tracer.count("queries", 1);
    tracer.count("results", static_cast<double>(served.result.cert_ids.size()));
    if (!served.result.query_accepted) return served;
    tracer.count("accepted", 1);
    tracer.count("tail_scanned", static_cast<double>(served.tail_scanned));
    auto pinned = s.service->pin();
    if (served.path != QueryPath::kIndex || !pinned) return served;
    tracer.count("rung_index", 1);
    tracer.count("rung_index_query_s", query_s);
    double t1 = now_s();
    {
        ScopedSpan span(tracer, "ctlog.index.valid_for", request);
        (void)ctlog::index::generation_valid_for(*s.store, *pinned);
    }
    {
        ScopedSpan span(tracer, "ctlog.merkle.root_at", request);
        (void)s.store->tree().root_at(pinned->basis_size);
    }
    shadow_s += now_s() - t1;
    return served;
}

std::optional<x509::Certificate> parse_entry(BytesView der) {
    auto cert = x509::parse_certificate(der);
    if (!cert.ok() || cert->is_precertificate()) return std::nullopt;
    return std::move(cert.value());
}

// Keys of `record` at least `min_len` long that its profile accepts as
// queries.
std::vector<std::string> queryable_keys(const ctlog::MonitorCapabilities& caps,
                                        const DerivedRecord& record, size_t min_len) {
    std::vector<std::string> out;
    if (record.hidden) return out;
    for (const std::string& key : record.keys) {
        if (key.size() >= min_len && !ctlog::index::validate_query(caps, key)) out.push_back(key);
    }
    return out;
}

// The freshness request for a just-appended certificate: its first
// queryable key, trying profiles in rotation from `first`; a record no
// profile can find by key is asked for by its special-Unicode class.
std::optional<Request> freshness_request(const x509::Certificate& cert, size_t first) {
    auto profiles = ctlog::monitor_profiles();
    for (size_t k = 0; k < profiles.size(); ++k) {
        size_t p = (first + k) % profiles.size();
        const ctlog::MonitorCapabilities& caps = profiles[p].caps;
        std::vector<std::string> keys = queryable_keys(caps, derive_record(caps, cert), 1);
        if (!keys.empty()) return Request{Kind::kExact, p, keys.front(), 0, SIZE_MAX};
    }
    for (size_t k = 0; k < profiles.size(); ++k) {
        size_t p = (first + k) % profiles.size();
        uint8_t mask = derive_record(profiles[p].caps, cert).class_mask;
        if (mask != 0) return Request{Kind::kSpecial, p, {}, mask, SIZE_MAX};
    }
    return std::nullopt;
}

// ---- query-path metrics -------------------------------------------------------

void add_query_layers(const Tracer& t, Outcome& out) {
    // valid_for runs only on requests the index rung answered, so its
    // share and the query's self time are taken over those requests.
    LayerTotals valid = t.layer("ctlog.index.valid_for");
    double rung_index = std::max(1.0, t.counter("rung_index"));
    double indexed_query_us = t.counter("rung_index_query_s") * 1e6 / rung_index;
    double valid_us = valid.total_s * 1e6 / rung_index;
    double accepted = std::max(1.0, t.counter("accepted"));
    out.add("ctlog.index.query_us", t.mean_us("ctlog.index.query"), "us");
    out.add("ctlog.index.valid_for_us", t.mean_us("ctlog.index.valid_for"), "us");
    out.add("ctlog.index.valid_for_share", indexed_query_us > 0 ? valid_us / indexed_query_us : 0,
            "ratio");
    out.add("ctlog.merkle.root_at_us", t.mean_us("ctlog.merkle.root_at"), "us");
    out.add("ctlog.index.query_self_us", indexed_query_us - valid_us, "us");
    out.add("ctlog.index.rung_index_share", t.counter("rung_index") / accepted, "ratio");
    out.add("ctlog.index.results_per_query",
            t.counter("results") / std::max(1.0, t.counter("queries")), "count");
}

// Entries past the index basis each accepted query scanned. Only
// appends leave a tail, so this is taken from ingest rounds.
void add_tail_scanned(const Tracer& rounds, Outcome& out) {
    out.add("ctlog.index.tail_scanned_mean",
            rounds.counter("tail_scanned") / std::max(1.0, rounds.counter("accepted")), "count");
}

// `appends` holds the append and refresh spans, `setup` the reopen.
void add_store_layers(const Tracer& appends, const Tracer& setup, const AppendCounts& counts,
                      Outcome& out) {
    double refresh = appends.mean_us("ctlog.index.refresh") / 1e3;
    double build = appends.mean_us("ctlog.index.build") / 1e3;
    out.add("ctlog.store.append_us", appends.mean_us("ctlog.store.append"), "us");
    out.add("ctlog.store.reopen_ms", setup.mean_us("ctlog.store.reopen") / 1e3, "ms");
    out.add("ctlog.index.refresh_ms", refresh, "ms");
    out.add("ctlog.index.build_ms", build, "ms");
    out.add("ctlog.index.publish_ms", refresh - build, "ms");
    double leaf_bytes = static_cast<double>(std::max<uint64_t>(1, counts.leaf_bytes));
    double commits = static_cast<double>(std::max<uint64_t>(1, counts.commits));
    out.add("core.fs.write_amplification", static_cast<double>(counts.fs.bytes) / leaf_bytes,
            "ratio");
    out.add("core.fs.syncs_per_commit", static_cast<double>(counts.fs.syncs) / commits, "count");
}

// ---- the ingest loop ------------------------------------------------------------

struct IngestRun {
    std::vector<double> latency_s;  // ingest() start -> answer holding the new entry
    double loop_s = 0;              // wall time of the rounds, refreshes and checks
    size_t entries = 0;
    size_t rounds = 0;
    size_t laps = 0;
    uint64_t failed = 0;
    Tracer setup{false};
    Tracer loop{false};
    AppendCounts appends;           // the loop's ingest() calls only
};

// Laps of `rounds_per_lap` rounds, each from a fresh `start`-entry
// store, until `seconds` of wall time and `min_rounds` rounds. The wall
// time includes a traced run's side probes, so tracing does not
// lengthen the run.
bool ingest_laps(const std::vector<BytesView>& ders, size_t start, size_t rounds_per_lap,
                 size_t min_rounds, double seconds, bool trace, IngestRun& run) {
    run.setup = Tracer(trace);
    run.loop = Tracer(trace);
    Tracer off(false);
    const size_t n = ders.size();
    uint64_t round_id = 0;
    double wall_s = 0;
    do {
        AppendCounts setup_counts;
        std::optional<Served> served =
            serve_store(ders, start, run.laps == 0 ? run.setup : off, setup_counts);
        if (!served) return false;

        // The client's side, prepared before the clock starts: each
        // round's batch and the query that must find its newest entry.
        std::vector<std::vector<PendingEntry>> batches(rounds_per_lap);
        std::vector<std::optional<Request>> asks(rounds_per_lap);
        for (size_t r = 0; r < rounds_per_lap; ++r) {
            for (size_t k = 0; k < kIngestBatch; ++k) {
                size_t at = start + r * kIngestBatch + k;
                BytesView der = ders[at % n];
                batches[r].push_back({Bytes(der.begin(), der.end()), static_cast<int64_t>(at)});
            }
            if (auto cert = parse_entry(batches[r].back().leaf_der)) {
                asks[r] = freshness_request(*cert, r % ctlog::monitor_profiles().size());
            }
        }

        double shadow = 0;
        double lap_start = now_s();
        for (size_t r = 0; r < rounds_per_lap; ++r, ++round_id) {
            double round_shadow = shadow;
            ScopedSpan round_span(run.loop, "round", round_id);
            double t0 = now_s();
            Status appended;
            {
                ScopedSpan span(run.loop, "ctlog.store.append", round_id);
                QueryService& service = *served->service;
                appended = append_counted(
                    *served->fs, run.appends, [&] { return service.ingest(batches[r]); },
                    batches[r]);
            }
            const size_t newest = served->store->size() - 1;
            bool found = false;
            if (appended.ok() && asks[r]) {
                ServedQuery answer = timed_query(*served, *asks[r], run.loop, round_id, shadow);
                found = std::binary_search(answer.result.cert_ids.begin(),
                                           answer.result.cert_ids.end(), newest);
            }
            run.latency_s.push_back(now_s() - t0 - (shadow - round_shadow));
            if (!found) ++run.failed;
            run.entries += kIngestBatch;
            ++run.rounds;
            if (((r + 1) * kIngestBatch) % kRefreshEvery == 0) {
                bool ok = true;
                refresh(*served, run.loop, round_id, shadow, ok);
                if (!ok) ++run.failed;
            }
        }
        wall_s += now_s() - lap_start;
        run.loop_s += now_s() - lap_start - shadow;
        ++run.laps;
    } while (wall_s < seconds || run.rounds < min_rounds);
    return true;
}

std::vector<ctlog::CorpusCert> monitor_corpus(uint64_t seed) {
    ctlog::CorpusGenerator gen({.seed = seed, .scale = kMonitorScale, .sign_certificates = true});
    return gen.generate();
}

void cert_layers_from(const std::vector<BytesView>& ders, const Args& args, Outcome& out) {
    DerCorpus input = concat_der(ders);
    cert_path_layers(input, 0, args.workdir, out);
    crypto_layers(ders, out);
}

// One quarter-size traced ingest lap over `ders`, the certificates of
// a workload whose own loop does not append.
bool probe_lap(const std::vector<BytesView>& ders, const Args& args, IngestRun& run,
               Outcome& out) {
    if (!ingest_laps(ders, kIngestStart / 4, kRoundsPerLap / 4, 0, 0, true, run)) {
        out.tally(1, 1);
        return false;
    }
    out.tally(run.rounds, run.failed);
    print_layer_table(run.loop, run.loop_s, "ctlog probe: ingest rounds");
    run.loop.write(args.workdir + "/trace-probe-rounds.csv");
    return true;
}

}  // namespace

void monitor_probe_layers(const std::vector<BytesView>& ders, const Args& args, Outcome& out) {
    IngestRun run;
    if (!probe_lap(ders, args, run, out)) return;
    add_query_layers(run.loop, out);
    add_tail_scanned(run.loop, out);
    add_store_layers(run.loop, run.setup, run.appends, out);
}

Outcome run_monitor_ingest(const Args& args) {
    Outcome out;
    std::vector<double> setup_s;
    std::vector<ctlog::CorpusCert> corpus;
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        double t0 = now_s();
        corpus = monitor_corpus(args.seed);
        std::vector<BytesView> ders = corpus_ders(corpus);
        AppendCounts counts;
        Tracer off(false);
        if (!serve_store(ders, kIngestStart, off, counts)) {
            out.tally(1, 1);
            return out;
        }
        setup_s.push_back(now_s() - t0);
    }
    std::vector<BytesView> ders = corpus_ders(corpus);
    out.note("corpus_certs: " + std::to_string(corpus.size()));

    if (!reset_peak_rss()) out.note("peak_rss_reset: failed, peak covers setup");
    IngestRun run;
    bool ok = ingest_laps(ders, kIngestStart, kRoundsPerLap, kMinSamples, args.seconds,
                          args.trace, run);
    double peak = peak_rss_mib();
    out.tally(std::max<size_t>(run.rounds, 1), ok ? run.failed : std::max<size_t>(run.rounds, 1));
    out.note("rounds: " + std::to_string(run.rounds) + " in " + std::to_string(run.laps) +
             " laps");

    if (args.trace) {
        print_layer_table(run.loop, run.loop_s, "monitor_ingest rounds");
        out.add("trace.throughput_per_s", static_cast<double>(run.entries) / run.loop_s, "1/s");
        out.add("trace.latency_tail_ms", quantile(run.latency_s, 0.9) * 1e3, "ms");
        add_query_layers(run.loop, out);
        add_tail_scanned(run.loop, out);
        add_store_layers(run.loop, run.setup, run.appends, out);
        run.setup.write(args.workdir + "/trace-setup.csv");
        run.loop.write(args.workdir + "/trace-rounds.csv");
        // The certificates the laps append: the first 2 x 2,048 entries.
        size_t appended = std::min(ders.size(), kIngestStart * 2);
        cert_layers_from({ders.begin(), ders.begin() + appended}, args, out);
        return out;
    }
    out.add("setup_s", quantile(setup_s, 0.5), "s");
    out.add("throughput_per_s", static_cast<double>(run.entries) / run.loop_s, "1/s");
    out.add("latency_tail_ms", quantile(run.latency_s, 0.9) * 1e3, "ms");
    out.note("append_to_answer_p50_ms: " + std::to_string(quantile(run.latency_s, 0.5) * 1e3));
    out.note("append_to_answer_p99_ms: " + std::to_string(quantile(run.latency_s, 0.99) * 1e3));
    out.add("peak_rss_mib", peak, "MiB");
    return out;
}

namespace {

// Seeded pool of `kPoolPerKind` requests per (profile, kind). Every
// pattern but the misses comes from a random stored entry.
std::vector<Request> request_pool(const Store& store, uint64_t seed) {
    auto profiles = ctlog::monitor_profiles();
    const size_t n = store.size();

    // Per profile and stored entry: the keys the profile accepts as
    // queries, and the keys with a punycode label. Per stored entry with
    // special Unicode: the fields that carry it under any profile.
    using Keys = std::vector<std::vector<std::string>>;
    std::vector<Keys> queryable(profiles.size(), Keys(n));
    std::vector<Keys> punycode(profiles.size(), Keys(n));
    std::vector<uint8_t> special;
    for (size_t i = 0; i < n; ++i) {
        auto cert = parse_entry(store.entries()[i].leaf_der);
        if (!cert) continue;
        uint8_t classes = 0;
        for (size_t p = 0; p < profiles.size(); ++p) {
            DerivedRecord record = derive_record(profiles[p].caps, *cert);
            queryable[p][i] = queryable_keys(profiles[p].caps, record, 1);
            for (const std::string& k : record.keys) {
                if (k.find("xn--") != std::string::npos) punycode[p][i].push_back(k);
            }
            classes |= record.class_mask;
        }
        if (classes != 0) special.push_back(classes);
    }

    ctlog::Rng rng(seed ^ 0x5EED0F7AB1E6ULL);
    // A random (entry, key) of `keys` with the key at least `min_len`
    // long.
    using Picked = std::pair<std::string, size_t>;
    auto pick = [&](const Keys& keys, size_t min_len) -> std::optional<Picked> {
        std::vector<std::pair<size_t, size_t>> hits;
        for (size_t i = 0; i < n; ++i) {
            for (size_t k = 0; k < keys[i].size(); ++k) {
                if (keys[i][k].size() >= min_len) hits.emplace_back(i, k);
            }
        }
        if (hits.empty()) return std::nullopt;
        auto [i, k] = hits[rng.below(hits.size())];
        return std::make_pair(keys[i][k], i);
    };

    std::vector<Request> pool;
    for (size_t p = 0; p < profiles.size(); ++p) {
        for (size_t r = 0; r < kPoolPerKind; ++r) {
            if (auto key = pick(queryable[p], 1)) {
                pool.push_back({Kind::kExact, p, key->first, 0, key->second});
            }
            if (auto key = pick(queryable[p], 6)) {
                const std::string& k = key->first;
                size_t len = std::max<size_t>(3, k.size() / 2);
                pool.push_back({Kind::kFuzzy, p, k.substr(rng.below(k.size() - len + 1), len)});
            }
            if (auto key = pick(queryable[p], 2)) {
                const std::string& k = key->first;
                size_t len = 1 + rng.below(2);
                pool.push_back({Kind::kShort, p, k.substr(rng.below(k.size() - len + 1), len)});
            }
            char miss[48];
            std::snprintf(miss, sizeof miss, "zq%012llx.invalid",
                          static_cast<unsigned long long>(rng.next() & 0xFFFFFFFFFFFFULL));
            pool.push_back({Kind::kMiss, p, miss});
            // A stored punycode key, as stored or in its Unicode display
            // form. No profile accepts raw Unicode; those that check
            // U-labels or refuse punycode ccTLDs reject some A-labels.
            if (auto key = pick(punycode[p], 1)) {
                const std::string& k = key->first;
                std::string pattern = rng.below(2) ? k : idna::hostname_to_display(k);
                pool.push_back({Kind::kUnicode, p, std::move(pattern)});
            }
            if (!special.empty()) {
                pool.push_back({Kind::kSpecial, p, {}, special[rng.below(special.size())]});
            }
        }
    }
    return pool;
}

// Checks each pooled request once against the linear-scan rung and
// the generator's ground truth; returns the index answers to expect.
std::vector<ServedQuery> check_pool(Served& s, const std::vector<Request>& pool,
                                    std::vector<char>& ok) {
    std::vector<ServedQuery> expected(pool.size());
    ok.assign(pool.size(), 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kOracleThreads; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t; i < pool.size(); i += kOracleThreads) {
                const Request& r = pool[i];
                ServedQuery indexed = serve(*s.service, r, true);
                ServedQuery scanned = serve(*s.service, r, false);
                bool fine = same_answer(indexed, scanned);
                if (indexed.result.query_accepted) fine = fine && indexed.path == QueryPath::kIndex;
                if (r.kind == Kind::kExact) {
                    const auto& ids = indexed.result.cert_ids;
                    fine = fine && indexed.result.query_accepted &&
                           std::binary_search(ids.begin(), ids.end(), r.source);
                }
                if (r.kind == Kind::kMiss) fine = fine && indexed.result.cert_ids.empty();
                ok[i] = fine ? 1 : 0;
                expected[i] = std::move(indexed);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    return expected;
}

}  // namespace

Outcome run_monitor_read(const Args& args) {
    Outcome out;
    Tracer setup_tracer(args.trace);
    AppendCounts setup_counts;

    std::vector<double> setup_s;
    std::optional<Served> served;
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        served.reset();
        double t0 = now_s();
        std::vector<ctlog::CorpusCert> corpus = monitor_corpus(args.seed);
        served = serve_store(corpus_ders(corpus), kReadEntries, setup_tracer, setup_counts);
        if (!served) {
            out.tally(1, 1);
            return out;
        }
        setup_s.push_back(now_s() - t0);
    }
    Served& s = *served;

    std::vector<Request> pool = request_pool(*s.store, args.seed);
    std::vector<char> pool_ok;
    std::vector<ServedQuery> expected = check_pool(s, pool, pool_ok);
    out.tally(pool.size(), static_cast<uint64_t>(std::count(pool_ok.begin(), pool_ok.end(), 0)));

    ctlog::Rng rng(args.seed ^ 0x10AD5EEDULL);
    auto next_request = [&] { return rng.below(pool.size()); };

    Tracer off(false);
    double ignored = 0;
    for (int i = 0; i < 50; ++i) (void)timed_query(s, pool[next_request()], off, 0, ignored);

    if (!reset_peak_rss()) out.note("peak_rss_reset: failed, peak covers setup");
    Tracer loop(args.trace);
    std::vector<double> latency_s;
    std::vector<size_t> kind_count(kKinds, 0);
    uint64_t wrong = 0;
    double shadow = 0;
    double start = now_s();
    // Stops on wall time, a traced run's side probes included.
    while (now_s() - start < args.seconds || latency_s.size() < kMinSamples) {
        size_t i = next_request();
        double before = shadow;
        double t0 = now_s();
        ServedQuery answer = timed_query(s, pool[i], loop, latency_s.size(), shadow);
        latency_s.push_back(now_s() - t0 - (shadow - before));
        ++kind_count[static_cast<size_t>(pool[i].kind)];
        if (!same_answer(answer, expected[i]) ||
            (answer.result.query_accepted && answer.path != QueryPath::kIndex)) {
            ++wrong;
        }
    }
    double loop_s = now_s() - start - shadow;
    double peak = peak_rss_mib();
    out.tally(latency_s.size(), wrong);

    out.note("store_entries: " + std::to_string(s.store->size()));
    out.note("pool_requests: " + std::to_string(pool.size()));
    for (size_t k = 0; k < kKinds; ++k) {
        out.note(std::string("share_") + kKindNames[k] + ": " +
                 std::to_string(static_cast<double>(kind_count[k]) / latency_s.size()));
    }

    if (args.trace) {
        print_layer_table(loop, loop_s, "monitor_read queries");
        out.add("trace.throughput_per_s", latency_s.size() / loop_s, "1/s");
        out.add("trace.latency_tail_ms", quantile(latency_s, 0.9) * 1e3, "ms");
        add_query_layers(loop, out);
        add_store_layers(setup_tracer, setup_tracer, setup_counts, out);
        setup_tracer.write(args.workdir + "/trace-setup.csv");
        loop.write(args.workdir + "/trace-queries.csv");
        std::vector<BytesView> ders;
        for (const auto& e : s.store->entries()) ders.push_back(e.leaf_der);
        // The loop never appends, so its queries scan no tail.
        IngestRun probe;
        if (probe_lap(ders, args, probe, out)) add_tail_scanned(probe.loop, out);
        cert_layers_from(ders, args, out);
        return out;
    }
    out.add("setup_s", quantile(setup_s, 0.5), "s");
    out.add("throughput_per_s", latency_s.size() / loop_s, "1/s");
    out.add("latency_tail_ms", quantile(latency_s, 0.9) * 1e3, "ms");
    out.note("query_p50_us: " + std::to_string(quantile(latency_s, 0.5) * 1e6));
    out.note("query_p99_us: " + std::to_string(quantile(latency_s, 0.99) * 1e6));
    out.add("peak_rss_mib", peak, "MiB");
    return out;
}

}  // namespace perfbench
