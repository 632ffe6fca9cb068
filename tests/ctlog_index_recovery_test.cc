// The index subsystem's crash-safety proof: a FaultyFs kill-point
// sweep over an ingest/refresh workload (power loss at every mutating
// operation, torn tails, bit flips), after which queries must return
// answers BYTE-IDENTICAL to the linear scan — the index can cost time,
// never correctness. Plus the randomized scan-vs-index answer-parity
// property test (random corpora x all five profiles x fault seeds), the
// seeded ingest/query/refresh/restart interleaving property (rung 1 and
// its delta vs the scan, folded vs built generations), the in-memory
// Monitor vs service parity property, and the mid-query corruption
// scenarios (pinned MVCC snapshots, injected read errors).
#include "ctlog/index/query.h"

#include <gtest/gtest.h>

#include "asn1/time.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "faultsim/faulty_fs.h"
#include "x509/builder.h"
#include "x509/parser.h"

namespace unicert::ctlog::index {
namespace {

namespace oids = asn1::oids;

store::PendingEntry entry_for(const std::string& cn, const std::string& san, int64_t ts,
                              bool precert = false) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x07};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), cn),
        x509::make_attribute(oids::organization_name(), "Recovery Test Org"),
    });
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    if (!san.empty()) cert.extensions.push_back(x509::make_san({x509::dns_name(san)}));
    if (precert) cert.extensions.push_back(x509::make_ct_poison());
    crypto::SimSigner signer = crypto::SimSigner::from_name("recovery-test-ca");
    store::PendingEntry entry;
    entry.leaf_der = x509::sign_certificate(cert, signer);
    entry.timestamp = ts;
    return entry;
}

// Hostname mix covering the Table 6 edge cases: plain, mixed case,
// punycode (incl. ccTLD), special Unicode (ZWSP), and a CN quirk.
std::string host_for(size_t i) {
    switch (i % 6) {
        case 0: return "host-" + std::to_string(i) + ".example";
        case 1: return "HOST-" + std::to_string(i) + ".Example";
        case 2: return "xn--mnchen-3ya.host" + std::to_string(i) + ".example";
        case 3: return "site" + std::to_string(i) + ".xn--fiq228c";
        case 4: return "victim" + std::to_string(i) + "\xE2\x80\x8B.com";
        default: return "spaced host " + std::to_string(i) + ".example";
    }
}

const std::vector<std::string>& query_set() {
    static const std::vector<std::string> queries = {
        "host-0.example", "host-", "HOST-1.Example", "xn--mnchen-3ya.host2.example",
        "site3.xn--fiq228c", "victim4", "absent.example", "a", "",
        "m\xC3\xBCnchen.example",  // raw Unicode: rejected everywhere
    };
    return queries;
}

// A random corpus: 8-31 entries named by host_for, about 30% without a
// SAN.
std::vector<store::PendingEntry> random_corpus(Rng& rng) {
    size_t count = 8 + rng.below(24);
    std::vector<store::PendingEntry> batch;
    for (size_t i = 0; i < count; ++i) {
        std::string host = host_for(rng.below(1000));
        batch.push_back(entry_for(host, rng.chance(0.3) ? "" : host, static_cast<int64_t>(i)));
    }
    return batch;
}

// An entry for the interleaving property: usually a host_for name,
// sometimes a precertificate or a leaf that does not parse (both are
// excluded records in every profile).
store::PendingEntry random_entry(Rng& rng, int64_t ts) {
    std::string host = host_for(rng.below(1000));
    switch (rng.below(10)) {
        case 0: return entry_for(host, host, ts, /*precert=*/true);
        case 1: {
            store::PendingEntry entry = entry_for(host, host, ts);
            entry.leaf_der.resize(entry.leaf_der.size() / 2);  // torn DER
            return entry;
        }
        default: return entry_for(host, rng.chance(0.3) ? "" : host, ts);
    }
}

// The parity oracle: for every profile and query (and the
// special-Unicode retrieval), the service's answer must be
// byte-identical between the index rungs and the forced scan. With
// `rung1`, every accepted indexed answer must also come from rung 1.
void expect_full_parity(QueryService& service, const std::string& context,
                        bool rung1 = false) {
    auto expect_rung1 = [&](const ServedQuery& served, const std::string& what) {
        if (!rung1 || served.path == QueryPath::kRejected) return;
        EXPECT_EQ(served.path, QueryPath::kIndex) << context << " " << what;
        EXPECT_FALSE(served.degraded) << context << " " << what;
    };
    for (const MonitorProfile& profile : monitor_profiles()) {
        for (const std::string& q : query_set()) {
            auto indexed = service.query(profile, q);
            auto scanned = service.query(profile, q, {.use_index = false});
            expect_rung1(indexed, "profile=" + profile.name + " q='" + q + "'");
            EXPECT_EQ(indexed.result.query_accepted, scanned.result.query_accepted)
                << context << " profile=" << profile.name << " q='" << q << "'";
            EXPECT_EQ(indexed.result.rejection_reason, scanned.result.rejection_reason)
                << context << " profile=" << profile.name << " q='" << q << "'";
            EXPECT_EQ(indexed.result.cert_ids, scanned.result.cert_ids)
                << context << " profile=" << profile.name << " q='" << q << "'";
        }
        for (uint8_t mask : {static_cast<uint8_t>(kFieldCn), static_cast<uint8_t>(kFieldSan),
                             static_cast<uint8_t>(kFieldAttr),
                             static_cast<uint8_t>(kFieldCn | kFieldSan)}) {
            auto indexed = service.special_unicode(profile, mask);
            auto scanned = service.special_unicode(profile, mask, {.use_index = false});
            expect_rung1(indexed, "profile=" + profile.name + " mask=" + std::to_string(mask));
            EXPECT_EQ(indexed.result.cert_ids, scanned.result.cert_ids)
                << context << " profile=" << profile.name << " mask=" << int(mask);
        }
    }
}

// The crash workload: ingest batches through the service, refreshing
// the index between them. Returns false when a fault stopped it early.
bool run_workload(core::Fs& fs) {
    store::StoreOptions options;
    options.create_if_missing = true;
    auto store = store::Store::open(fs, "store", options);
    if (!store.ok()) return false;
    QueryService service(fs, **store);
    size_t next = 0;
    for (size_t batch = 0; batch < 4; ++batch) {
        std::vector<store::PendingEntry> entries;
        for (size_t i = 0; i < 6; ++i, ++next) {
            entries.push_back(entry_for(host_for(next), host_for(next),
                                        static_cast<int64_t>(next)));
        }
        if (!service.ingest(entries).ok()) return false;
        if (!service.refresh().ok()) return false;
    }
    return true;
}

TEST(IndexKillPointSweep, QueriesNeverWrongAfterAnyCrash) {
    // First, how many mutating fs ops does the full workload take?
    size_t total_ops = 0;
    {
        core::MemFs memfs;
        faultsim::FaultyFs probe(memfs, {});
        ASSERT_TRUE(run_workload(probe));
        total_ops = probe.ops();
    }
    ASSERT_GT(total_ops, 20u);

    // Kill the power at every op (stride 1 early where the store and
    // index bootstrap, stride 3 later to keep the sweep fast), tear
    // tails, flip bits — then reboot and demand parity.
    size_t swept = 0;
    for (size_t kill = 1; kill <= total_ops; kill += (kill < 40 ? 1 : 3)) {
        core::MemFs memfs;
        faultsim::FaultyFsOptions options;
        options.plan.seed = 0x5EED0000 + kill;
        options.plan.torn_tail_rate = 0.5;
        options.plan.bit_flip_rate = 0.5;
        options.crash_after_ops = kill;
        faultsim::FaultyFs faulty(memfs, options);
        EXPECT_FALSE(run_workload(faulty)) << "kill=" << kill;
        faulty.crash();

        // Reboot: recover the store on the bare MemFs, then query.
        store::StoreOptions store_options;
        store_options.create_if_missing = true;
        auto store = store::Store::open(memfs, "store", store_options);
        ASSERT_TRUE(store.ok()) << "kill=" << kill << ": " << store.error().message;
        QueryService service(memfs, **store);
        expect_full_parity(service, "kill=" + std::to_string(kill));
        ++swept;
    }
    ASSERT_GT(swept, 30u);
}

TEST(IndexParityProperty, RandomCorporaRandomDamage) {
    // Satellite: randomized corpora x all five profiles x fault seeds.
    // Each round: a random store, a published index, random damage to
    // the index directory, then the full parity oracle.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(0xC0FFEE00 + seed);
        core::MemFs fs;
        store::StoreOptions options;
        options.create_if_missing = true;
        auto store = store::Store::open(fs, "store", options);
        ASSERT_TRUE(store.ok());

        ASSERT_TRUE((*store)->append_batch(random_corpus(rng)).ok());

        QueryService publisher(fs, **store);
        ASSERT_TRUE(publisher.refresh().ok());

        // Random damage: torn tail, bit rot, deletion, or a stray tmp.
        std::string dir = index_dir((*store)->dir());
        std::string path = dir + "/" + index_file_name(1);
        auto blob = fs.read_file(path);
        ASSERT_TRUE(blob.ok());
        switch (rng.below(5)) {
            case 0: {  // torn tail
                size_t keep = 1 + rng.below(blob->size() - 1);
                ASSERT_TRUE(core::atomic_write_file(
                                fs, path, BytesView(blob->data(), keep), dir)
                                .ok());
                break;
            }
            case 1:  // bit rot
                ASSERT_TRUE(fs.flip_bit(path, rng.below(blob->size()),
                                        static_cast<unsigned>(rng.below(8))));
                break;
            case 2:  // deleted outright
                ASSERT_TRUE(fs.remove(path).ok());
                break;
            case 3:  // stray tmp next to a healthy generation
                ASSERT_TRUE(core::atomic_write_file(fs, path + ".keep",
                                                    std::string_view("junk"), dir)
                                .ok());
                ASSERT_TRUE(fs.rename(path + ".keep", path + ".tmp").ok());
                break;
            default:  // no damage at all
                break;
        }

        QueryService service(fs, **store);
        expect_full_parity(service, "seed=" + std::to_string(seed));
    }
}

TEST(IndexParityProperty, InterleavedIngestQueryRefreshRestart) {
    // Random steps over one store: ingest 1-8 entries, query everything,
    // refresh, or cold-restart the service over a newest generation whose
    // basis is below the store size. Rung 1 (generation + delta) must
    // answer exactly like the scan, and every refresh must publish the
    // generation build_index would derive from the store.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(0xDE17A000 + seed);
        core::MemFs fs;
        store::StoreOptions options;
        options.create_if_missing = true;
        auto store = store::Store::open(fs, "store", options);
        ASSERT_TRUE(store.ok());
        std::vector<store::PendingEntry> corpus = random_corpus(rng);
        corpus.insert(corpus.begin() + static_cast<ptrdiff_t>(rng.below(corpus.size())),
                      entry_for("precert.example", "precert.example", 0, /*precert=*/true));
        store::PendingEntry torn = entry_for("torn.example", "torn.example", 0);
        torn.leaf_der.resize(torn.leaf_der.size() / 2);
        corpus.insert(corpus.begin() + static_cast<ptrdiff_t>(rng.below(corpus.size())),
                      std::move(torn));
        ASSERT_TRUE((*store)->append_batch(corpus).ok());

        auto service = std::make_unique<QueryService>(fs, **store);
        ASSERT_TRUE(service->refresh().ok());
        int64_t ts = 1000;
        auto ingest = [&] {
            std::vector<store::PendingEntry> batch;
            for (size_t n = 1 + rng.below(8); n > 0; --n) batch.push_back(random_entry(rng, ts++));
            ASSERT_TRUE(service->ingest(batch).ok());
        };
        for (size_t step = 0; step < 24; ++step) {
            std::string context = "seed=" + std::to_string(seed) + " step=" +
                                  std::to_string(step) +
                                  " size=" + std::to_string((*store)->size());
            switch (rng.below(4)) {
                case 0:
                    ingest();
                    break;
                case 1:
                    expect_full_parity(*service, context, /*rung1=*/true);
                    break;
                case 2: {
                    ASSERT_TRUE(service->refresh().ok()) << context;
                    auto pinned = service->pin();
                    ASSERT_NE(pinned, nullptr) << context;
                    EXPECT_EQ(pinned->basis_size, (*store)->size()) << context;
                    EXPECT_EQ(encode_index(*pinned),
                              encode_index(build_index(**store, pinned->epoch)))
                        << context;
                    break;
                }
                default: {
                    ingest();
                    service = std::make_unique<QueryService>(fs, **store);
                    IndexFsckReport report = fsck_index(fs, **store);
                    ASSERT_TRUE(report.valid_epoch.has_value()) << context;
                    EXPECT_LT(report.valid_basis, (*store)->size()) << context;
                    break;
                }
            }
        }
        expect_full_parity(*service, "seed=" + std::to_string(seed) + " end", /*rung1=*/true);
    }
}

TEST(IndexParityProperty, InMemoryMonitorAnswersLikeTheService) {
    // The in-memory Monitor and the service's index rung share one
    // lookup: over random corpora, a Monitor fed the store's entries in
    // order answers every profile and query exactly as the service does.
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(0xA11CE000 + seed);
        core::MemFs fs;
        store::StoreOptions options;
        options.create_if_missing = true;
        auto store = store::Store::open(fs, "store", options);
        ASSERT_TRUE(store.ok());
        ASSERT_TRUE((*store)->append_batch(random_corpus(rng)).ok());
        QueryService service(fs, **store);
        ASSERT_TRUE(service.refresh().ok());

        for (const MonitorProfile& profile : monitor_profiles()) {
            // Every entry parses and none is a precertificate, so Monitor
            // ids equal store entry ids.
            Monitor monitor(profile);
            for (const store::StoredEntry& entry : (*store)->entries()) {
                auto cert = x509::parse_certificate(entry.leaf_der);
                ASSERT_TRUE(cert.ok());
                monitor.index(cert.value());
            }
            for (const std::string& q : query_set()) {
                QueryResult in_memory = monitor.query(q);
                ServedQuery served = service.query(profile, q);
                std::string context = "seed=" + std::to_string(seed) +
                                      " profile=" + profile.name + " q='" + q + "'";
                EXPECT_EQ(in_memory.query_accepted, served.result.query_accepted) << context;
                EXPECT_EQ(in_memory.rejection_reason, served.result.rejection_reason)
                    << context;
                EXPECT_EQ(in_memory.cert_ids, served.result.cert_ids) << context;
            }
        }
    }
}

TEST(MidQueryCorruption, PinnedSnapshotIsUnaffectedByDiskRot) {
    core::MemFs fs;
    store::StoreOptions options;
    options.create_if_missing = true;
    auto store = store::Store::open(fs, "store", options);
    ASSERT_TRUE(store.ok());
    std::vector<store::PendingEntry> batch;
    for (size_t i = 0; i < 8; ++i) {
        batch.push_back(entry_for(host_for(i), host_for(i), static_cast<int64_t>(i)));
    }
    ASSERT_TRUE((*store)->append_batch(batch).ok());

    QueryService service(fs, **store);
    ASSERT_TRUE(service.refresh().ok());
    auto before = service.query(monitor_profiles()[0], "host-");
    ASSERT_EQ(before.path, QueryPath::kIndex);

    // Rot the artifact under a live service: the in-memory MVCC
    // snapshot keeps serving rung 1 — no disk read is on the hot path.
    std::string path = index_dir((*store)->dir()) + "/" + index_file_name(1);
    auto blob = fs.read_file(path);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(fs.flip_bit(path, blob->size() / 3, 2));

    auto after = service.query(monitor_profiles()[0], "host-");
    EXPECT_EQ(after.path, QueryPath::kIndex);
    EXPECT_FALSE(after.degraded);
    EXPECT_EQ(after.result.cert_ids, before.result.cert_ids);

    // A cold-started service sees the rot, descends to the rebuild
    // rung, and still answers identically.
    QueryService fresh(fs, **store);
    auto rebuilt = fresh.query(monitor_profiles()[0], "host-");
    EXPECT_EQ(rebuilt.path, QueryPath::kRebuiltIndex);
    EXPECT_TRUE(rebuilt.degraded);
    EXPECT_EQ(rebuilt.result.cert_ids, before.result.cert_ids);
    expect_full_parity(fresh, "post-rot");
}

TEST(MidQueryCorruption, InjectedReadErrorsClassifyAsUnreadable) {
    core::MemFs memfs;
    store::StoreOptions options;
    options.create_if_missing = true;
    auto store = store::Store::open(memfs, "store", options);
    ASSERT_TRUE(store.ok());
    std::vector<store::PendingEntry> batch = {entry_for("host-0.example", "host-0.example", 0)};
    ASSERT_TRUE((*store)->append_batch(batch).ok());
    {
        QueryService publisher(memfs, **store);
        ASSERT_TRUE(publisher.refresh().ok());
    }

    // A transient media error while reading the artifact: fsck reports
    // it unreadable, and the service routes around it with a rebuild.
    faultsim::FaultyFs faulty(memfs, {});
    faulty.fail_reads("idx-", 1);
    IndexFsckReport report = fsck_index(faulty, **store);
    ASSERT_EQ(report.damage.size(), 1u);
    EXPECT_EQ(report.damage[0].kind, IndexDamageKind::kUnreadable);
    EXPECT_FALSE(report.valid_epoch.has_value());

    faulty.fail_reads("idx-", 1);
    QueryService service(faulty, **store);
    auto served = service.query(monitor_profiles()[0], "host-0.example");
    EXPECT_EQ(served.path, QueryPath::kRebuiltIndex);
    EXPECT_TRUE(served.degraded);
    EXPECT_EQ(served.result.cert_ids, (std::vector<size_t>{0}));

    // Once reads work again, the republished generation serves rung 1.
    auto healed = service.query(monitor_profiles()[0], "host-0.example");
    EXPECT_EQ(healed.path, QueryPath::kIndex);
    EXPECT_EQ(healed.result.cert_ids, served.result.cert_ids);
}

}  // namespace
}  // namespace unicert::ctlog::index
