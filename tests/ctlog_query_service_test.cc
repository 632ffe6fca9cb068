// Tests for the self-healing query service: the degradation ladder
// (fresh index → rebuilt index → linear scan), MVCC snapshot pinning,
// the delta past a stale generation's basis that keeps answers exact
// during ingestion, and reader/writer concurrency.
#include "ctlog/index/query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "asn1/time.h"
#include "crypto/simsig.h"
#include "x509/builder.h"

namespace unicert::ctlog::index {
namespace {

namespace oids = asn1::oids;

store::PendingEntry entry_for(const std::string& cn, const std::string& san, int64_t ts) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x07};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), cn),
        x509::make_attribute(oids::organization_name(), "Query Test Org"),
    });
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    if (!san.empty()) cert.extensions.push_back(x509::make_san({x509::dns_name(san)}));
    crypto::SimSigner signer = crypto::SimSigner::from_name("query-test-ca");
    store::PendingEntry entry;
    entry.leaf_der = x509::sign_certificate(cert, signer);
    entry.timestamp = ts;
    return entry;
}

const MonitorProfile& profile(std::string_view name) {
    for (const MonitorProfile& p : monitor_profiles()) {
        if (p.name == name) return p;
    }
    ADD_FAILURE() << "no profile " << name;
    return monitor_profiles()[0];
}

struct Fixture {
    core::MemFs fs;
    std::unique_ptr<store::Store> store;

    explicit Fixture(const std::vector<std::string>& hosts) {
        store::StoreOptions options;
        options.create_if_missing = true;
        auto opened = store::Store::open(fs, "store", options);
        EXPECT_TRUE(opened.ok());
        store = std::move(*opened);
        std::vector<store::PendingEntry> batch;
        for (size_t i = 0; i < hosts.size(); ++i) {
            batch.push_back(entry_for(hosts[i], hosts[i], static_cast<int64_t>(i)));
        }
        if (!batch.empty()) {
            EXPECT_TRUE(store->append_batch(batch).ok());
        }
    }
};

TEST(QueryService, FreshIndexAnswersWithoutDegradation) {
    Fixture fx({"alpha.example", "beta.example", "ALPHA.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    auto served = service.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(served.path, QueryPath::kIndex);
    EXPECT_FALSE(served.degraded);
    EXPECT_EQ(served.epoch, 1u);
    EXPECT_EQ(served.tail_scanned, 0u);
    EXPECT_EQ(served.result.cert_ids, (std::vector<size_t>{0, 2}));

    // Exact-only profile: the full string matches, the substring does not.
    auto exact_hit = service.query(profile("SSLMate Spotter"), "beta.example");
    EXPECT_EQ(exact_hit.result.cert_ids, (std::vector<size_t>{1}));
    auto exact_miss = service.query(profile("SSLMate Spotter"), "beta");
    EXPECT_TRUE(exact_miss.result.cert_ids.empty());
}

TEST(QueryService, DeliberateScanIsNotDegraded) {
    Fixture fx({"alpha.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());
    auto served = service.query(profile("Crt.sh"), "alpha", {.use_index = false});
    EXPECT_EQ(served.path, QueryPath::kScan);
    EXPECT_FALSE(served.degraded);
    EXPECT_EQ(served.result.cert_ids, (std::vector<size_t>{0}));
}

TEST(QueryService, StaleGenerationMergesTailScan) {
    Fixture fx({"alpha.example", "beta.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    // Ingest past the generation's basis: answers must cover the tail
    // without a rebuild, and must stay identical to a full scan.
    std::vector<store::PendingEntry> tail = {entry_for("alpha.late.example",
                                                       "alpha.late.example", 10)};
    ASSERT_TRUE(service.ingest(tail).ok());

    auto indexed = service.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(indexed.path, QueryPath::kIndex);
    EXPECT_FALSE(indexed.degraded);
    EXPECT_EQ(indexed.tail_scanned, 1u);
    EXPECT_EQ(indexed.result.cert_ids, (std::vector<size_t>{0, 2}));

    auto scanned = service.query(profile("Crt.sh"), "alpha", {.use_index = false});
    EXPECT_EQ(indexed.result.cert_ids, scanned.result.cert_ids);

    // After a refresh the tail folds into the new generation.
    ASSERT_TRUE(service.refresh().ok());
    auto refreshed = service.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(refreshed.tail_scanned, 0u);
    EXPECT_EQ(refreshed.epoch, 2u);
    EXPECT_EQ(refreshed.result.cert_ids, indexed.result.cert_ids);
}

TEST(QueryService, RebuildRungHealsDiskDamage) {
    Fixture fx({"alpha.example", "beta.example"});
    {
        QueryService publisher(fx.fs, *fx.store);
        ASSERT_TRUE(publisher.refresh().ok());
    }
    // Rot the only generation on disk; a fresh service (cold slot) must
    // classify, rebuild, republish, and still answer correctly.
    std::string path = index_dir(fx.store->dir()) + "/" + index_file_name(1);
    auto blob = fx.fs.read_file(path);
    ASSERT_TRUE(blob.ok());
    ASSERT_TRUE(fx.fs.flip_bit(path, blob->size() / 2, 5));

    QueryService service(fx.fs, *fx.store);
    auto served = service.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(served.path, QueryPath::kRebuiltIndex);
    EXPECT_TRUE(served.degraded);
    EXPECT_NE(served.degradation_reason.find("bad-checksum"), std::string::npos);
    EXPECT_EQ(served.result.cert_ids, (std::vector<size_t>{0}));
    EXPECT_EQ(served.epoch, 2u);  // damaged epoch 1 is never reused

    auto fsck = service.last_fsck();
    ASSERT_EQ(fsck.damage.size(), 1u);
    EXPECT_EQ(fsck.damage[0].kind, IndexDamageKind::kBadChecksum);

    // The rebuild was published: the next query is back on rung 1.
    auto healed = service.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(healed.path, QueryPath::kIndex);
    EXPECT_FALSE(healed.degraded);
    EXPECT_EQ(healed.result.cert_ids, served.result.cert_ids);

    // And a brand-new service loads it straight from disk.
    QueryService another(fx.fs, *fx.store);
    auto loaded = another.query(profile("Crt.sh"), "alpha");
    EXPECT_EQ(loaded.path, QueryPath::kIndex);
    EXPECT_EQ(loaded.result.cert_ids, served.result.cert_ids);
}

TEST(QueryService, ScanRungForProfileWithoutSection) {
    // A fresh generation covers only the five Table 6 profiles; any
    // other profile is answered by the scan, which names the reason.
    Fixture fx({"alpha.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());
    ASSERT_EQ(service.query(profile("Crt.sh"), "alpha").path, QueryPath::kIndex);

    MonitorProfile custom = profile("Crt.sh");
    custom.name = "Crt.sh (custom)";
    auto served = service.query(custom, "alpha");
    EXPECT_EQ(served.path, QueryPath::kScan);
    EXPECT_TRUE(served.degraded);
    EXPECT_EQ(served.degradation_reason, "index has no section for profile 'Crt.sh (custom)'");
    EXPECT_EQ(served.result.cert_ids, (std::vector<size_t>{0}));
    EXPECT_EQ(served.epoch, 0u);
}

// Publishes `foreign` as the only generation in `fx`'s index dir, then
// checks that a cold service refuses it as stale-basis, rebuilds from
// its own store, and answers exactly like the scan.
void expect_foreign_generation_refused(Fixture& fx, const IndexGeneration& foreign) {
    ASSERT_TRUE(publish_index(fx.fs, fx.store->dir(), foreign).ok());
    ASSERT_EQ(fsck_index(fx.fs, *fx.store).damage.size(), 1u);

    QueryService service(fx.fs, *fx.store);
    auto served = service.query(profile("Crt.sh"), "example");
    EXPECT_EQ(served.path, QueryPath::kRebuiltIndex);
    EXPECT_TRUE(served.degraded);
    EXPECT_NE(served.degradation_reason.find("stale-basis"), std::string::npos)
        << served.degradation_reason;
    auto scanned = service.query(profile("Crt.sh"), "example", {.use_index = false});
    EXPECT_EQ(served.result.cert_ids, scanned.result.cert_ids);

    // The slot holds the rebuilt generation, which lies on this store.
    auto pinned = service.pin();
    ASSERT_NE(pinned, nullptr);
    EXPECT_NE(pinned->epoch, foreign.epoch);
    auto root = fx.store->tree().root_at(pinned->basis_size);
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(pinned->basis_root, *root);
}

TEST(QueryService, ForeignGenerationNeverReachesTheSlot) {
    // Same size, other entries: only the basis root tells them apart.
    Fixture fx({"alpha.example", "beta.example"});
    Fixture other({"gamma.example", "delta.example"});
    IndexGeneration foreign = build_index(*other.store, 1);
    ASSERT_EQ(foreign.basis_size, fx.store->size());
    ASSERT_NE(foreign.basis_root, fx.store->tree_head());
    expect_foreign_generation_refused(fx, foreign);
}

TEST(QueryService, GenerationPastStoreSizeNeverReachesTheSlot) {
    // The same entries and one more: its basis is beyond this store.
    Fixture fx({"alpha.example", "beta.example"});
    Fixture longer({"alpha.example", "beta.example", "gamma.example"});
    IndexGeneration foreign = build_index(*longer.store, 1);
    ASSERT_GT(foreign.basis_size, fx.store->size());
    expect_foreign_generation_refused(fx, foreign);
}

TEST(QueryService, SectionAnswersOnlyForTheCapabilitiesItWasBuiltFor) {
    // A profile with a built-in name but its own capabilities: the
    // built-in section folded case, this profile does not, so the
    // section would miss what the scan finds.
    Fixture fx({"Shop.Example.com", "other.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    MonitorProfile case_sensitive = profile("Facebook Monitor");
    case_sensitive.caps.case_insensitive = false;
    auto served = service.query(case_sensitive, "Shop.Example.com");
    auto scanned = service.query(case_sensitive, "Shop.Example.com", {.use_index = false});
    EXPECT_EQ(scanned.result.cert_ids, (std::vector<size_t>{0}));
    EXPECT_EQ(served.result.cert_ids, scanned.result.cert_ids);
    EXPECT_EQ(served.path, QueryPath::kScan);
    EXPECT_TRUE(served.degraded);
    EXPECT_EQ(served.degradation_reason,
              "index section for profile 'Facebook Monitor' was not built for its "
              "capabilities");

    // The built-in profile itself is still served by its section.
    auto builtin = service.query(profile("Facebook Monitor"), "shop.example.com");
    EXPECT_EQ(builtin.path, QueryPath::kIndex);
    EXPECT_EQ(builtin.result.cert_ids, (std::vector<size_t>{0}));
}

TEST(QueryService, RejectedQueriesNeverTouchTheLadder) {
    Fixture fx({"alpha.example"});
    QueryService service(fx.fs, *fx.store);
    auto served = service.query(profile("Crt.sh"), "m\xC3\xBCnchen.example");
    EXPECT_EQ(served.path, QueryPath::kRejected);
    EXPECT_FALSE(served.result.query_accepted);
    EXPECT_FALSE(served.result.rejection_reason.empty());
    EXPECT_TRUE(served.result.cert_ids.empty());
}

TEST(QueryService, SpecialUnicodeParityIncludesHiddenRecords) {
    // The ZWSP cert is hidden from name queries under SSLMate's profile
    // (P1.4: it never returns special-Unicode names) but the
    // special-Unicode retrieval surfaces it — on both rungs.
    Fixture fx({"clean.example", "victim\xE2\x80\x8B.com", "other.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    const MonitorProfile& sslmate = profile("SSLMate Spotter");
    auto indexed = service.special_unicode(sslmate, kFieldCn);
    auto scanned = service.special_unicode(sslmate, kFieldCn, {.use_index = false});
    EXPECT_EQ(indexed.path, QueryPath::kIndex);
    EXPECT_EQ(indexed.result.cert_ids, (std::vector<size_t>{1}));
    EXPECT_EQ(indexed.result.cert_ids, scanned.result.cert_ids);

    // But the hidden record is unreachable through name search.
    auto hidden = service.query(sslmate, "victim");
    EXPECT_TRUE(hidden.result.cert_ids.empty());
}

TEST(QueryService, PinnedSnapshotSurvivesRefresh) {
    Fixture fx({"alpha.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    auto pinned = service.pin();
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_EQ(pinned->basis_size, 1u);

    std::vector<store::PendingEntry> more = {entry_for("beta.example", "beta.example", 5)};
    ASSERT_TRUE(service.ingest(more).ok());
    ASSERT_TRUE(service.refresh().ok());

    // The reader's pinned generation is untouched; the slot moved on.
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_EQ(pinned->basis_size, 1u);
    ASSERT_NE(service.pin(), nullptr);
    EXPECT_EQ(service.pin()->epoch, 2u);
    EXPECT_EQ(service.pin()->basis_size, 2u);
}

TEST(QueryService, RefreshAfterLoadDerivesFromTheStore) {
    // Generations on this store's history that a fold must not extend:
    // a subset of the built-in sections, a renamed section, and records
    // that other derivation rules produced. Each loads, so rung 1
    // serves it; the next refresh derives from the store.
    const std::vector<std::function<void(IndexGeneration&)>> variants = {
        [](IndexGeneration& g) { g.profiles.pop_back(); },
        [](IndexGeneration& g) { g.profiles[1].profile_name += " (old rules)"; },
        [](IndexGeneration& g) {
            ProfileIndex& section = g.profiles[0];
            ProfileIndex changed(section.profile_name, *section.caps);
            for (IndexedRecord record : section.records) {
                record.keys.push_back("old-rule.example");
                changed.add(std::move(record));
            }
            section = std::move(changed);
        },
    };
    for (size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE(v);
        Fixture fx({"alpha.example", "beta.example"});
        IndexGeneration on_disk = build_index(*fx.store, 1);
        variants[v](on_disk);
        ASSERT_TRUE(publish_index(fx.fs, fx.store->dir(), on_disk).ok());

        QueryService service(fx.fs, *fx.store);
        auto loaded = service.query(profile("Crt.sh"), "alpha");
        EXPECT_EQ(loaded.path, QueryPath::kIndex);
        EXPECT_EQ(loaded.epoch, 1u);
        std::vector<store::PendingEntry> more = {entry_for("gamma.example", "gamma.example", 9)};
        ASSERT_TRUE(service.ingest(more).ok());
        ASSERT_TRUE(service.refresh().ok());

        auto pinned = service.pin();
        ASSERT_NE(pinned, nullptr);
        EXPECT_EQ(pinned->epoch, 2u);
        EXPECT_EQ(encode_index(*pinned), encode_index(build_index(*fx.store, pinned->epoch)));
        EXPECT_TRUE(service.query(profile("Crt.sh"), "old-rule").result.cert_ids.empty());
    }
}

TEST(QueryService, ConcurrentReadersDuringIngestion) {
    Fixture fx({"host-0.example", "host-1.example", "host-2.example"});
    QueryService service(fx.fs, *fx.store);
    ASSERT_TRUE(service.refresh().ok());

    // Entries the writer's ingest() calls have committed. Every host
    // matches "host-", so a query that starts after an ingest returned
    // must find every id below the count: a generation paired with
    // another generation's delta, or a delta that lags the store,
    // drops some.
    std::atomic<size_t> committed{fx.store->size()};
    std::atomic<bool> stop{false};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                size_t floor = committed.load();
                auto served = service.query(profile("Crt.sh"), "host-");
                const std::vector<size_t>& ids = served.result.cert_ids;
                // Answers are always sorted, duplicate-free store ids,
                // no matter how the writer interleaves.
                for (size_t i = 1; i < ids.size(); ++i) {
                    if (ids[i - 1] >= ids[i]) failures.fetch_add(1);
                }
                for (size_t id = 0; id < floor; ++id) {
                    if (!std::binary_search(ids.begin(), ids.end(), id)) {
                        failures.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    for (int batch = 0; batch < 20; ++batch) {
        std::vector<store::PendingEntry> entries = {
            entry_for("host-" + std::to_string(3 + batch) + ".example",
                      "host-" + std::to_string(3 + batch) + ".example", 100 + batch)};
        ASSERT_TRUE(service.ingest(entries).ok());
        committed.store(4 + static_cast<size_t>(batch));
        if (batch % 4 == 3) {
            ASSERT_TRUE(service.refresh().ok());
        }
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0u);

    auto final_indexed = service.query(profile("Crt.sh"), "host-");
    auto final_scan = service.query(profile("Crt.sh"), "host-", {.use_index = false});
    EXPECT_EQ(final_indexed.result.cert_ids.size(), 23u);
    EXPECT_EQ(final_indexed.result.cert_ids, final_scan.result.cert_ids);
}

}  // namespace
}  // namespace unicert::ctlog::index
