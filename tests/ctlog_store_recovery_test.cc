// Crash-safety property tests for the durable CT-log store: a
// kill-point sweep (crash after every k-th filesystem operation, with
// torn tails and bit flips from the seeded plan), fsck classification
// of every corruption class, the I/O-failure latch, and monitor resume
// from a durable checkpoint across a crash.
//
// The durability contract under test, for every kill point:
//   * an acknowledged batch (append_batch returned success) is never
//     lost;
//   * an unacknowledged batch is never partially resurrected — the
//     recovered log is acked entries, or acked plus the whole in-flight
//     batch;
//   * the recovered root equals an independent Merkle recomputation;
//   * recovery itself is idempotent: a second open finds a clean store.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "asn1/time.h"
#include "ctlog/store/format.h"
#include "ctlog/store/store.h"
#include "faultsim/faulty_fs.h"
#include "x509/builder.h"

namespace unicert::ctlog::store {
namespace {

namespace oids = asn1::oids;

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

Bytes cert_der(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x0B};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), host)});
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Recovery Test CA");
    return x509::sign_certificate(cert, ca);
}

// What one workload run observed before the (possible) crash.
struct WorkloadResult {
    std::vector<Bytes> acked;     // entries whose batch was acknowledged
    std::vector<Bytes> inflight;  // the one batch that failed (if any)
    size_t ops = 0;               // fs ops the full workload consumed
    bool opened = false;
};

// Append six batches of varying size through the faulty fs, stopping at
// the first failure. Small segments force rolls mid-workload.
WorkloadResult run_workload(faultsim::FaultyFs& fs, uint64_t salt) {
    WorkloadResult result;
    StoreOptions options;
    options.segment_max_records = 4;
    options.create_if_missing = true;
    auto store = Store::open(fs, "ct", options);
    if (!store.ok()) {
        result.ops = fs.ops();
        return result;
    }
    result.opened = true;
    for (size_t b = 0; b < 6; ++b) {
        std::vector<PendingEntry> batch;
        for (size_t e = 0; e <= b % 3; ++e) {
            batch.push_back({bytes_of("leaf-" + std::to_string(salt) + "-" + std::to_string(b) +
                                      "-" + std::to_string(e)),
                             static_cast<int64_t>(100 * b + e)});
        }
        Status st = (*store)->append_batch(batch);
        if (!st.ok()) {
            // The failed batch's leaves went into the tree for its commit
            // root. Whichever op failed, the tree must again cover exactly
            // the entries the store holds (the batch is among them only
            // when its commit was durable and a later step failed).
            MerkleTree committed;
            for (const StoredEntry& e : (*store)->entries()) committed.append(e.leaf_der);
            EXPECT_EQ((*store)->tree().size(), (*store)->size()) << "salt " << salt;
            EXPECT_EQ((*store)->tree_head(), committed.root()) << "salt " << salt;
            for (auto& p : batch) result.inflight.push_back(std::move(p.leaf_der));
            break;
        }
        for (auto& p : batch) result.acked.push_back(std::move(p.leaf_der));
    }
    result.ops = fs.ops();
    return result;
}

// Reopen after the crash and check every durability invariant.
void check_recovery(core::MemFs& inner, const WorkloadResult& expected, bool bit_flips,
                    const std::string& label) {
    RecoveryReport report;
    StoreOptions options;
    options.segment_max_records = 4;
    options.create_if_missing = true;  // the crash may predate make_dirs
    auto store = Store::open(inner, "ct", options, &report);
    ASSERT_TRUE(store.ok()) << label << ": " << store.error().message;
    if (bit_flips) {
        EXPECT_NE(report.state, RecoveryState::kUnrecoverable) << label;
    } else {
        EXPECT_TRUE(report.state == RecoveryState::kClean ||
                    report.state == RecoveryState::kTailTruncated)
            << label << ": " << recovery_state_name(report.state);
    }

    const auto& entries = (*store)->entries();
    const size_t acked = expected.acked.size();
    const size_t all = acked + expected.inflight.size();
    ASSERT_TRUE(entries.size() == acked || entries.size() == all)
        << label << ": recovered " << entries.size() << ", acked " << acked << ", in-flight "
        << expected.inflight.size();
    ASSERT_GE(entries.size(), acked) << label << ": acknowledged entries were lost";

    MerkleTree independent;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Bytes& want =
            i < acked ? expected.acked[i] : expected.inflight[i - acked];
        ASSERT_EQ(entries[i].leaf_der, want) << label << ": entry " << i << " diverged";
        independent.append(entries[i].leaf_der);
    }
    EXPECT_EQ((*store)->tree_head(), independent.root()) << label;

    // Recovery repaired the tail through the fs, so a second look must
    // find a clean store with identical content (idempotence) — except
    // after quarantine, where open() deliberately leaves the damage in
    // place and serves read-only.
    if (report.state == RecoveryState::kQuarantinedRecords) {
        EXPECT_TRUE((*store)->read_only()) << label;
        return;
    }
    const size_t recovered = entries.size();
    auto again = fsck(inner, "ct");
    ASSERT_TRUE(again.ok()) << label;
    EXPECT_EQ(again->state, RecoveryState::kClean) << label;
    EXPECT_EQ(again->entries_recovered, recovered) << label;

    // And the repaired store accepts new appends.
    Bytes extra = bytes_of("post-recovery");
    ASSERT_TRUE((*store)->append(BytesView(extra.data(), extra.size()), 999).ok()) << label;
    EXPECT_EQ((*store)->size(), recovered + 1) << label;
}

void sweep(uint64_t seed, bool bit_flips) {
    faultsim::FaultyFsOptions probe;
    probe.plan.seed = seed;
    core::MemFs probe_fs;
    faultsim::FaultyFs probe_faulty(probe_fs, probe);
    const size_t total_ops = run_workload(probe_faulty, seed).ops;
    ASSERT_GT(total_ops, 10u);

    for (size_t k = 1; k <= total_ops; ++k) {
        core::MemFs inner;
        faultsim::FaultyFsOptions options;
        options.plan.seed = seed + k;  // vary the torn-tail shapes too
        options.plan.torn_tail_rate = 0.7;
        if (bit_flips) {
            options.plan.torn_tail_rate = 1.0;
            options.plan.bit_flip_rate = 1.0;
        }
        options.crash_after_ops = k;
        faultsim::FaultyFs faulty(inner, options);

        WorkloadResult result = run_workload(faulty, seed);
        faulty.crash();  // power loss: tear the unsynced tails

        check_recovery(inner, result, bit_flips,
                       "seed " + std::to_string(seed) + " kill-point " + std::to_string(k));
    }
}

TEST(KillPointSweep, EveryCrashPointRecoversTornTails) {
    for (uint64_t seed : {1u, 2u, 3u}) sweep(seed, /*bit_flips=*/false);
}

TEST(KillPointSweep, EveryCrashPointRecoversWithBitFlippedTails) {
    for (uint64_t seed : {4u, 5u}) sweep(seed, /*bit_flips=*/true);
}

// ---- I/O failure latch -----------------------------------------------------

TEST(FailureLatch, SyncFailureMakesTheStoreRefuseFurtherAppends) {
    core::MemFs inner;
    faultsim::FaultyFsOptions options;
    options.plan.sync_fail_rate = 1.0;
    faultsim::FaultyFs faulty(inner, options);

    StoreOptions store_options;
    store_options.create_if_missing = true;
    auto store = Store::open(faulty, "ct", store_options);
    if (!store.ok()) return;  // open itself may trip the channel first — also a valid latch
    Bytes leaf = bytes_of("x");
    Status st = (*store)->append(BytesView(leaf.data(), leaf.size()), 1);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE((*store)->read_only());
    EXPECT_FALSE((*store)->read_only_reason().empty());

    Status refused = (*store)->append(BytesView(leaf.data(), leaf.size()), 2);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().code, "store_read_only");
}

// ---- fsck classification ---------------------------------------------------

class FsckClassification : public ::testing::Test {
protected:
    // Two segments, six committed entries, head snapshot in place.
    void build() {
        StoreOptions options;
        options.segment_max_records = 3;
        options.create_if_missing = true;
        auto store = Store::open(fs_, "ct", options);
        ASSERT_TRUE(store.ok());
        for (int i = 0; i < 6; ++i) {
            Bytes leaf = bytes_of("entry-" + std::to_string(i));
            ASSERT_TRUE((*store)->append(BytesView(leaf.data(), leaf.size()), i).ok());
        }
        ASSERT_GE((*store)->segment_count(), 2u);
        first_segment_ = segment_file_name(0);
        auto names = fs_.list_dir("ct");
        ASSERT_TRUE(names.ok());
        for (const std::string& name : *names) {
            if (parse_segment_file_name(name)) last_segment_ = name;  // sorted: last wins
        }
    }

    core::MemFs fs_;
    std::string first_segment_;
    std::string last_segment_;
};

TEST_F(FsckClassification, CleanStoreIsClean) {
    build();
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kClean);
    EXPECT_EQ(report->entries_recovered, 6u);
    EXPECT_TRUE(report->head_snapshot_matched);
}

TEST_F(FsckClassification, TornTailIsTailTruncated) {
    build();
    // An unsynced, half-written frame at the end of the last segment.
    auto file = fs_.open_append("ct/" + last_segment_);
    ASSERT_TRUE(file.ok());
    EntryRecord torn{99, 0, bytes_of("never-committed")};
    Bytes frame = encode_entry_record(torn);
    ASSERT_TRUE((*file)->write(BytesView(frame.data(), frame.size())).ok());
    fs_.simulate_crash([](const std::string&, size_t, size_t unsynced) { return unsynced / 2; });

    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kTailTruncated);
    EXPECT_EQ(report->entries_recovered, 6u);
    EXPECT_GT(report->tail_bytes_dropped, 0u);
}

TEST_F(FsckClassification, BitRotInCommittedHistoryIsQuarantined) {
    build();
    ASSERT_TRUE(fs_.flip_bit("ct/" + first_segment_, kSegmentHeaderLen + kRecordPreludeLen + 1));
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kQuarantinedRecords);
    ASSERT_FALSE(report->quarantined.empty());
    EXPECT_EQ(report->quarantined[0].segment, first_segment_);
    EXPECT_LT(report->entries_recovered, 6u);
}

TEST_F(FsckClassification, MissingSegmentIsUnrecoverable) {
    build();
    ASSERT_TRUE(fs_.remove("ct/" + first_segment_).ok());
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kUnrecoverable);

    RecoveryReport open_report;
    auto store = Store::open(fs_, "ct", {}, &open_report);
    ASSERT_FALSE(store.ok());
    EXPECT_EQ(store.error().code, "store_unrecoverable");
    EXPECT_EQ(open_report.state, RecoveryState::kUnrecoverable);
}

TEST_F(FsckClassification, HeadSnapshotAheadOfLogIsUnrecoverable) {
    build();
    // Replace the log with a shorter history while head.snap still
    // records six committed entries: acknowledged data provably lost.
    ASSERT_TRUE(fs_.remove("ct/" + last_segment_).ok());
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kUnrecoverable);
}

TEST_F(FsckClassification, CorruptHeadSnapshotIsAdvisoryOnly) {
    build();
    // The snapshot is a floor, not the log: losing it loses nothing.
    ASSERT_TRUE(fs_.flip_bit("ct/head.snap", kSnapshotMagic.size() + 1));
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kClean);
    EXPECT_TRUE(report->head_snapshot_present);
    EXPECT_FALSE(report->head_snapshot_matched);
    EXPECT_EQ(report->entries_recovered, 6u);
}

TEST_F(FsckClassification, StrayTempFilesAreCountedNotFatal) {
    build();
    auto tmp = fs_.create("ct/head.snap.tmp");
    ASSERT_TRUE(tmp.ok());
    Bytes junk = bytes_of("interrupted");
    ASSERT_TRUE((*tmp)->write(BytesView(junk.data(), junk.size())).ok());
    ASSERT_TRUE((*tmp)->sync().ok());
    auto report = fsck(fs_, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kClean);
    EXPECT_EQ(report->stray_temp_files, 1u);
}

// ---- monitor resume across a crash -----------------------------------------

// The full restart protocol under the kill-point sweep: sync from the
// store, deliver alerts into an idempotent sink (keyed by domain — real
// alert pipelines dedup on certificate identity), persist the monitor
// checkpoint, crash anywhere, recover, restore the checkpoint into a
// fresh monitor and finish. The restarted monitor must never re-index
// entries its durable checkpoint covers, and the sink must end up with
// exactly the watched domains that are committed in the recovered log —
// nothing skipped, nothing phantom.
TEST(MonitorResume, ExactlyOnceAlertsAcrossEveryKillPoint) {
    const std::vector<std::string> hosts = {"h0.example", "h1.example", "h2.example",
                                            "h3.example"};
    std::vector<Bytes> ders;
    for (const std::string& host : hosts) ders.push_back(cert_der(host));

    const MonitorProfile* crtsh = nullptr;
    for (const MonitorProfile& p : monitor_profiles()) {
        if (p.name == "Crt.sh") crtsh = &p;
    }
    ASSERT_NE(crtsh, nullptr);

    auto protocol = [&](core::Fs& fs, std::set<std::string>& sink) -> size_t {
        StoreOptions options;
        options.create_if_missing = true;
        auto store = Store::open(fs, "ct", options);
        if (!store.ok()) return 0;
        Monitor m(*crtsh);
        for (const std::string& host : hosts) m.watch(host);
        for (size_t b = 0; b < 2; ++b) {
            std::vector<PendingEntry> batch;
            for (size_t e = 0; e < 2; ++e) {
                batch.push_back({ders[2 * b + e], static_cast<int64_t>(2 * b + e)});
            }
            if (!(*store)->append_batch(batch).ok()) return (*store)->size();
            StoreLogSource source(**store);
            SyncReport sync = m.sync(source);
            if (!sync.completed) return (*store)->size();
            for (const Monitor::Alert& alert : m.drain_alerts()) sink.insert(alert.domain);
            if (!(*store)->save_checkpoint("m", m.checkpoint()).ok()) return (*store)->size();
        }
        return (*store)->size();
    };

    // Measure the op budget of a fault-free run, then kill everywhere.
    size_t total_ops = 0;
    {
        core::MemFs inner;
        faultsim::FaultyFs faulty(inner, {});
        std::set<std::string> sink;
        ASSERT_EQ(protocol(faulty, sink), hosts.size());
        ASSERT_EQ(sink.size(), hosts.size());
        total_ops = faulty.ops();
    }
    ASSERT_GT(total_ops, 10u);

    for (size_t k = 1; k <= total_ops; ++k) {
        const std::string label = "kill-point " + std::to_string(k);
        core::MemFs inner;
        faultsim::FaultyFsOptions options;
        options.plan.seed = 77 + k;
        options.plan.torn_tail_rate = 1.0;
        options.crash_after_ops = k;
        faultsim::FaultyFs faulty(inner, options);

        std::set<std::string> sink;
        protocol(faulty, sink);
        faulty.crash();

        // Reboot: recover the store, restore the durable checkpoint.
        StoreOptions store_options;
        store_options.create_if_missing = true;
        auto store = Store::open(inner, "ct", store_options);
        ASSERT_TRUE(store.ok()) << label;
        auto saved = (*store)->load_checkpoint("m");
        ASSERT_TRUE(saved.ok()) << label << ": a checkpoint must never load corrupt";

        Monitor restarted(*crtsh);
        for (const std::string& host : hosts) restarted.watch(host);
        size_t cursor = 0;
        if (saved->has_value()) {
            restarted.restore_checkpoint(**saved);
            cursor = (**saved).next_index;
        }
        ASSERT_LE(cursor, (*store)->size())
            << label << ": checkpoint ahead of the recovered log";
        StoreLogSource source(**store);
        SyncReport resumed = restarted.sync(source);
        ASSERT_TRUE(resumed.completed) << label;
        EXPECT_EQ(resumed.indexed, (*store)->size() - cursor)
            << label << ": restarted monitor re-indexed checkpointed entries";
        for (const Monitor::Alert& alert : restarted.drain_alerts()) sink.insert(alert.domain);

        // Exactly the committed, watched hosts — delivered once each.
        std::set<std::string> committed;
        for (size_t i = 0; i < (*store)->size(); ++i) committed.insert(hosts[i]);
        EXPECT_EQ(sink, committed) << label;
    }
}

}  // namespace
}  // namespace unicert::ctlog::store
