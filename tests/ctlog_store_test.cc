// Tests for the durable CT-log store: on-disk framing round trips,
// append/reopen equality, segment rolling, the StoreLogSource adapter
// feeding Monitor::sync, and the durable MonitorCheckpoint files
// (round-trip, restart parity with exactly-once alerts, and rejection
// of a checkpoint whose root is off the log's consistency path).
#include "ctlog/store/store.h"

#include <gtest/gtest.h>

#include <string>

#include "asn1/time.h"
#include "ctlog/store/format.h"
#include "x509/builder.h"

namespace unicert::ctlog::store {
namespace {

namespace oids = asn1::oids;

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

// A real signed certificate DER: Monitor::sync quarantines leaves it
// cannot parse, so store-backed sync tests need parseable entries.
Bytes cert_der(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x09};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), host),
        x509::make_attribute(oids::organization_name(), "Store Test Org"),
    });
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Store Test CA");
    return x509::sign_certificate(cert, ca);
}

const MonitorProfile& profile(std::string_view name) {
    for (const MonitorProfile& p : monitor_profiles()) {
        if (p.name == name) return p;
    }
    ADD_FAILURE() << "no profile " << name;
    return monitor_profiles()[0];
}

std::unique_ptr<Store> open_store(core::Fs& fs, const std::string& dir, StoreOptions options = {},
                                  RecoveryReport* report = nullptr) {
    options.create_if_missing = true;
    auto store = Store::open(fs, dir, options, report);
    EXPECT_TRUE(store.ok()) << (store.ok() ? "" : store.error().message);
    return store.ok() ? std::move(store).value() : nullptr;
}

// ---- format round trips ----------------------------------------------------

TEST(Format, EntryRecordRoundTrip) {
    EntryRecord in{42, 1700000000, bytes_of("leaf-der-bytes")};
    Bytes frame = encode_entry_record(in);
    auto scanned = scan_record(BytesView(frame.data(), frame.size()), 0);
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(scanned->digest_ok);
    EXPECT_EQ(scanned->type, kRecordEntry);
    EXPECT_EQ(scanned->seq, 42u);
    EXPECT_EQ(scanned->frame_len, frame.size());
    auto out = decode_entry(*scanned);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->seq, in.seq);
    EXPECT_EQ(out->timestamp, in.timestamp);
    EXPECT_EQ(out->leaf_der, in.leaf_der);
}

TEST(Format, CommitRecordRoundTrip) {
    CommitRecord in;
    in.seq = 7;
    in.tree_size = 6;
    in.root.fill(0xAB);
    Bytes frame = encode_commit_record(in);
    auto scanned = scan_record(BytesView(frame.data(), frame.size()), 0);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->type, kRecordCommit);
    auto out = decode_commit(*scanned);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->seq, 7u);
    EXPECT_EQ(out->tree_size, 6u);
    EXPECT_EQ(out->root, in.root);
}

TEST(Format, BitFlipIsDetectedButResumable) {
    EntryRecord in{0, 1, bytes_of("payload")};
    Bytes frame = encode_entry_record(in);
    frame[kRecordPreludeLen] ^= 0x01;  // first payload byte
    auto scanned = scan_record(BytesView(frame.data(), frame.size()), 0);
    ASSERT_TRUE(scanned.ok());
    EXPECT_FALSE(scanned->digest_ok);
    // The frame boundary survives, so a scan can quarantine and resume.
    EXPECT_EQ(scanned->frame_len, frame.size());
}

TEST(Format, TornFrameIsTruncatedError) {
    EntryRecord in{0, 1, bytes_of("payload")};
    Bytes frame = encode_entry_record(in);
    frame.resize(frame.size() - 5);
    auto scanned = scan_record(BytesView(frame.data(), frame.size()), 0);
    ASSERT_FALSE(scanned.ok());
    EXPECT_EQ(scanned.error().code, "record_truncated");
}

TEST(Format, SegmentHeaderRoundTripAndNames) {
    Bytes header = encode_segment_header(0x1234);
    EXPECT_EQ(header.size(), kSegmentHeaderLen);
    auto base = decode_segment_header(BytesView(header.data(), header.size()));
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(*base, 0x1234u);

    std::string name = segment_file_name(0x1234);
    auto parsed = parse_segment_file_name(name);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, 0x1234u);
    EXPECT_FALSE(parse_segment_file_name("head.snap").has_value());

    header[4] ^= 0x10;
    auto bad = decode_segment_header(BytesView(header.data(), header.size()));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, "segment_bad_magic");
}

TEST(Format, CheckpointSnapshotRoundTrip) {
    MonitorCheckpoint in;
    in.next_index = 11;
    in.tree_size = 12;
    in.root_hash.fill(0x5C);
    in.has_head = true;
    Bytes file = encode_checkpoint_snapshot(in);
    auto out = decode_checkpoint_snapshot(BytesView(file.data(), file.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, in);

    file[file.size() / 2] ^= 0x40;
    auto bad = decode_checkpoint_snapshot(BytesView(file.data(), file.size()));
    ASSERT_FALSE(bad.ok());
}

// ---- append / reopen -------------------------------------------------------

TEST(StoreBasics, AppendReopenPreservesEntriesAndRoot) {
    core::MemFs fs;
    Digest root_before;
    {
        auto store = open_store(fs, "ct");
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 5; ++i) {
            Bytes leaf = bytes_of("entry-" + std::to_string(i));
            ASSERT_TRUE(store->append(BytesView(leaf.data(), leaf.size()), 1000 + i).ok());
        }
        EXPECT_EQ(store->size(), 5u);
        root_before = store->tree_head();
    }
    RecoveryReport report;
    auto store = open_store(fs, "ct", {}, &report);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(report.state, RecoveryState::kClean);
    EXPECT_TRUE(report.head_snapshot_present);
    EXPECT_TRUE(report.head_snapshot_matched);
    ASSERT_EQ(store->size(), 5u);
    EXPECT_EQ(store->tree_head(), root_before);
    EXPECT_EQ(store->entries()[3].timestamp, 1003);
    EXPECT_EQ(store->entries()[3].leaf_der, bytes_of("entry-3"));
    EXPECT_FALSE(store->read_only());

    // The reopened store keeps appending from where it left off.
    Bytes leaf = bytes_of("entry-5");
    ASSERT_TRUE(store->append(BytesView(leaf.data(), leaf.size()), 1005).ok());
    EXPECT_EQ(store->size(), 6u);
}

TEST(StoreBasics, BatchIsOneCommit) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);
    std::vector<PendingEntry> batch;
    for (int i = 0; i < 4; ++i) batch.push_back({bytes_of("b" + std::to_string(i)), 50 + i});
    ASSERT_TRUE(store->append_batch(batch).ok());
    EXPECT_EQ(store->size(), 4u);

    // Root must equal an independent MerkleTree over the same leaves.
    MerkleTree tree;
    for (const auto& e : batch) tree.append(BytesView(e.leaf_der.data(), e.leaf_der.size()));
    EXPECT_EQ(store->tree_head(), tree.root());
}

TEST(StoreBasics, RollsSegmentsAndRecoversAcrossThem) {
    core::MemFs fs;
    StoreOptions options;
    options.segment_max_records = 4;  // force frequent rolls
    {
        auto store = open_store(fs, "ct", options);
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 10; ++i) {
            Bytes leaf = bytes_of("roll-" + std::to_string(i));
            ASSERT_TRUE(store->append(BytesView(leaf.data(), leaf.size()), i).ok());
        }
        EXPECT_GT(store->segment_count(), 1u);
    }
    RecoveryReport report;
    auto store = open_store(fs, "ct", options, &report);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(report.state, RecoveryState::kClean);
    EXPECT_GT(report.segments_scanned, 1u);
    ASSERT_EQ(store->size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(store->entries()[i].leaf_der, bytes_of("roll-" + std::to_string(i)));
    }
}

TEST(StoreBasics, EmptyStoreIsCleanWithEmptyRoot) {
    core::MemFs fs;
    RecoveryReport report;
    auto store = open_store(fs, "ct", {}, &report);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(report.state, RecoveryState::kClean);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->tree_head(), crypto::sha256(BytesView{}));
}

TEST(StoreBasics, OpenWithoutCreateFailsOnMissingDir) {
    core::MemFs fs;
    auto store = Store::open(fs, "missing");
    EXPECT_FALSE(store.ok());
}

// ---- fsck ------------------------------------------------------------------

TEST(Fsck, FlaggedBitRotQuarantinesAndStoreGoesReadOnly) {
    core::MemFs fs;
    {
        auto store = open_store(fs, "ct");
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 3; ++i) {
            Bytes leaf = bytes_of("q-" + std::to_string(i));
            ASSERT_TRUE(store->append(BytesView(leaf.data(), leaf.size()), i).ok());
        }
    }
    // Rot a byte inside the first committed frame's payload.
    ASSERT_TRUE(fs.flip_bit("ct/" + segment_file_name(0), kSegmentHeaderLen + kRecordPreludeLen));

    auto report = fsck(fs, "ct");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->state, RecoveryState::kQuarantinedRecords);
    ASSERT_FALSE(report->quarantined.empty());
    EXPECT_EQ(report->quarantined[0].offset, kSegmentHeaderLen);
    EXPECT_EQ(recovery_exit_code(report->state), 2);

    RecoveryReport open_report;
    auto store = Store::open(fs, "ct", {}, &open_report);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE((*store)->read_only());
    Bytes leaf = bytes_of("refused");
    Status st = (*store)->append(BytesView(leaf.data(), leaf.size()), 0);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, "store_read_only");
}

TEST(Fsck, ExitCodeMappingIsStable) {
    EXPECT_EQ(recovery_exit_code(RecoveryState::kClean), 0);
    EXPECT_EQ(recovery_exit_code(RecoveryState::kTailTruncated), 1);
    EXPECT_EQ(recovery_exit_code(RecoveryState::kQuarantinedRecords), 2);
    EXPECT_EQ(recovery_exit_code(RecoveryState::kUnrecoverable), 3);
}

// ---- StoreLogSource + Monitor sync -----------------------------------------

TEST(StoreSource, MonitorSyncsFromDisk) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->append(BytesView(cert_der("a.example")), 100).ok());
    ASSERT_TRUE(store->append(BytesView(cert_der("b.example")), 101).ok());

    StoreLogSource source(*store);
    auto head = source.latest_tree_head();
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(head->tree_size, 2u);
    EXPECT_EQ(head->root_hash, store->tree_head());
    EXPECT_EQ(head->timestamp, 101);

    auto entry = source.entry_at(1);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->index, 1u);
    auto missing = source.entry_at(2);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, "entry_out_of_range");

    Monitor m(profile("Crt.sh"));
    m.watch("b.example");
    SyncReport sync = m.sync(source);
    EXPECT_TRUE(sync.completed);
    EXPECT_EQ(sync.indexed, 2u);
    EXPECT_TRUE(sync.quarantined.empty());
    EXPECT_EQ(m.drain_alerts().size(), 1u);
    EXPECT_FALSE(m.query("a.example").cert_ids.empty());
}

// ---- durable monitor checkpoints (satellite #4) ----------------------------

TEST(Checkpoints, SaveLoadRoundTrip) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);

    auto absent = store->load_checkpoint("crtsh");
    ASSERT_TRUE(absent.ok());
    EXPECT_FALSE(absent->has_value());

    MonitorCheckpoint ckpt;
    ckpt.next_index = 3;
    ckpt.tree_size = 3;
    ckpt.root_hash.fill(0x21);
    ckpt.has_head = true;
    ASSERT_TRUE(store->save_checkpoint("crtsh", ckpt).ok());
    auto back = store->load_checkpoint("crtsh");
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE(back->has_value());
    EXPECT_EQ(**back, ckpt);

    // Invalid slugs never touch the filesystem.
    EXPECT_FALSE(store->save_checkpoint("../escape", ckpt).ok());
    EXPECT_FALSE(store->save_checkpoint("", ckpt).ok());
}

TEST(Checkpoints, CorruptFileIsAnErrorNotASilentCursor) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);
    MonitorCheckpoint ckpt;
    ckpt.next_index = 9;
    ASSERT_TRUE(store->save_checkpoint("m", ckpt).ok());
    ASSERT_TRUE(fs.flip_bit("ct/ckpt-m.snap", kSnapshotMagic.size() + 2));
    auto back = store->load_checkpoint("m");
    EXPECT_FALSE(back.ok());
}

TEST(Checkpoints, RestartResumesWithParityAndExactlyOnceAlerts) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->append(BytesView(cert_der("one.example")), 1).ok());
    ASSERT_TRUE(store->append(BytesView(cert_der("two.example")), 2).ok());
    StoreLogSource source(*store);

    // The uninterrupted baseline the restarted monitor must match.
    Monitor uninterrupted(profile("Crt.sh"));
    uninterrupted.watch("one.example");
    uninterrupted.watch("four.example");

    // Interrupted monitor: sync, persist the checkpoint, "restart".
    size_t alerts_before = 0;
    {
        Monitor m(profile("Crt.sh"));
        m.watch("one.example");
        m.watch("four.example");
        SyncReport sync = m.sync(source);
        ASSERT_TRUE(sync.completed);
        EXPECT_EQ(sync.indexed, 2u);
        alerts_before = m.drain_alerts().size();
        EXPECT_EQ(alerts_before, 1u);  // one.example fired
        ASSERT_TRUE(store->save_checkpoint("m", m.checkpoint()).ok());
    }

    ASSERT_TRUE(store->append(BytesView(cert_der("three.example")), 3).ok());
    ASSERT_TRUE(store->append(BytesView(cert_der("four.example")), 4).ok());

    // Restarted process: fresh Monitor restored from the durable
    // checkpoint must only consume the two new entries — no
    // double-indexing of old ones, no skipped alerts for new ones.
    Monitor restarted(profile("Crt.sh"));
    restarted.watch("one.example");
    restarted.watch("four.example");
    auto saved = store->load_checkpoint("m");
    ASSERT_TRUE(saved.ok() && saved->has_value());
    restarted.restore_checkpoint(**saved);
    SyncReport resumed = restarted.sync(source);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.indexed, 2u);
    auto alerts = restarted.drain_alerts();
    ASSERT_EQ(alerts.size(), 1u);  // four.example, exactly once
    EXPECT_EQ(alerts[0].domain, "four.example");

    SyncReport full = uninterrupted.sync(source);
    ASSERT_TRUE(full.completed);
    EXPECT_EQ(full.indexed, 4u);
    // Parity: restarted-with-checkpoint sees the same alert set over the
    // whole stream as the uninterrupted monitor.
    EXPECT_EQ(alerts_before + alerts.size(), uninterrupted.drain_alerts().size());
    EXPECT_EQ(restarted.checkpoint(), uninterrupted.checkpoint());
}

TEST(Checkpoints, OffPathRootIsRejectedAsSplitView) {
    core::MemFs fs;
    auto store = open_store(fs, "ct");
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(store->append(BytesView(cert_der("s" + std::to_string(i) + ".example")),
                                  i).ok());
    }
    StoreLogSource source(*store);

    // A checkpoint claiming a tree head this log never served: the sync
    // must flag the split view instead of silently resuming the cursor.
    MonitorCheckpoint forged;
    forged.next_index = 2;
    forged.tree_size = 2;
    forged.root_hash.fill(0xEE);  // not on the consistency path
    forged.has_head = true;
    ASSERT_TRUE(store->save_checkpoint("forged", forged).ok());

    Monitor m(profile("Crt.sh"));
    auto saved = store->load_checkpoint("forged");
    ASSERT_TRUE(saved.ok() && saved->has_value());
    m.restore_checkpoint(**saved);
    SyncReport sync = m.sync(source);
    EXPECT_TRUE(sync.split_view_detected);
    EXPECT_FALSE(sync.completed);
    EXPECT_EQ(m.indexed_count(), 0u);  // nothing ingested on a forked view
}

}  // namespace
}  // namespace unicert::ctlog::store
