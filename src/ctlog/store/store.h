// unicert/ctlog/store/store.h
//
// Durable, crash-safe CT-log store (DESIGN.md section 10). The paper's
// pipeline assumes a dataset that survives years of ingestion (Section
// 4.1: 70B entries); ctlog::CtLog is purely in-memory, so this module
// supplies the persistence layer underneath it: append-only checksummed
// segment files with a commit record per batch, atomic
// write-temp-then-rename snapshots for the tree head and
// MonitorCheckpoints, and a recovery path that re-derives the exact
// committed state after any crash the FaultyFs substrate can inject.
//
// Durability contract (the kill-point sweep asserts all of it):
//   * append_batch is atomic: after a crash, a batch is either fully
//     present (its commit record survived) or fully absent;
//   * an acknowledged batch (append_batch returned success, meaning the
//     commit record was fsynced) is never lost;
//   * an unacknowledged batch is never partially resurrected;
//   * the recovered Merkle root always equals the root recomputed over
//     the recovered entries, and matches the last verified commit.
//
// Any I/O error latches the store into a failed state — in-memory and
// on-disk state may have diverged, and the only safe continuation is a
// fresh Store::open (which is exactly what a restarted process does).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/fs.h"
#include "ctlog/log_source.h"
#include "ctlog/merkle.h"
#include "ctlog/monitor.h"

namespace unicert::ctlog::store {

using crypto::Digest;

struct StoreOptions {
    // Frames (entry + commit records) per segment before rolling to a
    // fresh file. Smaller segments bound per-file damage and speed up
    // tail repair; larger ones reduce file count. The recovery bench
    // sweeps this knob.
    size_t segment_max_records = 1024;

    // Create the directory when absent (unicert_store --init path).
    bool create_if_missing = false;
};

// How the last open()/fsck() found the on-disk state.
enum class RecoveryState {
    kClean,               // every frame verified, nothing dropped
    kTailTruncated,       // torn/uncommitted tail after the last commit discarded
    kQuarantinedRecords,  // bit rot inside committed history; store is read-only
    kUnrecoverable,       // committed data provably lost or format breakage
};

const char* recovery_state_name(RecoveryState state) noexcept;

// One damaged frame recovery could isolate but not repair.
struct QuarantinedRecord {
    std::string segment;   // segment file name
    size_t offset = 0;     // frame start within the segment file
    uint64_t seq = 0;      // sequence number expected at that position
    Error error;
};

// Structured outcome of Store::open / fsck.
struct RecoveryReport {
    RecoveryState state = RecoveryState::kClean;
    size_t segments_scanned = 0;
    size_t entries_recovered = 0;     // committed entries now served
    size_t tail_records_dropped = 0;  // frames discarded as uncommitted
    size_t tail_bytes_dropped = 0;    // bytes truncated after the last committed frame
    std::vector<QuarantinedRecord> quarantined;
    bool head_snapshot_present = false;
    bool head_snapshot_matched = false;
    size_t stray_temp_files = 0;      // leftover *.tmp from interrupted snapshots
    std::vector<std::string> notes;   // human-readable detail, one line each
};

// One recovered/committed log entry.
struct StoredEntry {
    uint64_t seq = 0;       // frame sequence number (not the entry index)
    int64_t timestamp = 0;
    Bytes leaf_der;
};

// One entry of a batch to append.
struct PendingEntry {
    Bytes leaf_der;
    int64_t timestamp = 0;
};

class Store {
public:
    // Open (and, when needed, recover) the store at `dir`. On success
    // `*report` (when given) describes what recovery found; a clean or
    // tail-truncated store is writable, a quarantined one is read-only.
    // Unrecoverable state returns error code "store_unrecoverable" and
    // still fills `*report` with the evidence.
    static Expected<std::unique_ptr<Store>> open(core::Fs& fs, const std::string& dir,
                                                 StoreOptions options = {},
                                                 RecoveryReport* report = nullptr);

    // Append + commit one batch: entry frames, then a commit frame
    // carrying (tree size, Merkle root), then fsync, then a head.snap
    // refresh. Success means the batch is durable. Any failure latches
    // the failed state.
    Status append_batch(std::span<const PendingEntry> batch);

    // One-entry convenience batch.
    Status append(BytesView leaf_der, int64_t timestamp);

    size_t size() const noexcept { return entries_.size(); }
    const std::vector<StoredEntry>& entries() const noexcept { return entries_; }

    // Root over the committed entries (RFC 6962 MTH).
    Digest tree_head() const;
    const MerkleTree& tree() const noexcept { return tree_; }

    // True when appends are refused: quarantined recovery or a latched
    // I/O failure.
    bool read_only() const noexcept { return read_only_ || failed_; }
    const std::string& read_only_reason() const noexcept { return read_only_reason_; }

    const RecoveryReport& recovery() const noexcept { return recovery_; }
    size_t segment_count() const noexcept { return segment_count_; }
    const std::string& dir() const noexcept { return dir_; }

    // ---- durable monitor checkpoints (ckpt-<name>.snap) -------------------

    // Atomically persist a monitor's sync position. `name` must be a
    // [A-Za-z0-9_-]+ slug.
    Status save_checkpoint(const std::string& name, const MonitorCheckpoint& checkpoint);

    // Load a previously saved checkpoint; nullopt when none exists.
    // A corrupt or torn checkpoint file is an error, never a silently
    // wrong cursor.
    Expected<std::optional<MonitorCheckpoint>> load_checkpoint(const std::string& name);

private:
    Store() = default;

    Status write_frames(const std::vector<Bytes>& frames);
    Status roll_segment_if_needed();
    Status write_head_snapshot();
    Status latch_failure(Error error);

    core::Fs* fs_ = nullptr;
    std::string dir_;
    StoreOptions options_;
    RecoveryReport recovery_;

    std::vector<StoredEntry> entries_;  // committed entries, in order
    MerkleTree tree_;                   // over committed entries: roots, proofs
    uint64_t next_seq_ = 0;             // next frame sequence number
    size_t segment_count_ = 0;
    size_t frames_in_segment_ = 0;      // frames in the open segment
    core::FilePtr segment_;             // open handle onto the last segment
    std::string segment_path_;

    bool read_only_ = false;
    bool failed_ = false;
    std::string read_only_reason_;
};

// Read-only integrity scan of a store directory: the same state
// machine as Store::open, but it never mutates anything — safe to run
// against a store another process owns. Errors only when the directory
// itself is unreadable.
Expected<RecoveryReport> fsck(core::Fs& fs, const std::string& dir);

// The documented CLI exit-code mapping for a recovery state:
// 0 clean, 1 tail-truncated, 2 quarantined, 3 unrecoverable.
int recovery_exit_code(RecoveryState state) noexcept;

// LogSource adapter over an open store, so Monitor::sync and the
// compliance pipeline ingest straight from disk.
class StoreLogSource final : public LogSource {
public:
    explicit StoreLogSource(const Store& store) : store_(&store) {}

    std::string name() const override { return "store:" + store_->dir(); }
    Expected<SignedTreeHead> latest_tree_head() override;
    Expected<RawLogEntry> entry_at(size_t index) override;
    Expected<Digest> root_at(size_t tree_size) override;

private:
    const Store* store_;
};

}  // namespace unicert::ctlog::store
