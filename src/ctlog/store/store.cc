#include "ctlog/store/store.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <utility>

#include "ctlog/store/format.h"

namespace unicert::ctlog::store {

// ---- recovery scan ---------------------------------------------------------

namespace {

// Everything Store::open needs from a directory scan, plus the tail
// repair plan (fsck reports the plan without executing it).
struct ScanOutcome {
    RecoveryReport report;
    std::vector<StoredEntry> entries;  // committed entries, in order
    MerkleTree tree;                   // over `entries`
    uint64_t next_seq = 0;
    size_t segment_count = 0;           // segments remaining after repair
    size_t frames_in_last_segment = 0;  // committed frames in the kept tail segment

    enum class Repair { kNone, kTruncate, kRemove };
    Repair repair = Repair::kNone;
    std::string repair_path;
    size_t repair_keep_len = 0;
};

// The scan is strictly read-only: Store::open executes the repair plan
// afterwards, fsck never does.
Expected<ScanOutcome> scan_store(core::Fs& fs, const std::string& dir) {
    auto names = fs.list_dir(dir);
    if (!names.ok()) return names.error();

    ScanOutcome out;
    RecoveryReport& rep = out.report;

    std::vector<std::pair<uint64_t, std::string>> segments;
    bool head_present = false;
    for (const std::string& name : *names) {
        if (auto base = parse_segment_file_name(name)) {
            segments.emplace_back(*base, name);
        } else if (name == "head.snap") {
            head_present = true;
        } else if (name.ends_with(".tmp")) {
            ++rep.stray_temp_files;
            rep.notes.push_back("stray temp file from an interrupted snapshot: " + name);
        } else if (name.starts_with("ckpt-") && name.ends_with(".snap")) {
            // Monitor checkpoints live beside the log but are not part of it.
        } else {
            rep.notes.push_back("unrecognized file ignored: " + name);
        }
    }
    std::sort(segments.begin(), segments.end());
    rep.segments_scanned = segments.size();

    bool fatal = false;
    auto fail = [&](std::string note) {
        rep.notes.push_back(std::move(note));
        fatal = true;
    };

    // First point past which frames can no longer be trusted. Scanning
    // continues structurally (frame boundaries only) so the classifier
    // can tell tail damage from damage inside committed history.
    struct Damage {
        size_t segment_index = 0;
        size_t offset = 0;
        uint64_t seq = 0;  // sequence expected at the damage point
        Error error;
        bool torn_header = false;
    };
    std::optional<Damage> damage;
    size_t post_damage_commits = 0;  // commit frames past the damage claiming more entries
    size_t post_damage_frames = 0;
    std::vector<QuarantinedRecord> candidates;

    // Entries awaiting their commit frame. Their leaves are already in
    // out.tree, so a commit checks its root in O(log n); leaves whose
    // commit never verifies are truncated away after the scan.
    std::vector<StoredEntry> pending;
    uint64_t expected_seq = 0;
    uint64_t committed_next_seq = 0;
    bool have_commit = false;
    size_t last_commit_si = 0;
    size_t last_commit_end = 0;     // offset just past the last commit frame
    size_t last_commit_frames = 0;  // frames in its segment up to that commit
    size_t last_file_size = 0;

    for (size_t si = 0; si < segments.size() && !fatal; ++si) {
        const bool is_last = si + 1 == segments.size();
        const auto& [name_base, name] = segments[si];
        auto bytes = fs.read_file(dir + "/" + name);
        if (!bytes.ok()) {
            fail("segment " + name + " unreadable: " + bytes.error().message);
            break;
        }
        if (is_last) last_file_size = bytes->size();

        auto base = decode_segment_header(*bytes);
        if (!base.ok()) {
            rep.notes.push_back("segment " + name + " header damaged: " + base.error().message);
            if (!is_last) {
                fail("segment " + name + " is not the tail; its header cannot be repaired");
                break;
            }
            if (!damage && name_base != expected_seq) {
                fail("segment " + name + " base disagrees with the preceding frames");
                break;
            }
            if (!damage) damage = Damage{si, 0, expected_seq, base.error(), true};
            continue;  // nothing in this file is readable
        }
        if (*base != name_base) {
            fail("segment " + name + " header base " + std::to_string(*base) +
                 " disagrees with its file name");
            break;
        }
        if (!damage && *base != expected_seq) {
            fail("segment " + name + " starts at seq " + std::to_string(*base) +
                 " but seq " + std::to_string(expected_seq) + " was expected");
            break;
        }

        size_t offset = kSegmentHeaderLen;
        size_t frames_in_this = 0;
        while (offset < bytes->size() && !fatal) {
            auto rec = scan_record(*bytes, offset);
            if (!rec.ok()) {
                if (!damage) {
                    rep.notes.push_back("segment " + name + ": " + rec.error().message +
                                        " at offset " + std::to_string(offset));
                    damage = Damage{si, offset, expected_seq, rec.error(), false};
                } else {
                    rep.notes.push_back("segment " + name + ": unscannable past offset " +
                                        std::to_string(offset));
                }
                break;  // framing lost; cannot resync inside this file
            }
            if (damage) {
                // Structural catalogue only: are there commits beyond
                // the damage that claim entries we could not verify?
                ++post_damage_frames;
                if (rec->digest_ok && rec->type == kRecordCommit) {
                    auto commit = decode_commit(*rec);
                    if (commit.ok() && commit->tree_size > out.entries.size()) {
                        ++post_damage_commits;
                    }
                }
                offset += rec->frame_len;
                continue;
            }
            if (!rec->digest_ok) {
                Error err{"record_checksum", "record digest mismatch (bit rot or torn write)",
                          offset};
                rep.notes.push_back("segment " + name + ": " + err.message + " at offset " +
                                    std::to_string(offset));
                candidates.push_back({name, offset, expected_seq, err});
                damage = Damage{si, offset, expected_seq, err, false};
                offset += rec->frame_len;
                continue;
            }
            if (rec->seq != expected_seq) {
                fail("segment " + name + ": frame at offset " + std::to_string(offset) +
                     " claims seq " + std::to_string(rec->seq) + " but seq " +
                     std::to_string(expected_seq) + " was expected");
                break;
            }
            if (rec->type == kRecordEntry) {
                auto entry = decode_entry(*rec);
                if (!entry.ok()) {
                    candidates.push_back({name, offset, expected_seq, entry.error()});
                    damage = Damage{si, offset, expected_seq, entry.error(), false};
                    offset += rec->frame_len;
                    continue;
                }
                out.tree.append(entry->leaf_der);
                StoredEntry stored;
                stored.seq = entry->seq;
                stored.timestamp = entry->timestamp;
                stored.leaf_der = std::move(entry->leaf_der);
                pending.push_back(std::move(stored));
            } else {
                auto commit = decode_commit(*rec);
                if (!commit.ok()) {
                    candidates.push_back({name, offset, expected_seq, commit.error()});
                    damage = Damage{si, offset, expected_seq, commit.error(), false};
                    offset += rec->frame_len;
                    continue;
                }
                if (commit->tree_size != out.entries.size() + pending.size()) {
                    fail("segment " + name + ": commit at offset " + std::to_string(offset) +
                         " claims tree size " + std::to_string(commit->tree_size) + " but " +
                         std::to_string(out.entries.size() + pending.size()) +
                         " entries precede it");
                    break;
                }
                if (commit->root != out.tree.root()) {
                    fail("segment " + name + ": commit at offset " + std::to_string(offset) +
                         " carries a root that does not match the entries preceding it");
                    break;
                }
                for (StoredEntry& p : pending) out.entries.push_back(std::move(p));
                pending.clear();
                committed_next_seq = rec->seq + 1;
                have_commit = true;
                last_commit_si = si;
                last_commit_end = offset + rec->frame_len;
                last_commit_frames = frames_in_this + 1;
            }
            ++frames_in_this;
            ++expected_seq;
            offset += rec->frame_len;
        }
    }

    out.tree.truncate(out.entries.size());

    const size_t last_si = segments.empty() ? 0 : segments.size() - 1;
    RecoveryState state = RecoveryState::kClean;
    if (fatal) {
        state = RecoveryState::kUnrecoverable;
    } else if (damage && (damage->segment_index != last_si || post_damage_commits > 0)) {
        state = RecoveryState::kQuarantinedRecords;
    } else if (damage || !pending.empty()) {
        state = RecoveryState::kTailTruncated;
    }

    rep.entries_recovered = out.entries.size();

    if (state == RecoveryState::kQuarantinedRecords) {
        rep.quarantined = candidates;
        if (rep.quarantined.empty() && damage) {
            rep.quarantined.push_back({segments[damage->segment_index].second, damage->offset,
                                       damage->seq, damage->error});
        }
        rep.notes.push_back("committed history is damaged: store opens read-only, serving the " +
                            std::to_string(out.entries.size()) + " verified entries");
        if (post_damage_frames > 0) {
            rep.notes.push_back(std::to_string(post_damage_frames) +
                                " frame(s) past the damage are present but unverifiable");
        }
    }

    if (state == RecoveryState::kTailTruncated) {
        rep.tail_records_dropped = pending.size() + candidates.size() + post_damage_frames;
        if (damage && damage->torn_header) {
            out.repair = ScanOutcome::Repair::kRemove;
            out.repair_path = dir + "/" + segments[last_si].second;
            rep.tail_bytes_dropped = last_file_size;
        } else {
            size_t keep = (have_commit && last_commit_si == last_si) ? last_commit_end
                                                                     : kSegmentHeaderLen;
            if (keep < last_file_size) {
                out.repair = ScanOutcome::Repair::kTruncate;
                out.repair_path = dir + "/" + segments[last_si].second;
                out.repair_keep_len = keep;
                rep.tail_bytes_dropped = last_file_size - keep;
            }
        }
        rep.notes.push_back("uncommitted tail discarded: " +
                            std::to_string(rep.tail_records_dropped) + " record(s), " +
                            std::to_string(rep.tail_bytes_dropped) + " byte(s)");
    }

    // The head snapshot is an advisory floor: it can lag by one commit
    // (a crash between the commit fsync and the snapshot rename), but
    // one claiming MORE than was recovered proves acknowledged data was
    // lost.
    if (head_present) {
        rep.head_snapshot_present = true;
        auto snap_bytes = fs.read_file(dir + "/head.snap");
        Expected<HeadSnapshot> head =
            snap_bytes.ok() ? decode_head_snapshot(*snap_bytes)
                            : Expected<HeadSnapshot>(snap_bytes.error());
        if (!head.ok()) {
            rep.notes.push_back("head snapshot unreadable: " + head.error().code + ": " +
                                head.error().message);
        } else if (head->tree_size > out.entries.size()) {
            rep.notes.push_back("head snapshot records " + std::to_string(head->tree_size) +
                                " committed entries but only " +
                                std::to_string(out.entries.size()) + " were recovered");
            if (state != RecoveryState::kQuarantinedRecords) {
                state = RecoveryState::kUnrecoverable;
            }
        } else {
            auto root = out.tree.root_at(head->tree_size);
            if (!root.ok() || *root != head->root) {
                rep.notes.push_back("head snapshot root disagrees with the recovered log at size " +
                                    std::to_string(head->tree_size));
                state = RecoveryState::kUnrecoverable;
            } else {
                rep.head_snapshot_matched = true;
            }
        }
    }

    rep.state = state;

    // Writer-resume position. Dropped tail frames never reached a
    // durable commit, so their sequence numbers are reused.
    out.next_seq = committed_next_seq;
    out.segment_count =
        segments.size() - (out.repair == ScanOutcome::Repair::kRemove ? 1 : 0);
    if (out.segment_count == 0) {
        out.frames_in_last_segment = 0;
    } else {
        size_t kept_last = out.repair == ScanOutcome::Repair::kRemove ? last_si - 1 : last_si;
        out.frames_in_last_segment =
            (have_commit && last_commit_si == kept_last) ? last_commit_frames : 0;
    }
    return out;
}

bool valid_checkpoint_name(const std::string& name) {
    if (name.empty() || name.size() > 64) return false;
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') return false;
    }
    return true;
}

std::string checkpoint_path(const std::string& dir, const std::string& name) {
    return dir + "/ckpt-" + name + ".snap";
}

}  // namespace

const char* recovery_state_name(RecoveryState state) noexcept {
    switch (state) {
        case RecoveryState::kClean: return "clean";
        case RecoveryState::kTailTruncated: return "tail-truncated";
        case RecoveryState::kQuarantinedRecords: return "quarantined-records";
        case RecoveryState::kUnrecoverable: return "unrecoverable";
    }
    return "unknown";
}

int recovery_exit_code(RecoveryState state) noexcept {
    switch (state) {
        case RecoveryState::kClean: return 0;
        case RecoveryState::kTailTruncated: return 1;
        case RecoveryState::kQuarantinedRecords: return 2;
        case RecoveryState::kUnrecoverable: return 3;
    }
    return 3;
}

// ---- Store -----------------------------------------------------------------

Expected<std::unique_ptr<Store>> Store::open(core::Fs& fs, const std::string& dir,
                                             StoreOptions options, RecoveryReport* report) {
    auto scanned = scan_store(fs, dir);
    if (!scanned.ok()) {
        if (!options.create_if_missing) return scanned.error();
        if (auto made = fs.make_dirs(dir); !made.ok()) return made.error();
        scanned = ScanOutcome{};
    }
    ScanOutcome& s = *scanned;
    if (report) *report = s.report;
    if (s.report.state == RecoveryState::kUnrecoverable) {
        std::string why = s.report.notes.empty() ? "committed data lost" : s.report.notes.back();
        return Error{"store_unrecoverable", "store at " + dir + " is unrecoverable: " + why};
    }

    std::unique_ptr<Store> store(new Store());
    store->fs_ = &fs;
    store->dir_ = dir;
    store->options_ = options;
    store->recovery_ = s.report;
    store->entries_ = std::move(s.entries);
    store->tree_ = std::move(s.tree);
    store->next_seq_ = s.next_seq;
    store->segment_count_ = s.segment_count;
    store->frames_in_segment_ = s.frames_in_last_segment;

    if (s.report.state == RecoveryState::kQuarantinedRecords) {
        store->read_only_ = true;
        store->read_only_reason_ =
            "quarantined records in committed history; serving the verified prefix read-only";
        return store;
    }

    // Tail repair runs through the same (possibly fault-injected) Fs
    // and uses only crash-safe steps, so a crash mid-repair lands back
    // in a state the next open() recovers from identically.
    if (s.repair == ScanOutcome::Repair::kRemove) {
        if (auto st = fs.remove(s.repair_path); !st.ok()) return st.error();
        if (auto st = fs.sync_dir(dir); !st.ok()) return st.error();
    } else if (s.repair == ScanOutcome::Repair::kTruncate) {
        auto bytes = fs.read_file(s.repair_path);
        if (!bytes.ok()) return bytes.error();
        Bytes kept(bytes->begin(),
                   bytes->begin() + static_cast<ptrdiff_t>(s.repair_keep_len));
        BytesView view(kept.data(), kept.size());
        if (auto st = core::atomic_write_file(fs, s.repair_path, view, dir); !st.ok()) {
            return st.error();
        }
    }
    return store;
}

Status Store::append_batch(std::span<const PendingEntry> batch) {
    if (read_only()) {
        return Error{"store_read_only",
                     read_only_reason_.empty() ? "store is read-only" : read_only_reason_};
    }
    if (batch.empty()) return Status::success();

    if (auto st = roll_segment_if_needed(); !st.ok()) return st;

    // Build every frame before touching the file, commit record last.
    // The batch's leaves go into tree_ now, for the commit root; if the
    // commit does not become durable, latch_failure truncates them away.
    std::vector<Bytes> frames;
    frames.reserve(batch.size() + 1);
    uint64_t seq = next_seq_;
    for (const PendingEntry& p : batch) {
        EntryRecord rec;
        rec.seq = seq++;
        rec.timestamp = p.timestamp;
        rec.leaf_der = p.leaf_der;
        frames.push_back(encode_entry_record(rec));
        tree_.append(p.leaf_der);
    }
    CommitRecord commit;
    commit.seq = seq;
    commit.tree_size = tree_.size();
    commit.root = tree_.root();
    frames.push_back(encode_commit_record(commit));

    if (auto st = write_frames(frames); !st.ok()) return st;
    if (auto st = segment_->sync(); !st.ok()) return latch_failure(st.error());

    // The commit record is durable: mirror the batch in memory.
    for (const PendingEntry& p : batch) {
        StoredEntry stored;
        stored.seq = next_seq_++;
        stored.timestamp = p.timestamp;
        stored.leaf_der = p.leaf_der;
        entries_.push_back(std::move(stored));
    }
    ++next_seq_;  // the commit frame's sequence number
    frames_in_segment_ += frames.size();

    return write_head_snapshot();
}

Status Store::append(BytesView leaf_der, int64_t timestamp) {
    PendingEntry entry;
    entry.leaf_der.assign(leaf_der.begin(), leaf_der.end());
    entry.timestamp = timestamp;
    return append_batch(std::span<const PendingEntry>(&entry, 1));
}

Digest Store::tree_head() const { return tree_.root(); }

Status Store::write_frames(const std::vector<Bytes>& frames) {
    for (const Bytes& frame : frames) {
        auto written = segment_->write(frame);
        if (!written.ok()) return latch_failure(written.error());
        if (*written != frame.size()) {
            return latch_failure(Error{"fs_short_write",
                                       "short write: " + std::to_string(*written) + " of " +
                                           std::to_string(frame.size()) + " bytes reached " +
                                           segment_path_});
        }
    }
    return Status::success();
}

Status Store::roll_segment_if_needed() {
    if (!segment_ && segment_count_ > 0 &&
        frames_in_segment_ < options_.segment_max_records) {
        // Reopen the recovered tail segment for append. Its frames are
        // the last ones before next_seq_, so its base is derivable.
        uint64_t base = next_seq_ - frames_in_segment_;
        segment_path_ = dir_ + "/" + segment_file_name(base);
        auto file = fs_->open_append(segment_path_);
        if (!file.ok()) return latch_failure(file.error());
        segment_ = std::move(*file);
        return Status::success();
    }
    if (segment_ && frames_in_segment_ < options_.segment_max_records) {
        return Status::success();
    }

    if (segment_) {
        (void)segment_->close();
        segment_.reset();
    }
    segment_path_ = dir_ + "/" + segment_file_name(next_seq_);
    auto file = fs_->create(segment_path_);
    if (!file.ok()) return latch_failure(file.error());
    Bytes header = encode_segment_header(next_seq_);
    auto written = (*file)->write(header);
    if (!written.ok()) return latch_failure(written.error());
    if (*written != header.size()) {
        return latch_failure(
            Error{"fs_short_write", "short write on segment header of " + segment_path_});
    }
    if (auto st = (*file)->sync(); !st.ok()) return latch_failure(st.error());
    if (auto st = fs_->sync_dir(dir_); !st.ok()) return latch_failure(st.error());
    segment_ = std::move(*file);
    frames_in_segment_ = 0;
    ++segment_count_;
    return Status::success();
}

Status Store::write_head_snapshot() {
    HeadSnapshot head;
    head.tree_size = entries_.size();
    head.root = tree_.root();
    Bytes blob = encode_head_snapshot(head);
    BytesView view(blob.data(), blob.size());
    if (auto st = core::atomic_write_file(*fs_, dir_ + "/head.snap", view, dir_); !st.ok()) {
        return latch_failure(st.error());
    }
    return Status::success();
}

Status Store::latch_failure(Error error) {
    // In-memory and on-disk state may now disagree; the only safe
    // continuation is a fresh Store::open. The tree drops the leaves of
    // a batch whose commit never became durable.
    tree_.truncate(entries_.size());
    failed_ = true;
    read_only_reason_ = error.code + ": " + error.message;
    if (segment_) {
        (void)segment_->close();
        segment_.reset();
    }
    return error;
}

Status Store::save_checkpoint(const std::string& name, const MonitorCheckpoint& checkpoint) {
    if (!valid_checkpoint_name(name)) {
        return Error{"store_bad_name",
                     "checkpoint name must be a [A-Za-z0-9_-]{1,64} slug: '" + name + "'"};
    }
    Bytes blob = encode_checkpoint_snapshot(checkpoint);
    BytesView view(blob.data(), blob.size());
    return core::atomic_write_file(*fs_, checkpoint_path(dir_, name), view, dir_);
}

Expected<std::optional<MonitorCheckpoint>> Store::load_checkpoint(const std::string& name) {
    if (!valid_checkpoint_name(name)) {
        return Error{"store_bad_name",
                     "checkpoint name must be a [A-Za-z0-9_-]{1,64} slug: '" + name + "'"};
    }
    std::string path = checkpoint_path(dir_, name);
    auto exists = fs_->exists(path);
    if (!exists.ok()) return exists.error();
    if (!*exists) return std::optional<MonitorCheckpoint>{};
    auto bytes = fs_->read_file(path);
    if (!bytes.ok()) return bytes.error();
    auto checkpoint = decode_checkpoint_snapshot(*bytes);
    if (!checkpoint.ok()) return checkpoint.error();
    return std::optional<MonitorCheckpoint>(*checkpoint);
}

Expected<RecoveryReport> fsck(core::Fs& fs, const std::string& dir) {
    auto scanned = scan_store(fs, dir);
    if (!scanned.ok()) return scanned.error();
    return std::move(scanned->report);
}

// ---- StoreLogSource --------------------------------------------------------

Expected<SignedTreeHead> StoreLogSource::latest_tree_head() {
    SignedTreeHead sth;
    sth.tree_size = store_->size();
    sth.root_hash = store_->tree_head();
    sth.timestamp = store_->entries().empty() ? 0 : store_->entries().back().timestamp;
    return sth;
}

Expected<RawLogEntry> StoreLogSource::entry_at(size_t index) {
    const auto& entries = store_->entries();
    if (index >= entries.size()) {
        return Error{"entry_out_of_range",
                     "entry " + std::to_string(index) + " beyond store size " +
                         std::to_string(entries.size())};
    }
    RawLogEntry out;
    out.index = index;
    out.timestamp = entries[index].timestamp;
    out.leaf_der = entries[index].leaf_der;
    return out;
}

Expected<Digest> StoreLogSource::root_at(size_t tree_size) {
    return store_->tree().root_at(tree_size);
}

}  // namespace unicert::ctlog::store
