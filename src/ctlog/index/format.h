// unicert/ctlog/index/format.h
//
// On-disk framing for `unicert-index-v1`, the persistent secondary
// index over the durable CT-log store (DESIGN.md section 12). One
// index generation is one self-checking artifact:
//
//   index file  idx-<epoch, 16 hex digits>.idx
//     "unicertidx1\n"                   magic (12 bytes)
//     u64be epoch                       generation number (monotonic)
//     u64be basis_size                  store entries this index covers
//     32B   basis_root                  store Merkle root at basis_size
//     u32be payload_len | payload      profile sections (below)
//     SHA-256 over every preceding byte
//
//   payload:
//     u32be profile_count
//     per profile:
//       u32be name_len | name
//       u64be record_count              == basis_size
//       per record:
//         u8 flags                      bit0 hidden, bit1 excluded
//         u8 class_mask                 FieldClass bits w/ special Unicode
//         u8 field_mask                 FieldClass bits that derived keys
//         u32be key_count
//         per key: u32be len | bytes   already case-folded
//
// The epoch + basis pair is what makes generations MVCC snapshots: a
// generation is valid for a store iff the store's own Merkle root at
// basis_size equals basis_root (the index was derived from a prefix of
// THIS history), and entries at or beyond basis_size are answered from
// the query service's in-memory delta. The SHA-256 trailer makes every
// single-bit flip detectable; a torn tail fails the length or digest
// check. Damaged generations are never partially used — the fsck
// taxonomy classifies them and the degradation ladder routes around.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "crypto/sha256.h"
#include "ctlog/capabilities.h"
#include "ctlog/index/postings.h"

namespace unicert::ctlog::index {

using crypto::Digest;

inline constexpr std::string_view kIndexMagic = "unicertidx1\n";
inline constexpr std::string_view kIndexFilePrefix = "idx-";
inline constexpr std::string_view kIndexFileSuffix = ".idx";

// Guard against absurd length fields when probing damaged files before
// the checksum is verified.
inline constexpr uint32_t kMaxIndexPayload = 1u << 30;  // 1 GiB

// Record flags.
inline constexpr uint8_t kRecordHidden = 1u << 0;    // P1.4: unreachable
inline constexpr uint8_t kRecordExcluded = 1u << 1;  // precert / unparseable leaf

// One store entry as one profile sees it.
struct IndexedRecord {
    std::vector<std::string> keys;  // searchable keys, already folded
    bool hidden = false;
    bool excluded = false;
    uint8_t class_mask = 0;  // FieldClass bits carrying special Unicode
    uint8_t field_mask = 0;  // FieldClass bits that contributed keys

    bool searchable() const noexcept { return !hidden && !excluded && !keys.empty(); }
};

// A section's records, append-only, in fixed-size chunks. A full chunk
// is sealed (immutable, shared): a copy takes a reference to each
// sealed chunk and copies only the open tail, so copying a section —
// what a fold does with the served generation — copies at most one
// chunk's records, and two generations share the records they have in
// common. Nothing ever writes a sealed chunk.
class RecordList {
public:
    static constexpr size_t kChunkRecords = 512;

    // Forward iteration in id order.
    class Iterator {
    public:
        Iterator(const RecordList* list, size_t id) : list_(list), id_(id) {}
        const IndexedRecord& operator*() const noexcept { return (*list_)[id_]; }
        Iterator& operator++() noexcept {
            ++id_;
            return *this;
        }
        bool operator==(const Iterator& other) const noexcept { return id_ == other.id_; }

    private:
        const RecordList* list_;
        size_t id_;
    };

    size_t size() const noexcept { return sealed_.size() * kChunkRecords + open_.size(); }
    bool empty() const noexcept { return size() == 0; }

    const IndexedRecord& operator[](size_t id) const noexcept {
        size_t chunk = id / kChunkRecords;
        return chunk < sealed_.size() ? (*sealed_[chunk])[id % kChunkRecords]
                                      : open_[id - sealed_.size() * kChunkRecords];
    }

    Iterator begin() const noexcept { return {this, 0}; }
    Iterator end() const noexcept { return {this, size()}; }

    void push_back(IndexedRecord record);

private:
    std::vector<std::shared_ptr<const std::vector<IndexedRecord>>> sealed_;
    std::vector<IndexedRecord> open_;  // fewer than kChunkRecords
};

// The posting key of an exact-match key.
inline uint64_t exact_key_hash(std::string_view key) noexcept {
    return std::hash<std::string_view>{}(key);
}

// One profile's section: records plus the postings the query path
// reads. Only `records` is persisted; the postings are a pure function
// of them and of the profile's capabilities, kept current by add() as
// each record lands — less format surface for corruption to hide in,
// and the checksum still covers everything the lookup result depends
// on.
struct ProfileIndex {
    ProfileIndex() = default;
    // An empty section whose records are posted for `for_caps`.
    ProfileIndex(std::string name, const MonitorCapabilities& for_caps)
        : profile_name(std::move(name)), caps(for_caps) {}

    std::string profile_name;
    RecordList records;  // record id == position

    // -- postings (not serialized; kept current by add()) --
    // The capabilities the records are posted for. A decoded section
    // has none until load_latest adds its records to a section of its
    // built-in profile. A section answers only for these.
    std::optional<MonitorCapabilities> caps;
    // Exact-match profiles only: exact_key_hash(key) -> ascending ids
    // of the records holding a key with that hash. lookup keeps only
    // the records that hold the key itself, so a hash collision costs a
    // check, never a wrong answer.
    Postings exact;
    // Fuzzy profiles only: packed byte trigram -> ascending record ids
    // (fuzzy candidates).
    Postings trigrams;
    // Fuzzy profiles only: ascending ids of records with at least one
    // key (short-needle fallback).
    std::vector<uint32_t> searchable_ids;
    // Per-FieldClass-bit posting lists over class_mask (special-Unicode
    // retrieval): class_postings[b] = ids whose class_mask has bit b.
    std::array<std::vector<uint32_t>, 8> class_postings;

    // Append `record` as id records.size() and post only what lookup
    // reads under `caps`, which must be set.
    void add(IndexedRecord record);
};

// One immutable index generation (the unit the MVCC slot publishes).
struct IndexGeneration {
    uint64_t epoch = 0;
    uint64_t basis_size = 0;
    Digest basis_root{};
    std::vector<ProfileIndex> profiles;

    const ProfileIndex* find_profile(std::string_view name) const noexcept;
};

// ---- artifact encode / decode ----------------------------------------------

Bytes encode_index(const IndexGeneration& generation);

// Decode and verify a whole index artifact. The returned sections hold
// records but no postings (load_latest adds each record to a section
// of its built-in profile). Error codes:
//   index_truncated   file shorter than its framing claims (torn tail)
//   index_bad_magic   not an index artifact
//   index_bad_length  a length field is absurd or inconsistent
//   index_checksum    SHA-256 trailer mismatch (bit rot / torn write)
//   index_bad_payload checksum passed but the payload grammar is broken
Expected<IndexGeneration> decode_index(BytesView buffer);

std::string index_file_name(uint64_t epoch);
std::optional<uint64_t> parse_index_file_name(std::string_view name);

// Pack 3 bytes into the trigram key used by ProfileIndex::trigrams.
constexpr uint32_t pack_trigram(std::string_view s, size_t at) noexcept {
    return (static_cast<uint32_t>(static_cast<unsigned char>(s[at])) << 16) |
           (static_cast<uint32_t>(static_cast<unsigned char>(s[at + 1])) << 8) |
           static_cast<uint32_t>(static_cast<unsigned char>(s[at + 2]));
}

}  // namespace unicert::ctlog::index
