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
// THIS history), and entries at or beyond basis_size are answered by
// the query service's tail scan. The SHA-256 trailer makes every
// single-bit flip detectable; a torn tail fails the length or digest
// check. Damaged generations are never partially used — the fsck
// taxonomy classifies them and the degradation ladder routes around.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/expected.h"
#include "crypto/sha256.h"
#include "ctlog/capabilities.h"

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

// One profile's section: records plus the acceleration structures the
// query path uses. Only `records` is persisted; the acceleration is a
// pure function of it and of the profile's capabilities, rebuilt by
// finalize() after decode — less format surface for corruption to hide
// in, and the checksum still covers everything the lookup result
// depends on.
struct ProfileIndex {
    std::string profile_name;
    std::vector<IndexedRecord> records;  // position == store entry index

    // -- acceleration (not serialized; built by finalize()) --
    // The capabilities the records were derived and finalized under;
    // unset until finalize(). A section answers only for these.
    std::optional<MonitorCapabilities> caps;
    // Exact-match profiles only. Sorted unique (key -> ascending record
    // ids): O(log n) exact match.
    std::vector<std::pair<std::string, std::vector<uint32_t>>> exact;
    // Fuzzy profiles only. Packed byte-trigram -> ascending record ids:
    // fuzzy candidates.
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> trigrams;
    // Fuzzy profiles only. Ascending ids of records with at least one
    // key (short-needle fallback).
    std::vector<uint32_t> searchable_ids;
    // Per-FieldClass-bit posting lists over class_mask (special-Unicode
    // retrieval): postings[b] = ids whose class_mask has bit b.
    std::vector<std::vector<uint32_t>> class_postings;

    // Build what lookup() reads under `for_caps`, and record them.
    void finalize(const MonitorCapabilities& for_caps);
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

// Decode and verify a whole index artifact. The returned generation is
// NOT finalized (call ProfileIndex::finalize, or use load paths that
// do). Error codes:
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
