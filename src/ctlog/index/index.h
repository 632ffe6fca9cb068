// unicert/ctlog/index/index.h
//
// Generation management for the persistent secondary indexes: building
// an IndexGeneration from the authoritative store, publishing it
// atomically (write-temp → fsync → rename → dir-fsync through the
// core::Fs seam), recovering the newest valid generation after any
// crash, and the fsck that classifies index damage without ever
// mutating anything. The index is always DERIVED state: nothing here
// is trusted over the store — a generation is only served after its
// checksum verifies AND its (basis_size, basis_root) pair lies on the
// store's own Merkle history, so a corrupt, torn, or foreign index can
// cost time (rebuild) but never a wrong answer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fs.h"
#include "ctlog/index/format.h"
#include "ctlog/store/store.h"

namespace unicert::ctlog::index {

// Where a store's index generations live.
std::string index_dir(const std::string& store_dir);

// ---- fsck damage taxonomy --------------------------------------------------

enum class IndexDamageKind {
    kTornFile,     // truncated mid-artifact (crash during write)
    kBadChecksum,  // SHA-256 trailer mismatch (bit rot)
    kBadMagic,     // not an index artifact at all
    kBadPayload,   // checksum ok but grammar broken (format bug/forgery)
    kStaleBasis,   // basis does not lie on the store's history: rebuild
    kSuperseded,   // older epoch than the served generation (prunable)
    kStrayTmp,     // leftover .tmp from an interrupted publish
    kUnreadable,   // fs read error
};

const char* index_damage_name(IndexDamageKind kind) noexcept;

struct IndexDamage {
    std::string file;
    IndexDamageKind kind;
    std::string detail;
};

// Outcome of an index fsck / load pass.
struct IndexFsckReport {
    size_t files_scanned = 0;
    std::optional<uint64_t> valid_epoch;  // newest generation that verifies
    uint64_t valid_basis = 0;             // its basis_size
    bool fresh = false;                   // valid && basis == store size
    std::vector<IndexDamage> damage;
    std::vector<std::string> notes;
};

// ---- build / publish / load ------------------------------------------------

// One empty section per built-in profile, in monitor_profiles() order,
// each posting its records for that profile's capabilities.
std::vector<ProfileIndex> builtin_sections();

// Add the records of store entries [from, store.size()) to each of
// `sections`, derived under the section's capabilities, through
// ProfileIndex::add. Each leaf is parsed once; an unparseable leaf or a
// precertificate is an excluded record in every section, exactly as the
// scan path skips it.
void add_entries(const store::Store& store, size_t from, std::vector<ProfileIndex>& sections);

// Derive a full index generation (all Table 6 profiles) from the
// store's committed entries: builtin_sections() with every entry
// added. Pure function of the store contents plus `epoch`.
IndexGeneration build_index(const store::Store& store, uint64_t epoch);

// 1 + the highest epoch present in the index dir (valid or not), so a
// rebuild after corruption never reuses a damaged generation's name.
uint64_t next_epoch(core::Fs& fs, const std::string& store_dir);

// Atomically publish a generation and prune all but the newest `keep`
// files. Prune failures are garbage, not corruption: they are ignored.
Status publish_index(core::Fs& fs, const std::string& store_dir,
                     const IndexGeneration& generation, size_t keep = 2);

// Load the newest generation that (a) decodes with a valid checksum
// and (b) whose basis lies on `store`'s Merkle history. Older valid
// generations are reported kSuperseded; every invalid file is
// classified in `report`. Returns nullptr (not an error) when no
// usable generation exists — the caller's degradation ladder decides
// what happens next. Each section of the returned generation named
// after a built-in profile has its records added to a section posting
// for that profile's capabilities; any other section has no postings.
std::shared_ptr<const IndexGeneration> load_latest(core::Fs& fs, const store::Store& store,
                                                   IndexFsckReport* report = nullptr);

// Read-only damage classification of every file in the index dir
// against the store (never mutates; safe on a live directory).
IndexFsckReport fsck_index(core::Fs& fs, const store::Store& store);

// True when the generation's (basis_size, basis_root) lies on the
// store's Merkle history: O(log n) cached tree nodes. A generation is
// checked once, when it enters the query service's slot (load_latest
// checks it; rebuild() derives it from the store itself). The store
// only appends, so afterwards only basis_size <= size needs checking.
bool generation_valid_for(const store::Store& store, const IndexGeneration& generation);

}  // namespace unicert::ctlog::index
