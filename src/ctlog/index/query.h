// unicert/ctlog/index/query.h
//
// The self-healing monitor query service: Table 6 queries (fuzzy /
// exact search, case folding, U-label validation, special-Unicode
// retrieval) over the durable store, answered through the persistent
// secondary indexes when they are healthy and through progressively
// slower-but-correct paths when they are not. The degradation ladder,
// top to bottom:
//
//   1. fresh index      — pinned MVCC generation, O(log n) exact /
//                         trigram-candidate fuzzy lookup; entries past
//                         the generation's basis are covered by a
//                         bounded tail scan, so answers are exact even
//                         while ingestion keeps appending.
//   2. rebuilt index    — the pinned/on-disk generation is damaged or
//                         stale: the service rebuilds from the store
//                         in memory, republishes, and answers with
//                         `degraded` set.
//   3. linear scan      — the generation has no section for the
//                         profile or its section was built under other
//                         capabilities, or the caller asked for a scan:
//                         every entry is parsed and matched directly
//                         (`degraded` set unless the caller asked).
//
// Name queries and the special-Unicode retrieval descend the same
// ladder, and every rung routes through the same matcher semantics, so
// the rungs differ ONLY in cost: the kill-point sweep asserts answers
// are byte-identical to the scan path after any crash. Readers pin a
// snapshot (core::VersionedSlot) and never see a half-published
// generation, but they do wait: rung 1 takes the service lock shared,
// while ingest() holds it exclusively across append and fsync and
// refresh() across build and publish.
#pragma once

#include <functional>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>

#include "core/fs.h"
#include "core/snapshot.h"
#include "ctlog/index/index.h"
#include "ctlog/index/matcher.h"

namespace unicert::ctlog::index {

// Which rung of the ladder served a query.
enum class QueryPath {
    kIndex,         // healthy generation (+ tail scan past its basis)
    kRebuiltIndex,  // generation rebuilt from the store first
    kScan,          // linear scan over every entry
    kRejected,      // input validation refused it; no records consulted
};

const char* query_path_name(QueryPath path) noexcept;

// One served query. `result.cert_ids` are STORE ENTRY INDEXES
// (ascending), not Monitor record ids.
struct ServedQuery {
    QueryResult result;
    QueryPath path = QueryPath::kScan;
    bool degraded = false;            // ladder descended below rung 1
    std::string degradation_reason;
    uint64_t epoch = 0;               // generation that answered (0 = none)
    size_t tail_scanned = 0;          // entries past the basis scanned linearly
};

// Per-query knobs.
struct QueryOptions {
    bool use_index = true;  // false: deliberate scan (not degraded)
};

class QueryService {
public:
    // The service owns neither; both must outlive it. The store is the
    // authority — the service only ever serves index answers whose
    // basis lies on the store's Merkle history.
    QueryService(core::Fs& fs, store::Store& store);

    // Build a fresh generation at the current store head, publish it
    // durably, and make it the served snapshot. Errors are publish I/O
    // failures; the in-memory snapshot is installed regardless, so
    // queries stay fast even when the disk is failing.
    Status refresh();

    // Append a batch through the service (the single-writer side).
    // Readers keep answering during and after; the index lags until
    // the next refresh and the tail scan covers the gap.
    Status ingest(std::span<const store::PendingEntry> batch);

    using Options = QueryOptions;

    // Answer one Table 6 query for `profile`. Never fails: the ladder
    // bottoms out at the linear scan.
    ServedQuery query(const MonitorProfile& profile, std::string_view pattern,
                      Options options = {});

    // Per-field Unicode-class retrieval: ids of certificates whose
    // `field_mask` fields (FieldClass bits) carry special Unicode, as
    // derived under `profile`'s capabilities.
    ServedQuery special_unicode(const MonitorProfile& profile, uint8_t field_mask,
                                Options options = {});

    // Pin the currently served generation (may be null). Exposed for
    // the MVCC tests; normal callers just query().
    std::shared_ptr<const IndexGeneration> pin() const { return slot_.pin(); }

    // Damage the last ladder descent classified (empty until a query
    // or refresh had to look at the index files).
    IndexFsckReport last_fsck() const;

private:
    // How a query answers from one profile's section (ids < basis), and
    // which derived records it matches on the scan paths.
    using SectionAnswer = std::function<std::vector<size_t>(const ProfileIndex&)>;
    using RecordMatch = std::function<bool(const DerivedRecord&)>;

    // The degradation ladder behind query() and special_unicode().
    ServedQuery serve(const MonitorProfile& profile, Options options,
                      const SectionAnswer& answer, const RecordMatch& matches);

    // Take the ladder from "no usable pinned generation" to a loaded or
    // rebuilt generation; sets the served path.
    std::shared_ptr<const IndexGeneration> ensure_generation(QueryPath& path,
                                                             bool& degraded,
                                                             std::string& reason);

    // Build, publish and install a generation at the store head; the
    // caller holds mutex_ exclusively. Returns the publish status.
    Status rebuild();

    // Parse-and-match over store entries [from, size); ids appended.
    void scan(const MonitorCapabilities& caps, const RecordMatch& matches, size_t from,
              std::vector<size_t>& out) const;

    core::Fs* fs_;
    store::Store* store_;

    // Guards store access (entries/tree) and all index-dir I/O: shared
    // for readers, exclusive for ingest/refresh/rebuild. The slot has
    // its own lock so pinned readers never contend with a publish.
    mutable std::shared_mutex mutex_;
    core::VersionedSlot<IndexGeneration> slot_;

    mutable std::mutex fsck_mutex_;
    IndexFsckReport last_fsck_;
};

}  // namespace unicert::ctlog::index
