// unicert/ctlog/index/query.h
//
// The self-healing monitor query service: Table 6 queries (fuzzy /
// exact search, case folding, U-label validation, special-Unicode
// retrieval) over the durable store, answered through the persistent
// secondary indexes when they are healthy and through progressively
// slower-but-correct paths when they are not. The degradation ladder,
// top to bottom:
//
//   1. fresh index      — pinned MVCC generation plus the in-memory
//                         delta: exact-key / trigram-candidate fuzzy
//                         lookup in both. The delta holds the
//                         records of the entries past the generation's
//                         basis, derived once as they are ingested, so
//                         answers are exact while ingestion appends and
//                         no entry is parsed at query time.
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
// while ingest() holds it exclusively across append, fsync and
// deriving the new entries into the delta, and refresh() across fold
// and publish.
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
    kIndex,         // healthy generation (+ its delta past the basis)
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
    // Entries past the basis, answered from the delta, none parsed.
    size_t tail_scanned = 0;
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

    // Make a generation at the current store head, publish it durably,
    // and make it the served snapshot. A generation this service built
    // or folded is copied and the delta's records are added to it (a
    // fold); with an empty slot, or a served generation loaded from
    // disk, it is built from the store. Errors are publish I/O
    // failures; the in-memory snapshot is installed regardless, so
    // queries stay fast even when the disk is failing.
    Status refresh();

    // Append a batch through the service (the single-writer side).
    // Under the exclusive lock, once the store holds the batch, each
    // new entry is parsed once and its records are added to the delta,
    // so the next query answers for them without a refresh.
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
    // How a query answers from one profile's section or delta section
    // (ids relative to the section), and which derived records it
    // matches on the scan path.
    using SectionAnswer = std::function<std::vector<size_t>(const ProfileIndex&)>;
    using RecordMatch = std::function<bool(const DerivedRecord&)>;

    // The records of store entries [base, store.size()), one section
    // per built-in profile (builtin_sections() order): record id i is
    // store entry base + i. The base is the basis of the generation the
    // delta extends, so a reader pairs a generation only with a delta
    // that starts where it ends.
    struct Delta {
        uint64_t base = 0;
        std::vector<ProfileIndex> sections;  // empty until a generation is served

        uint64_t end() const {
            return base + (sections.empty() ? 0 : sections.front().records.size());
        }
    };

    // The degradation ladder behind query() and special_unicode().
    ServedQuery serve(const MonitorProfile& profile, Options options,
                      const SectionAnswer& answer, const RecordMatch& matches);

    // True when the delta covers exactly [generation's basis, store
    // size): rung 1 can answer from the pair. mutex_ held.
    bool delta_covers(const IndexGeneration& generation) const;

    // Make the delta cover [basis, store size): rebased when it starts
    // elsewhere, then the entries it lacks are derived once. mutex_
    // held exclusively.
    void sync_delta(uint64_t basis);

    // Take the ladder from "no usable pinned generation" to a loaded or
    // rebuilt generation covered by the delta; sets the served path on
    // a rebuild. mutex_ held exclusively.
    std::shared_ptr<const IndexGeneration> ensure_generation(QueryPath& path,
                                                             bool& degraded,
                                                             std::string& reason);

    // Build a generation at the store head and install it. mutex_ held
    // exclusively. Returns the publish status.
    Status rebuild();

    // Publish `generation` (at the store head) durably, serve it, and
    // start an empty delta at its basis. mutex_ held exclusively.
    // Returns the publish status.
    Status install(std::shared_ptr<IndexGeneration> generation);

    // Rung 3: parse-and-match over every store entry.
    std::vector<size_t> scan(const MonitorCapabilities& caps, const RecordMatch& matches) const;

    core::Fs* fs_;
    store::Store* store_;

    // Guards store access (entries/tree), the delta, slot publishes and
    // all index-dir I/O: shared for readers, exclusive for
    // ingest/refresh/rebuild. The slot has its own lock, so pin() needs
    // no service lock.
    mutable std::shared_mutex mutex_;
    core::VersionedSlot<IndexGeneration> slot_;
    Delta delta_;
    // The served generation was built or folded here, so refresh() may
    // fold it: its records follow this build's derivation rules.
    bool derived_here_ = false;

    mutable std::mutex fsck_mutex_;
    IndexFsckReport last_fsck_;
};

}  // namespace unicert::ctlog::index
