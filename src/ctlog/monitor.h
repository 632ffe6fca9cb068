// unicert/ctlog/monitor.h
//
// CT monitor behavioural models (documented substitution for the five
// live services tested in Section 6.1 / Table 6). Each profile carries
// the capability matrix the paper measured — case folding, fuzzy
// search, Unicode query support, U-label validation, Punycode handling
// — plus the indexing quirks behind finding P1.4. A Monitor indexes a
// certificate stream and answers field queries the way its real
// counterpart would, which is what the CT-monitor-misleading threat
// scenario exercises.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "core/resilience.h"
#include "ctlog/capabilities.h"
#include "ctlog/index/format.h"
#include "ctlog/log_source.h"
#include "x509/certificate.h"

namespace unicert::ctlog {

struct MonitorProfile {
    std::string name;
    MonitorCapabilities caps;
};

// The five public monitors of Table 6.
std::span<const MonitorProfile> monitor_profiles();

// Result of one query.
struct QueryResult {
    bool query_accepted = true;    // false when input validation refuses it
    std::string rejection_reason;
    std::vector<size_t> cert_ids;  // indexes assigned at indexing time
};

// The monitor's durable sync position: the next entry to consume plus
// the last tree head it verified against. Persisting this (it is plain
// data) lets a restarted monitor resume without double-indexing or
// silently skipping entries.
struct MonitorCheckpoint {
    size_t next_index = 0;  // first log entry not yet consumed
    size_t tree_size = 0;   // size of the last consistent tree head
    Digest root_hash{};     // its root
    bool has_head = false;

    bool operator==(const MonitorCheckpoint&) const = default;
};

// One entry the sync loop could not ingest (unparseable leaf DER).
struct SyncQuarantine {
    size_t entry_index = 0;
    Error error;

    bool operator==(const SyncQuarantine&) const = default;
};

// Outcome of one Monitor::sync pass over a LogSource.
struct SyncReport {
    size_t indexed = 0;
    size_t precerts_skipped = 0;
    size_t duplicates_skipped = 0;  // stale/duplicate deliveries discarded
    size_t retries = 0;             // transient faults absorbed by backoff
    size_t resyncs = 0;             // regressed tree heads recovered from
    std::vector<SyncQuarantine> quarantined;
    bool completed = false;         // cursor reached the advertised head
    bool split_view_detected = false;
    Error abort_error;              // set when !completed
};

class Monitor {
public:
    explicit Monitor(MonitorProfile profile)
        : profile_(std::move(profile)), index_(profile_.name, profile_.caps) {}

    const MonitorProfile& profile() const noexcept { return profile_; }

    // Index one certificate; returns its id within this monitor.
    size_t index(const x509::Certificate& cert);

    // Checkpointed sync against a (possibly faulty) LogSource: fetches
    // the tree head, verifies the previous checkpoint still lies on the
    // log's history (split-view / truncation signal), then consumes
    // entries from the cursor with retry/backoff. The cursor only
    // advances past entries that were indexed, skipped as precerts, or
    // deliberately quarantined — an aborted pass resumes exactly where
    // it stopped and alerts fire at most once per entry.
    SyncReport sync(LogSource& source, const core::RetryPolicy& policy = {},
                    core::Clock* clock = nullptr);

    // Durable sync position, for persistence and resumption.
    const MonitorCheckpoint& checkpoint() const noexcept { return checkpoint_; }
    void restore_checkpoint(const MonitorCheckpoint& checkpoint) { checkpoint_ = checkpoint; }

    size_t indexed_count() const noexcept { return index_.records.size(); }

    // Field-based query ("example.com", "xn--mnchen-3ya.example", an O
    // value, …) per the profile's capabilities, answered by the same
    // index lookup as the query service's index rung.
    QueryResult query(std::string_view pattern) const;

    // Would a query for `pattern` surface certificate `id`? Convenience
    // for the misleading-scenario bench.
    bool would_find(std::string_view pattern, size_t id) const;

    // ---- Watch / alerting (the workflow domain owners actually use) ----

    // Subscribe to a domain; future index()/sync() calls raise an alert
    // for every certificate whose searchable keys match it (using this
    // monitor's own matching semantics — which is the point: a watch is
    // only as good as the indexing behind it).
    void watch(std::string_view domain);

    struct Alert {
        std::string domain;   // the subscription that fired
        size_t cert_id;
    };

    // Alerts accumulated since the last drain.
    std::vector<Alert> drain_alerts();

private:
    void raise_alerts_for(size_t id);

    MonitorProfile profile_;
    index::ProfileIndex index_;     // record id == certificate id
    MonitorCheckpoint checkpoint_;  // sync cursor + last-seen tree head
    std::vector<std::string> watches_;
    std::vector<Alert> pending_alerts_;
};

}  // namespace unicert::ctlog
