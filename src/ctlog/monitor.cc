#include "ctlog/monitor.h"

#include <algorithm>
#include <array>

#include "ctlog/index/matcher.h"
#include "x509/parser.h"

namespace unicert::ctlog {
namespace {

// Table 6, one row per monitor.
const std::array<MonitorProfile, 5>& profiles() {
    static const std::array<MonitorProfile, 5> kProfiles = {{
        {"Crt.sh",
         {.fuzzy_search = true,
          .ulabel_check = false,
          .returns_special_unicode = true,
          .searches_subject_attrs = true}},
        {"SSLMate Spotter",
         {.fuzzy_search = false,
          .ulabel_check = true,
          .returns_special_unicode = false,
          .cn_substring_before_slash = true,
          .cn_ignored_if_space = true}},
        {"Facebook Monitor",
         {.fuzzy_search = false, .ulabel_check = true, .returns_special_unicode = true}},
        {"Entrust Search",
         {.fuzzy_search = false,
          .ulabel_check = false,
          .punycode_idn_cctld = false,
          .returns_special_unicode = true}},
        {"MerkleMap",
         {.fuzzy_search = true, .ulabel_check = false, .returns_special_unicode = true}},
    }};
    return kProfiles;
}

}  // namespace

std::span<const MonitorProfile> monitor_profiles() { return profiles(); }

size_t Monitor::index(const x509::Certificate& cert) {
    // All Table 6 capability semantics (CN quirks, special-Unicode
    // hiding, case folding) live in the shared matcher, which the
    // persistent index derives from too — scan and index paths cannot
    // drift.
    index_.add(index::index_record(profile_.caps, cert));
    size_t id = index_.records.size() - 1;
    raise_alerts_for(id);
    return id;
}

void Monitor::watch(std::string_view domain) { watches_.emplace_back(domain); }

void Monitor::raise_alerts_for(size_t id) {
    if (watches_.empty()) return;
    const index::IndexedRecord& record = index_.records[id];
    if (record.hidden) return;
    const MonitorCapabilities& caps = profile_.caps;
    for (const std::string& domain : watches_) {
        std::string needle = index::fold(caps, domain);
        if (index::any_key_matches(caps, record.keys, needle)) {
            pending_alerts_.push_back({domain, id});
        }
    }
}

std::vector<Monitor::Alert> Monitor::drain_alerts() {
    std::vector<Alert> out;
    out.swap(pending_alerts_);
    return out;
}

SyncReport Monitor::sync(LogSource& source, const core::RetryPolicy& policy,
                         core::Clock* clock) {
    SyncReport report;
    core::Clock& clk = clock != nullptr ? *clock : core::system_clock();

    auto fetch_head = [&]() -> Expected<SignedTreeHead> {
        core::RetryOutcome outcome;
        auto sth = core::retry<SignedTreeHead>(
            policy, clk, [&] { return source.latest_tree_head(); }, &outcome);
        report.retries += outcome.retries;
        return sth;
    };

    // 1. Fetch the advertised tree head, retrying transient faults.
    auto sth = fetch_head();
    if (!sth.ok()) {
        report.abort_error = sth.error();
        return report;
    }

    // 2. Checkpoint consistency: a head smaller than the checkpoint is a
    //    truncation/regression; the same size with a different history is
    //    a split view. A flaky frontend can serve a stale head, so a
    //    regressed view gets re-fetched before the alarm is raised —
    //    re-syncing from the last consistent checkpoint, never
    //    double-indexing against the bad view.
    if (checkpoint_.has_head) {
        for (int attempt = 1;; ++attempt) {
            bool regressed = sth->tree_size < checkpoint_.tree_size;
            bool rewritten = false;
            if (!regressed) {
                core::RetryOutcome outcome;
                auto old_root = core::retry<Digest>(
                    policy, clk, [&] { return source.root_at(checkpoint_.tree_size); },
                    &outcome);
                report.retries += outcome.retries;
                if (!old_root.ok()) {
                    report.abort_error = old_root.error();
                    return report;
                }
                rewritten = *old_root != checkpoint_.root_hash;
            }
            if (!regressed && !rewritten) break;
            if (attempt >= policy.max_attempts) {
                report.split_view_detected = true;
                report.abort_error =
                    Error{"split_view",
                          "log view inconsistent with checkpoint at size " +
                              std::to_string(checkpoint_.tree_size)};
                return report;
            }
            ++report.resyncs;
            ++report.retries;
            clk.sleep_ms(policy.backoff_ms(attempt));
            sth = fetch_head();
            if (!sth.ok()) {
                report.abort_error = sth.error();
                return report;
            }
        }
    }

    // 3. Consume entries from the cursor up to the verified head.
    while (checkpoint_.next_index < sth->tree_size) {
        const size_t want = checkpoint_.next_index;
        core::RetryOutcome outcome;
        auto entry = core::retry<RawLogEntry>(
            policy, clk,
            [&]() -> Expected<RawLogEntry> {
                auto e = source.entry_at(want);
                if (e.ok() && e->index != want) {
                    // Stale or duplicate delivery: the cursor already
                    // consumed (or never asked for) this index.
                    ++report.duplicates_skipped;
                    return Error{"stale_read", "asked for entry " + std::to_string(want) +
                                                   ", got " + std::to_string(e->index)};
                }
                return e;
            },
            &outcome);
        report.retries += outcome.retries;
        if (!entry.ok()) {
            // Budget exhausted or permanent fetch failure: stop with the
            // cursor parked on this entry so the next pass resumes here.
            report.abort_error = entry.error();
            return report;
        }

        auto cert = x509::parse_certificate(entry->leaf_der);
        if (!cert.ok()) {
            // Entry-scoped failure: quarantine and move on (the ladder's
            // skip-and-quarantine rung); the report keeps the evidence.
            report.quarantined.push_back({want, cert.error()});
        } else if (cert->is_precertificate()) {
            ++report.precerts_skipped;
        } else {
            index(cert.value());
            ++report.indexed;
        }
        ++checkpoint_.next_index;
    }

    checkpoint_.tree_size = sth->tree_size;
    checkpoint_.root_hash = sth->root_hash;
    checkpoint_.has_head = true;
    report.completed = true;
    return report;
}

QueryResult Monitor::query(std::string_view pattern) const {
    QueryResult result;
    const MonitorCapabilities& caps = profile_.caps;

    // --- Input validation ---------------------------------------------------
    if (auto rejection = index::validate_query(caps, pattern)) {
        result.query_accepted = false;
        result.rejection_reason = std::move(rejection->reason);
        return result;
    }

    // --- Matching ----------------------------------------------------------
    result.cert_ids = index::lookup(index_, caps, index::fold(caps, pattern));
    return result;
}

bool Monitor::would_find(std::string_view pattern, size_t id) const {
    QueryResult r = query(pattern);
    return r.query_accepted &&
           std::find(r.cert_ids.begin(), r.cert_ids.end(), id) != r.cert_ids.end();
}

}  // namespace unicert::ctlog
