#include "ctlog/index/query.h"

#include <algorithm>
#include <mutex>

#include "x509/parser.h"

namespace unicert::ctlog::index {
namespace {

std::string summarize_damage(const IndexFsckReport& report) {
    if (report.damage.empty()) return "no index generation present";
    std::string out;
    for (const IndexDamage& d : report.damage) {
        if (!out.empty()) out += ", ";
        out += d.file + ": " + index_damage_name(d.kind);
    }
    return out;
}

}  // namespace

const char* query_path_name(QueryPath path) noexcept {
    switch (path) {
        case QueryPath::kIndex: return "index";
        case QueryPath::kRebuiltIndex: return "rebuilt-index";
        case QueryPath::kScan: return "scan";
        case QueryPath::kRejected: return "rejected";
    }
    return "unknown";
}

QueryService::QueryService(core::Fs& fs, store::Store& store) : fs_(&fs), store_(&store) {}

Status QueryService::rebuild() {
    auto generation =
        std::make_shared<IndexGeneration>(build_index(*store_, next_epoch(*fs_, store_->dir())));
    Status published = publish_index(*fs_, store_->dir(), *generation);
    // The in-memory snapshot is installed even when the durable publish
    // failed: readers get fast exact answers either way, and the next
    // refresh (or fsck-triggered rebuild) retries the disk.
    slot_.publish(std::move(generation));
    return published;
}

Status QueryService::refresh() {
    std::unique_lock lock(mutex_);
    return rebuild();
}

Status QueryService::ingest(std::span<const store::PendingEntry> batch) {
    std::unique_lock lock(mutex_);
    return store_->append_batch(batch);
}

IndexFsckReport QueryService::last_fsck() const {
    std::lock_guard lock(fsck_mutex_);
    return last_fsck_;
}

std::shared_ptr<const IndexGeneration> QueryService::ensure_generation(QueryPath& path,
                                                                       bool& degraded,
                                                                       std::string& reason) {
    std::unique_lock lock(mutex_);

    // Another thread may have healed the slot while we waited.
    if (auto pinned = slot_.pin(); pinned && pinned->basis_size <= store_->size()) {
        path = QueryPath::kIndex;
        return pinned;
    }

    IndexFsckReport report;
    auto loaded = load_latest(*fs_, *store_, &report);
    if (loaded) {
        slot_.publish(loaded);
        path = QueryPath::kIndex;
    } else {
        // Rung 2: rebuild from the authoritative store. The rebuilt
        // generation is correct by construction; the durable republish
        // is best-effort (a failing disk must not block answers).
        Status published = rebuild();
        path = QueryPath::kRebuiltIndex;
        degraded = true;
        reason = summarize_damage(report) +
                 (published.ok() ? "; rebuilt from store and republished"
                                 : "; rebuilt from store in memory (republish failed: " +
                                       published.error().code + ")");
    }
    {
        std::lock_guard fl(fsck_mutex_);
        last_fsck_ = std::move(report);
    }
    return slot_.pin();
}

void QueryService::scan(const MonitorCapabilities& caps, const RecordMatch& matches,
                        size_t from, std::vector<size_t>& out) const {
    const auto& entries = store_->entries();
    for (size_t i = from; i < entries.size(); ++i) {
        auto cert = x509::parse_certificate(entries[i].leaf_der);
        if (!cert.ok() || cert->is_precertificate()) continue;
        if (matches(derive_record(caps, cert.value()))) out.push_back(i);
    }
}

ServedQuery QueryService::serve(const MonitorProfile& profile, Options options,
                                const SectionAnswer& answer, const RecordMatch& matches) {
    ServedQuery served;
    served.path = QueryPath::kIndex;

    // Rung 1: the pinned MVCC snapshot. Its basis was checked against
    // the store's history when it entered the slot (load_latest checks
    // it, rebuild() derives it from the store), and the store only
    // appends, so it stays on that history: no Merkle work here, only
    // the size. Otherwise rung 2 loads or rebuilds a generation under
    // the exclusive lock.
    auto generation = options.use_index ? slot_.pin() : nullptr;
    std::shared_lock lock(mutex_);
    if (options.use_index && !(generation && generation->basis_size <= store_->size())) {
        lock.unlock();
        generation = ensure_generation(served.path, served.degraded, served.degradation_reason);
        lock.lock();
    }
    // A section answers only for the capabilities it was built under.
    const ProfileIndex* section = generation ? generation->find_profile(profile.name) : nullptr;
    if (section && section->caps == profile.caps) {
        served.result.cert_ids = answer(*section);
        scan(profile.caps, matches, generation->basis_size, served.result.cert_ids);
        served.epoch = generation->epoch;
        served.tail_scanned = store_->size() - generation->basis_size;
        return served;
    }

    // Rung 3: parse and match every entry.
    scan(profile.caps, matches, 0, served.result.cert_ids);
    served.path = QueryPath::kScan;
    served.degraded = options.use_index;
    if (!options.use_index) {
        served.degradation_reason = "index disabled by caller";
    } else if (section) {
        served.degradation_reason = "index section for profile '" + profile.name +
                                    "' was not built for its capabilities";
    } else {
        served.degradation_reason = "index has no section for profile '" + profile.name + "'";
    }
    return served;
}

ServedQuery QueryService::query(const MonitorProfile& profile, std::string_view pattern,
                                Options options) {
    const MonitorCapabilities& caps = profile.caps;

    // Input validation is shared with the scan path (and with Monitor
    // itself), so a refusal is identical on every rung of the ladder.
    if (auto rejection = validate_query(caps, pattern)) {
        ServedQuery served;
        served.result.query_accepted = false;
        served.result.rejection_reason = std::move(rejection->reason);
        served.path = QueryPath::kRejected;
        return served;
    }
    std::string needle = fold(caps, pattern);
    return serve(
        profile, options,
        [&](const ProfileIndex& section) { return lookup(section, caps, needle); },
        [&](const DerivedRecord& record) {
            return !record.hidden && any_key_matches(caps, record.keys, needle);
        });
}

ServedQuery QueryService::special_unicode(const MonitorProfile& profile, uint8_t field_mask,
                                          Options options) {
    return serve(
        profile, options,
        [&](const ProfileIndex& section) {
            std::vector<size_t> ids;
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (!(field_mask & (1u << bit))) continue;
                const auto& postings = section.class_postings[bit];
                ids.insert(ids.end(), postings.begin(), postings.end());
            }
            std::sort(ids.begin(), ids.end());
            ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
            return ids;
        },
        [&](const DerivedRecord& record) { return (record.class_mask & field_mask) != 0; });
}

}  // namespace unicert::ctlog::index
