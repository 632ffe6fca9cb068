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

Status QueryService::install(std::shared_ptr<IndexGeneration> generation) {
    Status published = publish_index(*fs_, store_->dir(), *generation);
    // The in-memory snapshot is installed even when the durable publish
    // failed: readers get fast exact answers either way, and the next
    // refresh (or fsck-triggered rebuild) retries the disk.
    delta_ = {generation->basis_size, builtin_sections()};
    derived_here_ = true;
    slot_.publish(std::move(generation));
    return published;
}

Status QueryService::rebuild() {
    return install(
        std::make_shared<IndexGeneration>(build_index(*store_, next_epoch(*fs_, store_->dir()))));
}

Status QueryService::refresh() {
    std::unique_lock lock(mutex_);
    auto pinned = slot_.pin();
    // Fold only a generation this service derived. A loaded one may have
    // other sections, or records an older build derived under other
    // rules; the first refresh after a load derives from the store.
    if (!pinned || !derived_here_) return rebuild();
    // Fold: the served generation plus the delta's records is the
    // generation build_index would derive at the store head.
    sync_delta(pinned->basis_size);
    auto next = std::make_shared<IndexGeneration>(*pinned);
    next->epoch = next_epoch(*fs_, store_->dir());
    next->basis_size = store_->size();
    next->basis_root = store_->tree_head();
    for (size_t p = 0; p < next->profiles.size(); ++p) {
        for (const IndexedRecord& record : delta_.sections[p].records) {
            next->profiles[p].add(record);
        }
    }
    return install(std::move(next));
}

Status QueryService::ingest(std::span<const store::PendingEntry> batch) {
    std::unique_lock lock(mutex_);
    Status appended = store_->append_batch(batch);
    // The store mirrors a batch once its commit is durable, even when
    // the head snapshot after it fails; the delta follows the store.
    if (!delta_.sections.empty()) sync_delta(delta_.base);
    return appended;
}

IndexFsckReport QueryService::last_fsck() const {
    std::lock_guard lock(fsck_mutex_);
    return last_fsck_;
}

bool QueryService::delta_covers(const IndexGeneration& generation) const {
    return !delta_.sections.empty() && delta_.base == generation.basis_size &&
           delta_.end() == store_->size();
}

void QueryService::sync_delta(uint64_t basis) {
    if (delta_.sections.empty() || delta_.base != basis) delta_ = {basis, builtin_sections()};
    add_entries(*store_, delta_.end(), delta_.sections);
}

std::shared_ptr<const IndexGeneration> QueryService::ensure_generation(QueryPath& path,
                                                                       bool& degraded,
                                                                       std::string& reason) {
    // Another thread may have healed the slot while we waited; a served
    // generation may still lack the delta of entries appended around
    // the service.
    if (auto pinned = slot_.pin(); pinned && pinned->basis_size <= store_->size()) {
        sync_delta(pinned->basis_size);
        return pinned;
    }

    IndexFsckReport report;
    if (auto loaded = load_latest(*fs_, *store_, &report)) {
        // A generation that enters the slot with a short basis has its
        // missing tail derived into the delta, once.
        slot_.publish(loaded);
        derived_here_ = false;
        sync_delta(loaded->basis_size);
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

std::vector<size_t> QueryService::scan(const MonitorCapabilities& caps,
                                       const RecordMatch& matches) const {
    std::vector<size_t> ids;
    const auto& entries = store_->entries();
    for (size_t i = 0; i < entries.size(); ++i) {
        auto cert = x509::parse_certificate(entries[i].leaf_der);
        if (!cert.ok() || cert->is_precertificate()) continue;
        if (matches(derive_record(caps, cert.value()))) ids.push_back(i);
    }
    return ids;
}

ServedQuery QueryService::serve(const MonitorProfile& profile, Options options,
                                const SectionAnswer& answer, const RecordMatch& matches) {
    ServedQuery served;
    served.path = QueryPath::kIndex;

    // Rung 1: the pinned MVCC snapshot and the delta that starts at its
    // basis, read under one shared lock. The generation's basis was
    // checked against the store's history when it entered the slot
    // (load_latest checks it, rebuild() derives it from the store), and
    // the store only appends: no Merkle work here. Otherwise rung 2
    // loads or rebuilds a generation, and the query is answered, under
    // the exclusive lock.
    std::shared_lock shared(mutex_);
    std::unique_lock exclusive(mutex_, std::defer_lock);
    auto generation = options.use_index ? slot_.pin() : nullptr;
    if (options.use_index && !(generation && delta_covers(*generation))) {
        shared.unlock();
        exclusive.lock();
        generation = ensure_generation(served.path, served.degraded, served.degradation_reason);
    }
    // A section answers only for the capabilities it was built under;
    // the delta's section of the same name was built under the same.
    const ProfileIndex* section = generation ? generation->find_profile(profile.name) : nullptr;
    if (section && section->caps == profile.caps) {
        served.result.cert_ids = answer(*section);
        for (const ProfileIndex& tail : delta_.sections) {
            if (tail.profile_name != profile.name) continue;
            for (size_t id : answer(tail)) served.result.cert_ids.push_back(delta_.base + id);
        }
        served.epoch = generation->epoch;
        served.tail_scanned = store_->size() - generation->basis_size;
        return served;
    }

    // Rung 3: parse and match every entry.
    served.result.cert_ids = scan(profile.caps, matches);
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
