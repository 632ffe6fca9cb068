#include "ctlog/index/index.h"

#include <algorithm>

#include "ctlog/index/matcher.h"
#include "x509/parser.h"

namespace unicert::ctlog::index {
namespace {

// Basis check: does (basis_size, basis_root) lie on the store's own
// history? This is what stops a stale or foreign index from ever being
// served — the store's Merkle tree is the authority.
bool basis_on_history(const store::Store& store, const IndexGeneration& generation,
                      std::string* why) {
    if (generation.basis_size > store.size()) {
        if (why) {
            *why = "basis " + std::to_string(generation.basis_size) + " exceeds store size " +
                   std::to_string(store.size());
        }
        return false;
    }
    auto root = store.tree().root_at(generation.basis_size);
    if (!root.ok() || *root != generation.basis_root) {
        if (why) *why = "basis root diverges from the store's history";
        return false;
    }
    return true;
}

struct ScannedIndexFile {
    uint64_t epoch;
    std::string name;
};

// Index files sorted newest-first; non-index names classified into the
// report as we go.
std::vector<ScannedIndexFile> list_index_files(core::Fs& fs, const std::string& dir,
                                               IndexFsckReport& report) {
    std::vector<ScannedIndexFile> files;
    auto names = fs.list_dir(dir);
    if (!names.ok()) return files;  // no dir yet: no generations
    for (const std::string& name : *names) {
        if (auto epoch = parse_index_file_name(name)) {
            files.push_back({*epoch, name});
        } else if (name.ends_with(".tmp")) {
            report.damage.push_back(
                {name, IndexDamageKind::kStrayTmp, "leftover from an interrupted publish"});
        } else {
            report.notes.push_back("unrecognized file ignored: " + name);
        }
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) { return a.epoch > b.epoch; });
    report.files_scanned = files.size();
    return files;
}

IndexDamage classify_decode_failure(const std::string& name, const Error& error) {
    IndexDamageKind kind = IndexDamageKind::kBadPayload;
    if (error.code == "index_truncated") kind = IndexDamageKind::kTornFile;
    else if (error.code == "index_checksum") kind = IndexDamageKind::kBadChecksum;
    else if (error.code == "index_bad_magic") kind = IndexDamageKind::kBadMagic;
    else if (error.code == "index_bad_length") kind = IndexDamageKind::kTornFile;
    return {name, kind, error.message};
}

// Shared scan behind load_latest and fsck_index: walk newest-first,
// classify every file, return the newest valid generation (unless
// `classify_all`, which keeps scanning for a full damage report).
std::shared_ptr<const IndexGeneration> scan_generations(core::Fs& fs,
                                                        const store::Store& store,
                                                        IndexFsckReport& report,
                                                        bool classify_all) {
    std::string dir = index_dir(store.dir());
    std::shared_ptr<const IndexGeneration> newest_valid;
    for (const ScannedIndexFile& file : list_index_files(fs, dir, report)) {
        if (newest_valid && !classify_all) break;
        if (newest_valid) {
            report.damage.push_back({file.name, IndexDamageKind::kSuperseded,
                                     "older than served epoch " +
                                         std::to_string(newest_valid->epoch)});
            continue;
        }
        auto bytes = fs.read_file(dir + "/" + file.name);
        if (!bytes.ok()) {
            report.damage.push_back(
                {file.name, IndexDamageKind::kUnreadable, bytes.error().message});
            continue;
        }
        auto generation = decode_index(*bytes);
        if (!generation.ok()) {
            report.damage.push_back(classify_decode_failure(file.name, generation.error()));
            continue;
        }
        std::string why;
        if (!basis_on_history(store, *generation, &why)) {
            report.damage.push_back({file.name, IndexDamageKind::kStaleBasis, why});
            continue;
        }
        auto owned = std::make_shared<IndexGeneration>(std::move(*generation));
        // build_index derives each section under its built-in profile's
        // capabilities. A section under any other name gets no postings,
        // so the service never answers from it.
        for (ProfileIndex& section : owned->profiles) {
            for (const MonitorProfile& builtin : monitor_profiles()) {
                if (builtin.name != section.profile_name) continue;
                ProfileIndex posted(builtin.name, builtin.caps);
                for (const IndexedRecord& record : section.records) posted.add(record);
                section = std::move(posted);
            }
        }
        newest_valid = std::move(owned);
        report.valid_epoch = newest_valid->epoch;
        report.valid_basis = newest_valid->basis_size;
        report.fresh = newest_valid->basis_size == store.size();
    }
    return newest_valid;
}

}  // namespace

std::string index_dir(const std::string& store_dir) { return store_dir + "/index"; }

const char* index_damage_name(IndexDamageKind kind) noexcept {
    switch (kind) {
        case IndexDamageKind::kTornFile: return "torn-file";
        case IndexDamageKind::kBadChecksum: return "bad-checksum";
        case IndexDamageKind::kBadMagic: return "bad-magic";
        case IndexDamageKind::kBadPayload: return "bad-payload";
        case IndexDamageKind::kStaleBasis: return "stale-basis";
        case IndexDamageKind::kSuperseded: return "superseded";
        case IndexDamageKind::kStrayTmp: return "stray-tmp";
        case IndexDamageKind::kUnreadable: return "unreadable";
    }
    return "unknown";
}

std::vector<ProfileIndex> builtin_sections() {
    std::vector<ProfileIndex> sections;
    for (const MonitorProfile& profile : monitor_profiles()) {
        sections.emplace_back(profile.name, profile.caps);
    }
    return sections;
}

void add_entries(const store::Store& store, size_t from, std::vector<ProfileIndex>& sections) {
    const auto& entries = store.entries();
    for (size_t i = from; i < entries.size(); ++i) {
        auto cert = x509::parse_certificate(entries[i].leaf_der);
        bool excluded = !cert.ok() || cert->is_precertificate();
        for (ProfileIndex& section : sections) {
            IndexedRecord record;
            if (excluded) {
                record.excluded = true;
            } else {
                record = index_record(section.caps.value(), cert.value());
            }
            section.add(std::move(record));
        }
    }
}

IndexGeneration build_index(const store::Store& store, uint64_t epoch) {
    IndexGeneration generation;
    generation.epoch = epoch;
    generation.basis_size = store.size();
    generation.basis_root = store.tree_head();
    generation.profiles = builtin_sections();
    add_entries(store, 0, generation.profiles);
    return generation;
}

uint64_t next_epoch(core::Fs& fs, const std::string& store_dir) {
    IndexFsckReport scratch;
    uint64_t highest = 0;
    for (const ScannedIndexFile& file :
         list_index_files(fs, index_dir(store_dir), scratch)) {
        highest = std::max(highest, file.epoch);
    }
    return highest + 1;
}

Status publish_index(core::Fs& fs, const std::string& store_dir,
                     const IndexGeneration& generation, size_t keep) {
    std::string dir = index_dir(store_dir);
    if (auto st = fs.make_dirs(dir); !st.ok()) return st;
    Bytes blob = encode_index(generation);
    std::string path = dir + "/" + index_file_name(generation.epoch);
    if (auto st = core::atomic_write_file(fs, path, BytesView(blob.data(), blob.size()), dir);
        !st.ok()) {
        return st;
    }
    // Prune older generations past `keep`. A failed remove leaves
    // garbage a later fsck reports as superseded — never corruption.
    IndexFsckReport scratch;
    auto files = list_index_files(fs, dir, scratch);
    size_t kept = 0;
    for (const ScannedIndexFile& file : files) {
        if (file.epoch > generation.epoch) continue;  // never prune newer
        if (++kept <= keep) continue;
        (void)fs.remove(dir + "/" + file.name);
    }
    // Stray temp files from interrupted publishes are swept here too.
    for (const IndexDamage& d : scratch.damage) {
        if (d.kind == IndexDamageKind::kStrayTmp) (void)fs.remove(dir + "/" + d.file);
    }
    return Status::success();
}

std::shared_ptr<const IndexGeneration> load_latest(core::Fs& fs, const store::Store& store,
                                                   IndexFsckReport* report) {
    IndexFsckReport local;
    IndexFsckReport& rep = report ? *report : local;
    rep = IndexFsckReport{};
    return scan_generations(fs, store, rep, /*classify_all=*/false);
}

IndexFsckReport fsck_index(core::Fs& fs, const store::Store& store) {
    IndexFsckReport report;
    (void)scan_generations(fs, store, report, /*classify_all=*/true);
    return report;
}

bool generation_valid_for(const store::Store& store, const IndexGeneration& generation) {
    return basis_on_history(store, generation, nullptr);
}

}  // namespace unicert::ctlog::index
