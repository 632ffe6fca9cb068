#include "core/generation_store.h"

#include <algorithm>
#include <cstdio>

namespace unicert::core {
namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kSuffix = ".ckpt";

bool is_hex_lower(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

}  // namespace

GenerationStore::GenerationStore(Fs& fs, std::string dir, std::string code_prefix, size_t keep)
    : fs_(&fs),
      dir_(std::move(dir)),
      code_prefix_(std::move(code_prefix)),
      keep_(std::max<size_t>(keep, 1)) {}

std::string GenerationStore::file_name(uint64_t generation) {
    char buf[38];
    std::snprintf(buf, sizeof(buf), "ckpt-%016llx.ckpt",
                  static_cast<unsigned long long>(generation));
    return buf;
}

std::optional<uint64_t> GenerationStore::parse_file_name(std::string_view name) {
    if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return std::nullopt;
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) return std::nullopt;
    uint64_t generation = 0;
    for (size_t i = 0; i < 16; ++i) {
        char c = name[kPrefix.size() + i];
        if (!is_hex_lower(c)) return std::nullopt;
        generation = (generation << 4) | static_cast<uint64_t>(
                                             c <= '9' ? c - '0' : c - 'a' + 10);
    }
    return generation;
}

Status GenerationStore::init() { return fs_->make_dirs(dir_); }

Status GenerationStore::commit(std::string_view payload, uint64_t generation) {
    if (last_committed_ && *last_committed_ == generation) return Status::success();
    Status st = atomic_write_file(*fs_, dir_ + "/" + file_name(generation), payload, dir_);
    if (!st.ok()) return st;
    last_committed_ = generation;

    // Best-effort prune of generations older than the newest `keep_`,
    // and of temp files an interrupted commit left behind: that commit
    // was never acknowledged, so dropping its temp file loses nothing.
    auto names = fs_->list_dir(dir_);
    if (!names.ok()) return Status::success();
    std::vector<uint64_t> generations;
    for (const std::string& name : *names) {
        if (auto gen = parse_file_name(name)) {
            generations.push_back(*gen);
        } else if (name.ends_with(".tmp")) {
            (void)fs_->remove(dir_ + "/" + name);
        }
    }
    std::sort(generations.begin(), generations.end());
    if (generations.size() <= keep_) return Status::success();
    for (size_t i = 0; i + keep_ < generations.size(); ++i) {
        (void)fs_->remove(dir_ + "/" + file_name(generations[i]));
    }
    return Status::success();
}

Expected<RecoveredGeneration> GenerationStore::recover(const Validator& validate) {
    RecoveredGeneration recovered;
    auto names = fs_->list_dir(dir_);
    if (!names.ok()) {
        // An absent directory is an engine that never started, not an
        // error. (Fs::exists is file-only on some implementations, so
        // the listing itself is the existence probe.)
        if (names.error().code == "fs_not_found") return recovered;
        return Error{code_prefix_ + "_state_unreadable", "cannot read state dir " + dir_};
    }

    std::vector<uint64_t> generations;
    for (const std::string& name : *names) {
        if (auto gen = parse_file_name(name)) {
            generations.push_back(*gen);
        } else if (name.ends_with(".tmp")) {
            // An interrupted commit, or a live writer's in-flight one:
            // either way not ours to remove. The next commit sweeps it.
            ++recovered.stray_temp_files;
            recovered.notes.push_back("stray temp file " + name +
                                      " (left for the next commit to remove)");
        }
    }
    std::sort(generations.rbegin(), generations.rend());

    for (uint64_t generation : generations) {
        std::string name = file_name(generation);
        auto bytes = fs_->read_file(dir_ + "/" + name);
        if (!bytes.ok()) {
            ++recovered.corrupt_skipped;
            recovered.notes.push_back(name + ": " + bytes.error().message);
            continue;
        }
        std::string payload(reinterpret_cast<const char*>(bytes->data()), bytes->size());
        Status valid = validate(payload);
        if (!valid.ok()) {
            ++recovered.corrupt_skipped;
            recovered.notes.push_back(name + ": " + valid.error().message);
            continue;
        }
        recovered.payload = std::move(payload);
        recovered.generation = generation;
        recovered.found = true;
        last_committed_ = generation;
        return recovered;
    }

    if (!generations.empty()) {
        // Commits are atomic, so a directory full of invalid
        // generations means an acknowledged commit was destroyed.
        return Error{code_prefix_ + "_unrecoverable",
                     "no checkpoint in " + dir_ + " validates (" +
                         std::to_string(generations.size()) + " present)"};
    }
    return recovered;
}

}  // namespace unicert::core
