// unicert/core/generation_store.h
//
// The atomically-committed generation store every long-running engine
// (the fuzzing campaign, the threat-scenario engine) lands its state
// through (DESIGN.md section 11). Each generation is one opaque payload
// written with the write-temp-fsync-rename pattern through the core::Fs
// seam, so a crash at any filesystem operation leaves either the
// previous generation or the new one fully intact, never a mix.
//
// Recovery is read-only: it scans the directory newest-first and
// returns the first generation whose payload the caller-supplied
// validator accepts; torn or bit-rotted files are skipped and noted,
// and stray temp files are counted and noted but left in place — one
// may be a live writer's in-flight commit, so `--status` or a refusal
// probe must never delete it. The next commit() removes strays while it
// lists the directory to prune.
//
// Payload integrity belongs to the caller's serialization: engines seal
// their state with core/sealed_state.h, and the validator unseals it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/fs.h"

namespace unicert::core {

// What recover() found. `found == false` means an empty (or absent)
// state directory — a fresh engine, not an error.
struct RecoveredGeneration {
    std::string payload;
    uint64_t generation = 0;
    bool found = false;
    size_t corrupt_skipped = 0;       // generations the validator rejected
    size_t stray_temp_files = 0;      // interrupted-commit leftovers seen (left in place)
    std::vector<std::string> notes;   // one line per skipped or stray file
};

class GenerationStore {
public:
    // Accepts a serialized payload during recovery; an error skips the
    // generation (with its message recorded in the notes).
    using Validator = std::function<Status(std::string_view payload)>;

    // `code_prefix` brands the error codes this store surfaces —
    // "<prefix>_state_unreadable" when the directory cannot be listed,
    // "<prefix>_unrecoverable" when generations exist but none
    // validates — so callers keep their domain-specific codes. Keeps
    // the newest `keep` generations on disk; older ones are pruned
    // (best-effort) after each successful commit.
    GenerationStore(Fs& fs, std::string dir, std::string code_prefix, size_t keep = 3);

    const std::string& dir() const noexcept { return dir_; }

    // mkdir -p the state directory.
    Status init();

    // Atomically commit `payload` as generation `generation`, then
    // prune generations older than the newest `keep` and remove stray
    // temp files (one writer per directory, so no other commit is in
    // flight). Idempotent per generation number: re-committing the same
    // generation is a no-op. Prune failures are swallowed — an old
    // generation left behind is garbage, not corruption.
    Status commit(std::string_view payload, uint64_t generation);

    // Newest generation `validate` accepts; modifies nothing on disk.
    // Error code <prefix>_unrecoverable when generation files exist but
    // none validates (an acknowledged commit was lost — the invariant
    // the kill-point sweeps assert never fires).
    Expected<RecoveredGeneration> recover(const Validator& validate);

    // Highest generation commit() has acknowledged this process run.
    std::optional<uint64_t> last_committed() const noexcept { return last_committed_; }

    // ckpt-<16 hex digits>.ckpt
    static std::string file_name(uint64_t generation);
    static std::optional<uint64_t> parse_file_name(std::string_view name);

private:
    Fs* fs_;
    std::string dir_;
    std::string code_prefix_;
    size_t keep_;
    std::optional<uint64_t> last_committed_;
};

}  // namespace unicert::core
