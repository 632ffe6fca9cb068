// Tests for core::GenerationStore, the commit path both long-running
// engines checkpoint through: commit/recover round trip, pruning,
// newest-valid fallback past corrupt generations, read-only recovery
// (stray temp files are reported, and removed only by the next commit),
// and recovery running between another store's temp write and rename.
// Payloads are sealed with the core/sealed_state.h codec, whose own
// framing and error branding are checked here too.
#include "core/generation_store.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/sealed_state.h"

namespace unicert::core {
namespace {

constexpr std::string_view kMagic = "unicert-test-v1";

std::string payload(uint64_t value) {
    SealedStateWriter out(kMagic);
    out.field("value", value);
    out.field("note", "generation payload");
    return std::move(out).seal();
}

// Accepts a payload when it unseals; records its `value` field.
GenerationStore::Validator accept_sealed(uint64_t* value) {
    return [value](std::string_view text) -> Status {
        return unseal_state(text, kMagic, "test",
                            [value](std::string_view key, std::string_view v) {
                                return key != "value" || parse_u64(v, value);
                            });
    };
}

Expected<RecoveredGeneration> recover(Fs& fs, uint64_t* value) {
    GenerationStore store(fs, "gens", "test");
    return store.recover(accept_sealed(value));
}

std::vector<uint64_t> generations_on_disk(MemFs& fs) {
    std::vector<uint64_t> generations;
    auto names = fs.list_dir("gens");
    if (!names.ok()) return generations;
    for (const std::string& name : *names) {
        if (auto gen = GenerationStore::parse_file_name(name)) generations.push_back(*gen);
    }
    return generations;
}

bool exists(MemFs& fs, const std::string& path) {
    auto there = fs.exists(path);
    return there.ok() && *there;
}

// ---- sealed-state codec ---------------------------------------------------

TEST(SealedState, UnsealsWhatItSealed) {
    std::vector<std::string> seen;
    Status st = unseal_state(payload(42), kMagic, "test",
                             [&seen](std::string_view key, std::string_view value) {
                                 seen.push_back(std::string(key) + "=" + std::string(value));
                                 return true;
                             });
    ASSERT_TRUE(st.ok()) << st.error().message;
    EXPECT_EQ(seen, (std::vector<std::string>{"value=42", "note=generation payload"}));
}

TEST(SealedState, ErrorCodesCarryThePrefix) {
    auto code = [](std::string_view text) {
        Status st = unseal_state(text, kMagic, "test",
                                 [](std::string_view, std::string_view) { return true; });
        return st.ok() ? std::string("ok") : st.error().code;
    };
    const std::string sealed = payload(7);
    EXPECT_EQ(code("unicert-other-v1\nvalue: 7\n"), "test_bad_magic");
    EXPECT_EQ(code(sealed.substr(0, sealed.size() - 1)), "test_truncated");
    std::string rotted = sealed;
    rotted[rotted.find("value: ") + 7] = '8';
    EXPECT_EQ(code(rotted), "test_checksum");

    SealedStateWriter bad(kMagic);
    bad.field("value", "not-a-number");
    Status st = unseal_state(std::move(bad).seal(), kMagic, "test",
                             [](std::string_view, std::string_view v) {
                                 uint64_t n = 0;
                                 return parse_u64(v, &n);
                             });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, "test_bad_field");
}

// ---- generation store -----------------------------------------------------

TEST(GenerationStore, CommitRecoverRoundTrip) {
    MemFs fs;
    GenerationStore store(fs, "gens", "test");
    ASSERT_TRUE(store.init().ok());
    ASSERT_TRUE(store.commit(payload(42), 4).ok());
    EXPECT_EQ(store.last_committed(), std::optional<uint64_t>(4));

    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE(recovered->found);
    EXPECT_EQ(recovered->generation, 4u);
    EXPECT_EQ(recovered->payload, payload(42));
    EXPECT_EQ(value, 42u);
}

TEST(GenerationStore, EmptyDirectoryIsAFreshStartNotAnError) {
    MemFs fs;
    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered->found);
}

TEST(GenerationStore, PrunesToNewestKeep) {
    MemFs fs;
    GenerationStore store(fs, "gens", "test", /*keep=*/3);
    ASSERT_TRUE(store.init().ok());
    for (uint64_t gen = 1; gen <= 6; ++gen) ASSERT_TRUE(store.commit(payload(gen), gen).ok());
    EXPECT_EQ(generations_on_disk(fs), (std::vector<uint64_t>{4, 5, 6}));
}

TEST(GenerationStore, FallsBackPastACorruptNewestGeneration) {
    MemFs fs;
    GenerationStore store(fs, "gens", "test", /*keep=*/3);
    ASSERT_TRUE(store.init().ok());
    ASSERT_TRUE(store.commit(payload(2), 2).ok());
    ASSERT_TRUE(store.commit(payload(4), 4).ok());
    ASSERT_TRUE(fs.flip_bit("gens/" + GenerationStore::file_name(4), 20, 3));

    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE(recovered->found);
    EXPECT_EQ(recovered->generation, 2u);
    EXPECT_EQ(value, 2u);
    EXPECT_EQ(recovered->corrupt_skipped, 1u);
}

TEST(GenerationStore, AllGenerationsCorruptIsUnrecoverable) {
    MemFs fs;
    GenerationStore store(fs, "gens", "test");
    ASSERT_TRUE(store.init().ok());
    ASSERT_TRUE(store.commit(payload(1), 1).ok());
    ASSERT_TRUE(fs.flip_bit("gens/" + GenerationStore::file_name(1), 18, 1));
    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.error().code, "test_unrecoverable");
}

// Recovery only reports a stray temp file: it may be a live writer's
// in-flight commit. The next commit, which owns the directory, sweeps
// it while listing for the prune.
TEST(GenerationStore, RecoveryLeavesStrayTempFilesForTheNextCommit) {
    MemFs fs;
    GenerationStore store(fs, "gens", "test");
    ASSERT_TRUE(store.init().ok());
    ASSERT_TRUE(store.commit(payload(1), 1).ok());
    const std::string stray = "gens/" + GenerationStore::file_name(2) + ".tmp";
    ASSERT_TRUE(atomic_write_file(fs, stray, std::string_view("partial")).ok());

    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->generation, 1u);
    EXPECT_EQ(recovered->stray_temp_files, 1u);
    EXPECT_TRUE(exists(fs, stray));

    // Generation 3, not 2: the stray goes because the commit sweeps it,
    // not because the commit happened to write the same temp name.
    GenerationStore writer(fs, "gens", "test");
    ASSERT_TRUE(writer.commit(payload(3), 3).ok());
    EXPECT_FALSE(exists(fs, stray));
}

// Forwards to a MemFs, running a hook once just before the first rename
// of a temp file — the window between a commit's temp write and its
// rename.
class RenameWindowFs final : public Fs {
public:
    RenameWindowFs(MemFs& inner, std::function<void()> hook)
        : inner_(&inner), hook_(std::move(hook)) {}

    Expected<FilePtr> open_append(const std::string& path) override {
        return inner_->open_append(path);
    }
    Expected<FilePtr> create(const std::string& path) override { return inner_->create(path); }
    Expected<Bytes> read_file(const std::string& path) override {
        return inner_->read_file(path);
    }
    Expected<bool> exists(const std::string& path) override { return inner_->exists(path); }
    Status rename(const std::string& from, const std::string& to) override {
        if (hook_ && from.ends_with(".tmp")) std::exchange(hook_, nullptr)();
        return inner_->rename(from, to);
    }
    Status remove(const std::string& path) override { return inner_->remove(path); }
    Status make_dirs(const std::string& path) override { return inner_->make_dirs(path); }
    Expected<std::vector<std::string>> list_dir(const std::string& path) override {
        return inner_->list_dir(path);
    }
    Status sync_dir(const std::string& path) override { return inner_->sync_dir(path); }

private:
    MemFs* inner_;
    std::function<void()> hook_;
};

// `--status` and the fresh-run refusal probe recover while a writer may
// be mid-commit; recovery must not pull the writer's temp file away.
TEST(GenerationStore, RecoverNeverBreaksAnInFlightCommit) {
    MemFs fs;
    GenerationStore writer(fs, "gens", "test");
    ASSERT_TRUE(writer.init().ok());
    ASSERT_TRUE(writer.commit(payload(1), 1).ok());

    size_t strays_seen = 0;
    RenameWindowFs window(fs, [&fs, &strays_seen] {
        uint64_t value = 0;
        auto probe = recover(fs, &value);  // a second store, as `--status` builds
        ASSERT_TRUE(probe.ok());
        EXPECT_EQ(probe->generation, 1u);
        strays_seen = probe->stray_temp_files;
    });
    GenerationStore in_flight(window, "gens", "test");
    Status st = in_flight.commit(payload(2), 2);
    ASSERT_TRUE(st.ok()) << st.error().code << ": " << st.error().message;
    EXPECT_EQ(strays_seen, 1u);  // the probe saw the in-flight temp file

    uint64_t value = 0;
    auto recovered = recover(fs, &value);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE(recovered->found);
    EXPECT_EQ(recovered->generation, 2u);
    EXPECT_EQ(value, 2u);
}

}  // namespace
}  // namespace unicert::core
