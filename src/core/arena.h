// unicert/core/arena.h
//
// Bump allocator with scope marks — the allocation substrate of the
// zero-copy DER index (DESIGN.md section 13). An indexing loop takes
// one Arena per worker, opens an ArenaScope per certificate,
// and every per-cert side table (LazyCertificate's extension index,
// scratch spans) bumps a pointer instead of hitting the global
// allocator; closing the scope hands the memory straight back to the
// next certificate. Blocks grow geometrically and are retained across
// release_to()/reset(), so a million-cert run settles into a steady
// state with zero malloc traffic.
//
// Header-only and deliberately below the x509 layer in the include
// graph (no link dependency on unicert_core) so the parser can use it.
//
// Lifetime rules: memory returned by alloc()/copy() is valid until the
// enclosing scope mark is released (or the Arena dies). Under ASan the
// released region is poisoned, so a dangling BytesView into a closed
// scope faults deterministically instead of silently reading reused
// bytes — this is what the lifetime tests lean on.
//
// Not thread-safe by design: one Arena per worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/bytes.h"

#if defined(__SANITIZE_ADDRESS__)
#define UNICERT_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define UNICERT_ARENA_ASAN 1
#endif
#endif

#ifdef UNICERT_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace unicert::core {

class Arena {
public:
    explicit Arena(size_t first_block_bytes = 16 * 1024)
        : first_block_bytes_(first_block_bytes < 64 ? 64 : first_block_bytes) {}

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    // Position in the block chain; release_to() rewinds to it.
    struct Mark {
        size_t block = 0;
        size_t used = 0;
    };

    // Raw allocation, aligned to `align` (a power of two). Alignment is
    // applied to the returned address, not the block offset — block
    // bases are only new-aligned, so offset alignment alone would break
    // for over-aligned requests.
    void* alloc(size_t size, size_t align = alignof(std::max_align_t)) {
        if (size == 0) size = 1;
        size_t aligned = aligned_cursor(align);
        if (block_ >= blocks_.size() || aligned + size > blocks_[block_].size) {
            grow(size + align);
            aligned = aligned_cursor(align);
        }
        Block& b = blocks_[block_];
        uint8_t* p = b.data.get() + aligned;
        cursor_ = aligned + size;
        bytes_allocated_ += size;
        ++allocation_count_;
        unpoison(p, size);
        return p;
    }

    // Typed array allocation (default-initialized PODs).
    template <typename T>
    T* alloc_array(size_t n) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without running destructors");
        return static_cast<T*>(alloc(n * sizeof(T), alignof(T)));
    }

    // Arena-owned copy of a byte range.
    BytesView copy(BytesView src) {
        if (src.empty()) return {};
        auto* dst = static_cast<uint8_t*>(alloc(src.size(), 1));
        for (size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
        return {dst, src.size()};
    }

    Mark mark() const noexcept { return {block_, cursor_}; }

    // Rewind to `m`. Everything allocated after the mark becomes
    // invalid (and poisoned under ASan); the blocks stay cached for
    // reuse, which is what makes per-cert scopes allocation-free once
    // the arena has warmed up.
    void release_to(Mark m) {
        if (m.block >= blocks_.size() && !(m.block == 0 && blocks_.empty())) return;
        for (size_t i = m.block; i < blocks_.size(); ++i) {
            size_t from = (i == m.block) ? m.used : 0;
            poison(blocks_[i].data.get() + from, blocks_[i].size - from);
        }
        block_ = m.block;
        cursor_ = m.used;
    }

    // Release everything; retains the block cache.
    void reset() { release_to({0, 0}); }

    // ---- Introspection (bench + tests) --------------------------------

    size_t bytes_allocated() const noexcept { return bytes_allocated_; }   // lifetime total
    size_t allocation_count() const noexcept { return allocation_count_; }  // lifetime total
    size_t block_count() const noexcept { return blocks_.size(); }
    size_t capacity() const noexcept {
        size_t total = 0;
        for (const Block& b : blocks_) total += b.size;
        return total;
    }

private:
    struct Block {
        std::unique_ptr<uint8_t[]> data;
        size_t size = 0;
    };

    static uintptr_t align_up(uintptr_t v, size_t align) noexcept {
        return (v + align - 1) & ~(uintptr_t{align} - 1);
    }

    // Smallest cursor >= cursor_ whose address in the current block is
    // `align`-aligned.
    size_t aligned_cursor(size_t align) const noexcept {
        if (block_ >= blocks_.size()) return cursor_;
        auto base = reinterpret_cast<uintptr_t>(blocks_[block_].data.get());
        return static_cast<size_t>(align_up(base + cursor_, align) - base);
    }

    void grow(size_t min_size) {
        // Reuse a cached successor block when rewound; otherwise append
        // a geometrically larger one.
        while (block_ + 1 < blocks_.size()) {
            ++block_;
            cursor_ = 0;
            if (blocks_[block_].size >= min_size) return;
        }
        size_t next_size = blocks_.empty() ? first_block_bytes_ : blocks_.back().size * 2;
        while (next_size < min_size) next_size *= 2;
        Block b;
        b.data = std::make_unique<uint8_t[]>(next_size);
        b.size = next_size;
        poison(b.data.get(), b.size);
        blocks_.push_back(std::move(b));
        block_ = blocks_.size() - 1;
        cursor_ = 0;
    }

    static void poison(const void* p, size_t n) {
#ifdef UNICERT_ARENA_ASAN
        if (n != 0) __asan_poison_memory_region(p, n);
#else
        (void)p;
        (void)n;
#endif
    }
    static void unpoison(const void* p, size_t n) {
#ifdef UNICERT_ARENA_ASAN
        if (n != 0) __asan_unpoison_memory_region(p, n);
#else
        (void)p;
        (void)n;
#endif
    }

    size_t first_block_bytes_;
    std::vector<Block> blocks_;
    size_t block_ = 0;   // current block index
    size_t cursor_ = 0;  // used bytes in the current block
    size_t bytes_allocated_ = 0;
    size_t allocation_count_ = 0;
};

// RAII scope mark: everything the arena hands out while the scope is
// open is reclaimed when it closes.
class ArenaScope {
public:
    explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
    ~ArenaScope() { arena_->release_to(mark_); }

    ArenaScope(const ArenaScope&) = delete;
    ArenaScope& operator=(const ArenaScope&) = delete;

private:
    Arena* arena_;
    Arena::Mark mark_;
};

}  // namespace unicert::core
