// unicert/ctlog/index/postings.h
//
// The posting lists of one index section: ascending record ids per
// 64-bit key, kept in three flat arrays — the lists, an open-addressing
// table over them, and one pool of ids. A list that fills up moves to
// the end of the pool with twice the room, and a copy packs every list
// tight. So adding an id is amortized O(1) and a copy is a few bulk
// copies, not one allocation per key: folding the query service's
// delta into the next generation copies every section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace unicert::ctlog::index {

class Postings {
public:
    Postings() = default;
    Postings(const Postings& other);
    Postings& operator=(const Postings& other);
    Postings(Postings&&) noexcept = default;
    Postings& operator=(Postings&&) noexcept = default;

    // The ids under `key`, ascending; empty when it has none.
    std::span<const uint32_t> find(uint64_t key) const noexcept;

    // Append `id` to `key`'s list unless the list already ends with it.
    // Ids arrive in ascending order.
    void add(uint64_t key, uint32_t id);

    size_t size() const noexcept { return lists_.size(); }  // keys
    bool empty() const noexcept { return lists_.empty(); }

private:
    struct List {
        uint64_t key = 0;
        uint32_t begin = 0;  // offset of the first id in pool_
        uint32_t size = 0;
        uint32_t capacity = 0;
    };

    // The table slot holding `key`'s list, or the free slot where it
    // would go. The table is never full.
    size_t slot_of(uint64_t key) const noexcept;

    std::vector<List> lists_;
    std::vector<uint32_t> table_;  // index into lists_ + 1; 0 = free
    std::vector<uint32_t> pool_;
};

}  // namespace unicert::ctlog::index
