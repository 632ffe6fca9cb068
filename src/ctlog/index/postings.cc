#include "ctlog/index/postings.h"

#include <algorithm>
#include <bit>

namespace unicert::ctlog::index {

Postings::Postings(const Postings& other) : lists_(other.lists_), table_(other.table_) {
    size_t ids = 0;
    for (const List& list : lists_) ids += list.size;
    pool_.reserve(ids);
    for (List& list : lists_) {
        auto from = other.pool_.begin() + list.begin;
        list.begin = static_cast<uint32_t>(pool_.size());
        list.capacity = list.size;
        pool_.insert(pool_.end(), from, from + list.size);
    }
}

Postings& Postings::operator=(const Postings& other) {
    if (this != &other) *this = Postings(other);
    return *this;
}

size_t Postings::slot_of(uint64_t key) const noexcept {
    // Fibonacci hashing spreads packed trigrams and string hashes alike;
    // linear probing from there.
    const size_t mask = table_.size() - 1;
    size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(table_.size()));
    while (table_[slot] != 0 && lists_[table_[slot] - 1].key != key) slot = (slot + 1) & mask;
    return slot;
}

std::span<const uint32_t> Postings::find(uint64_t key) const noexcept {
    if (table_.empty()) return {};
    uint32_t at = table_[slot_of(key)];
    if (at == 0) return {};
    const List& list = lists_[at - 1];
    return {pool_.data() + list.begin, list.size};
}

void Postings::add(uint64_t key, uint32_t id) {
    // Keep the table at most half full.
    if (2 * (lists_.size() + 1) > table_.size()) {
        table_.assign(std::max<size_t>(16, 2 * table_.size()), 0);
        for (size_t i = 0; i < lists_.size(); ++i) {
            table_[slot_of(lists_[i].key)] = static_cast<uint32_t>(i + 1);
        }
    }
    size_t slot = slot_of(key);
    if (table_[slot] == 0) {
        lists_.push_back({.key = key});
        table_[slot] = static_cast<uint32_t>(lists_.size());
    }
    List& list = lists_[table_[slot] - 1];
    if (list.size > 0 && pool_[list.begin + list.size - 1] == id) return;
    if (list.size == list.capacity) {
        const auto moved = static_cast<uint32_t>(pool_.size());
        list.capacity = std::max<uint32_t>(1, 2 * list.capacity);
        pool_.resize(pool_.size() + list.capacity);
        std::copy_n(pool_.begin() + list.begin, list.size, pool_.begin() + moved);
        list.begin = moved;
    }
    pool_[list.begin + list.size++] = id;
}

}  // namespace unicert::ctlog::index
