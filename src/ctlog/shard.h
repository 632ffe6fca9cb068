// unicert/ctlog/shard.h
//
// Sharding a CT log for parallel ingestion. A log of N entries splits
// into contiguous, balanced ShardRanges; each shard is consumed
// independently (its own cursor, retries, quarantine) through a
// core::LogCertSource and carries its own ShardCheckpoint so a parallel
// ingestion pass aborted in one shard resumes exactly where that shard
// stopped — the per-shard analogue of the monitor's resumable-sync
// checkpoint.
// Shards are contiguous index ranges, so concatenating shard results
// in range order reproduces the global log order: the property the
// deterministic-merge invariant (DESIGN.md §8) relies on.
#pragma once

#include <cstddef>
#include <vector>

namespace unicert::ctlog {

// Half-open entry range [begin, end).
struct ShardRange {
    size_t begin = 0;
    size_t end = 0;

    size_t size() const noexcept { return end - begin; }
    bool empty() const noexcept { return begin >= end; }

    bool operator==(const ShardRange&) const = default;
};

// Split [0, total) into at most `shards` contiguous ranges, balanced to
// within one entry, larger shards first. Fewer ranges come back when
// total < shards; zero when the log is empty.
std::vector<ShardRange> shard_ranges(size_t total, size_t shards);

// One shard's durable ingestion position: the next entry to consume
// within its range. `completed` means the cursor reached range.end
// without a stream-level abort; a resumed pass skips completed shards.
struct ShardCheckpoint {
    ShardRange range;
    size_t next_index = 0;
    bool completed = false;

    size_t remaining() const noexcept {
        return next_index >= range.end ? 0 : range.end - next_index;
    }

    bool operator==(const ShardCheckpoint&) const = default;
};

}  // namespace unicert::ctlog
