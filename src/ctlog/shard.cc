#include "ctlog/shard.h"

#include <algorithm>

namespace unicert::ctlog {

std::vector<ShardRange> shard_ranges(size_t total, size_t shards) {
    std::vector<ShardRange> out;
    if (total == 0 || shards == 0) return out;
    shards = std::min(shards, total);
    const size_t base = total / shards;
    const size_t extra = total % shards;  // first `extra` shards get one more
    size_t begin = 0;
    for (size_t s = 0; s < shards; ++s) {
        size_t len = base + (s < extra ? 1 : 0);
        out.push_back({begin, begin + len});
        begin += len;
    }
    return out;
}

}  // namespace unicert::ctlog
