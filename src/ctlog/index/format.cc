#include "ctlog/index/format.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "ctlog/store/format.h"

namespace unicert::ctlog::index {
namespace {

using store::get_u32be;
using store::get_u64be;
using store::put_u32be;
using store::put_u64be;

constexpr size_t kHeaderLen = 12 + 8 + 8 + 32 + 4;  // magic..payload_len

// Sequential payload reader with hard bounds checks: the checksum has
// already been verified when this runs, so any failure here means the
// encoder and decoder disagree — surfaced as index_bad_payload, never
// silently wrong data.
struct Reader {
    BytesView buf;
    size_t at = 0;
    bool failed = false;

    bool need(size_t n) {
        if (failed || buf.size() - at < n) {
            failed = true;
            return false;
        }
        return true;
    }
    uint32_t u32() {
        if (!need(4)) return 0;
        uint32_t v = get_u32be(buf, at);
        at += 4;
        return v;
    }
    uint64_t u64() {
        if (!need(8)) return 0;
        uint64_t v = get_u64be(buf, at);
        at += 8;
        return v;
    }
    uint8_t u8() {
        if (!need(1)) return 0;
        return buf[at++];
    }
    std::string str(uint32_t len) {
        if (!need(len)) return {};
        std::string out(reinterpret_cast<const char*>(buf.data() + at), len);
        at += len;
        return out;
    }
};

}  // namespace

void RecordList::push_back(IndexedRecord record) {
    open_.push_back(std::move(record));
    if (open_.size() == kChunkRecords) {
        sealed_.push_back(std::make_shared<const std::vector<IndexedRecord>>(std::move(open_)));
        open_.clear();
    }
}

void ProfileIndex::add(IndexedRecord record) {
    const MonitorCapabilities& for_caps = caps.value();
    const auto id = static_cast<uint32_t>(records.size());
    for (unsigned bit = 0; bit < 8; ++bit) {
        if (record.class_mask & (1u << bit)) class_postings[bit].push_back(id);
    }
    if (record.searchable() && for_caps.fuzzy_search) {
        searchable_ids.push_back(id);
        for (const std::string& key : record.keys) {
            for (size_t i = 0; i + 3 <= key.size(); ++i) trigrams.add(pack_trigram(key, i), id);
        }
    } else if (record.searchable()) {
        for (const std::string& key : record.keys) exact.add(exact_key_hash(key), id);
    }
    records.push_back(std::move(record));
}

const ProfileIndex* IndexGeneration::find_profile(std::string_view name) const noexcept {
    for (const ProfileIndex& p : profiles) {
        if (p.profile_name == name) return &p;
    }
    return nullptr;
}

Bytes encode_index(const IndexGeneration& generation) {
    Bytes payload;
    put_u32be(payload, static_cast<uint32_t>(generation.profiles.size()));
    for (const ProfileIndex& profile : generation.profiles) {
        put_u32be(payload, static_cast<uint32_t>(profile.profile_name.size()));
        payload.insert(payload.end(), profile.profile_name.begin(),
                       profile.profile_name.end());
        put_u64be(payload, profile.records.size());
        for (const IndexedRecord& record : profile.records) {
            uint8_t flags = (record.hidden ? kRecordHidden : 0) |
                            (record.excluded ? kRecordExcluded : 0);
            payload.push_back(flags);
            payload.push_back(record.class_mask);
            payload.push_back(record.field_mask);
            put_u32be(payload, static_cast<uint32_t>(record.keys.size()));
            for (const std::string& key : record.keys) {
                put_u32be(payload, static_cast<uint32_t>(key.size()));
                payload.insert(payload.end(), key.begin(), key.end());
            }
        }
    }

    Bytes out(kIndexMagic.begin(), kIndexMagic.end());
    out.reserve(kHeaderLen + payload.size() + 32);
    put_u64be(out, generation.epoch);
    put_u64be(out, generation.basis_size);
    out.insert(out.end(), generation.basis_root.begin(), generation.basis_root.end());
    put_u32be(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    Digest digest = crypto::sha256(BytesView(out.data(), out.size()));
    out.insert(out.end(), digest.begin(), digest.end());
    return out;
}

Expected<IndexGeneration> decode_index(BytesView buffer) {
    // A wrong magic outranks a short buffer: a torn tail of a real
    // artifact still starts with the magic, a foreign file never does.
    if (buffer.size() >= kIndexMagic.size() &&
        std::string_view(reinterpret_cast<const char*>(buffer.data()), kIndexMagic.size()) !=
            kIndexMagic) {
        return Error{"index_bad_magic", "not a unicert-index-v1 artifact"};
    }
    if (buffer.size() < kHeaderLen + 32) {
        return Error{"index_truncated", "index artifact shorter than its fixed header"};
    }
    IndexGeneration generation;
    size_t at = kIndexMagic.size();
    generation.epoch = get_u64be(buffer, at);
    at += 8;
    generation.basis_size = get_u64be(buffer, at);
    at += 8;
    std::copy(buffer.begin() + static_cast<ptrdiff_t>(at),
              buffer.begin() + static_cast<ptrdiff_t>(at + 32), generation.basis_root.begin());
    at += 32;
    uint32_t payload_len = get_u32be(buffer, at);
    at += 4;
    if (payload_len > kMaxIndexPayload) {
        return Error{"index_bad_length",
                     "payload length " + std::to_string(payload_len) + " exceeds the format cap"};
    }
    if (buffer.size() < at + payload_len + 32) {
        return Error{"index_truncated",
                     "index artifact torn: " + std::to_string(buffer.size()) + " bytes, " +
                         std::to_string(at + payload_len + 32) + " framed"};
    }
    if (buffer.size() > at + payload_len + 32) {
        return Error{"index_bad_length", "trailing garbage after the checksum trailer"};
    }
    Digest want;
    std::copy(buffer.end() - 32, buffer.end(), want.begin());
    Digest got = crypto::sha256(BytesView(buffer.data(), buffer.size() - 32));
    if (want != got) {
        return Error{"index_checksum", "index artifact digest mismatch (bit rot or torn write)"};
    }

    Reader r{BytesView(buffer.data() + at, payload_len)};
    uint32_t profile_count = r.u32();
    if (profile_count > 64) r.failed = true;
    for (uint32_t p = 0; p < profile_count && !r.failed; ++p) {
        ProfileIndex profile;
        profile.profile_name = r.str(r.u32());
        uint64_t record_count = r.u64();
        if (record_count != generation.basis_size) r.failed = true;
        for (uint64_t i = 0; i < record_count && !r.failed; ++i) {
            IndexedRecord record;
            uint8_t flags = r.u8();
            record.hidden = flags & kRecordHidden;
            record.excluded = flags & kRecordExcluded;
            record.class_mask = r.u8();
            record.field_mask = r.u8();
            uint32_t key_count = r.u32();
            record.keys.reserve(std::min<uint32_t>(key_count, 1024));
            for (uint32_t k = 0; k < key_count && !r.failed; ++k) {
                record.keys.push_back(r.str(r.u32()));
            }
            profile.records.push_back(std::move(record));
        }
        generation.profiles.push_back(std::move(profile));
    }
    if (r.failed || r.at != r.buf.size()) {
        return Error{"index_bad_payload", "index payload grammar broken despite valid checksum"};
    }
    return generation;
}

std::string index_file_name(uint64_t epoch) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(epoch));
    return std::string(kIndexFilePrefix) + hex + std::string(kIndexFileSuffix);
}

std::optional<uint64_t> parse_index_file_name(std::string_view name) {
    if (!name.starts_with(kIndexFilePrefix) || !name.ends_with(kIndexFileSuffix)) {
        return std::nullopt;
    }
    std::string_view hex =
        name.substr(kIndexFilePrefix.size(),
                    name.size() - kIndexFilePrefix.size() - kIndexFileSuffix.size());
    if (hex.size() != 16) return std::nullopt;
    uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), value, 16);
    if (ec != std::errc() || ptr != hex.data() + hex.size()) return std::nullopt;
    return value;
}

}  // namespace unicert::ctlog::index
