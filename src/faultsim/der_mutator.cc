#include "faultsim/der_mutator.h"

#include <vector>

#include "asn1/der.h"
#include "asn1/encoding.h"
#include "asn1/strings.h"
#include "common/splitmix.h"

namespace unicert::faultsim {
namespace {

// One TLV node located in the buffer.
struct Node {
    size_t offset = 0;      // of the identifier octet
    size_t header_len = 0;  // tag + length octets
    size_t total_len = 0;   // header + content
    uint8_t identifier = 0;
};

// Collect TLV nodes breadth-first (bounded: the input is untrusted).
std::vector<Node> collect_nodes(BytesView der) {
    constexpr size_t kMaxNodes = 256;
    constexpr size_t kMaxDepth = 48;
    std::vector<Node> nodes;
    // (buffer offset, view, depth) work list.
    std::vector<std::pair<std::pair<size_t, size_t>, size_t>> work = {{{0, der.size()}, 0}};
    while (!work.empty() && nodes.size() < kMaxNodes) {
        auto [range, depth] = work.back();
        work.pop_back();
        size_t pos = range.first;
        const size_t end = range.first + range.second;
        while (pos < end && nodes.size() < kMaxNodes) {
            auto tlv = asn1::read_tlv(der.subspan(pos, end - pos));
            if (!tlv.ok()) break;
            nodes.push_back({pos, tlv->header_len, tlv->total_len, tlv->identifier});
            if (tlv->is_constructed() && depth < kMaxDepth && !tlv->content.empty()) {
                work.push_back({{pos + tlv->header_len, tlv->content.size()}, depth + 1});
            }
            pos += tlv->total_len;
        }
    }
    return nodes;
}

const uint8_t kStringTags[] = {
    static_cast<uint8_t>(asn1::Tag::kUtf8String),
    static_cast<uint8_t>(asn1::Tag::kPrintableString),
    static_cast<uint8_t>(asn1::Tag::kIa5String),
    static_cast<uint8_t>(asn1::Tag::kNumericString),
    static_cast<uint8_t>(asn1::Tag::kTeletexString),
    static_cast<uint8_t>(asn1::Tag::kVisibleString),
    static_cast<uint8_t>(asn1::Tag::kBmpString),
    static_cast<uint8_t>(asn1::Tag::kUniversalString),
};

Bytes byte_noise(BytesView der, uint64_t state) {
    Bytes out(der.begin(), der.end());
    if (out.empty()) return {0x3F, 0x03, 0x01};  // reserved high-tag fragment
    auto next = [&state]() {
        state = mix64(state);
        return state;
    };
    size_t flips = 1 + next() % 4;
    for (size_t i = 0; i < flips; ++i) {
        out[next() % out.size()] ^= static_cast<uint8_t>(1u << (next() % 8));
    }
    if (next() % 5 == 0) out.resize(1 + next() % out.size());
    if (next() % 8 == 0) out.push_back(static_cast<uint8_t>(next() % 256));
    return out;
}

// ---- BER-izing (semantics-preserving re-encode) ---------------------------
//
// Unlike the flat byte-splicing corruptions above, a BER-izing transform
// changes a node's encoded SIZE, which would desynchronize every
// ancestor's length field. So the document is parsed into a tree, one
// eligible node gets an encoding override, and the whole tree is
// re-encoded (minimal DER everywhere else reproduces the input bytes
// for untouched subtrees).

struct BerNode {
    uint8_t identifier = 0;
    BytesView content;               // raw value bytes in the input buffer
    std::vector<BerNode> children;   // constructed children, or the TLV
                                     // nested inside an OCTET STRING value
};

constexpr size_t kBerTreeMaxDepth = 48;

bool build_ber_tree(BytesView data, size_t depth, std::vector<BerNode>& out) {
    size_t pos = 0;
    while (pos < data.size()) {
        auto tlv = asn1::read_tlv(data.subspan(pos));
        if (!tlv.ok()) return false;
        BerNode n;
        n.identifier = tlv->identifier;
        n.content = tlv->content;
        if (tlv->is_constructed()) {
            if (depth >= kBerTreeMaxDepth) return false;
            if (!build_ber_tree(tlv->content, depth + 1, n.children)) return false;
        } else if (depth < kBerTreeMaxDepth &&
                   asn1::nested_in_octet_string(tlv.value(), asn1::kToleranceStrictDer)) {
            // Same descent rule as scan/normalize: extension bodies are
            // reachable, opaque blobs stay leaves.
            if (!build_ber_tree(tlv->content, depth + 1, n.children)) n.children.clear();
        }
        out.push_back(std::move(n));
        pos += tlv->total_len;
    }
    return true;
}

bool berize_eligible(const BerNode& n, asn1::EncodingRule rule) {
    using asn1::EncodingRule;
    using asn1::Tag;
    const bool universal = asn1::tag_class_of(n.identifier) == asn1::TagClass::kUniversal;
    const uint8_t num = asn1::tag_number_of(n.identifier);
    switch (rule) {
        case EncodingRule::kLongFormLength:
            return true;  // any TLV's length can be written long-form
        case EncodingRule::kConstructedString:
            return !asn1::is_constructed_id(n.identifier) && universal &&
                   (num == static_cast<uint8_t>(Tag::kOctetString) ||
                    asn1::string_type_from_tag(num).has_value()) &&
                   n.content.size() >= 2;
        case EncodingRule::kIndefiniteLength:
            return asn1::is_constructed_id(n.identifier);
        case EncodingRule::kPaddedBitString:
            // Needs spare pad bits that are currently zero, so zeroing
            // them (normalization) restores the original bytes.
            return !asn1::is_constructed_id(n.identifier) && universal &&
                   num == static_cast<uint8_t>(Tag::kBitString) && n.content.size() >= 2 &&
                   n.content[0] >= 1 && n.content[0] <= 7 &&
                   (n.content.back() & ((1u << n.content[0]) - 1u)) == 0;
        case EncodingRule::kNonMinimalInteger:
            return !asn1::is_constructed_id(n.identifier) && universal &&
                   num == static_cast<uint8_t>(Tag::kInteger) && !n.content.empty() &&
                   n.content.size() <= 20;
        case EncodingRule::kDer:
            return false;
    }
    return false;
}

void collect_berize_eligible(const std::vector<BerNode>& nodes, asn1::EncodingRule rule,
                             std::vector<const BerNode*>& out) {
    for (const BerNode& n : nodes) {
        if (berize_eligible(n, rule)) out.push_back(&n);
        collect_berize_eligible(n.children, rule, out);
    }
}

struct BerPlan {
    const BerNode* target = nullptr;
    asn1::EncodingRule rule = asn1::EncodingRule::kDer;
    uint64_t tweak = 0;
};

void emit_der_tlv(Bytes& out, uint8_t id, BytesView content) {
    out.push_back(id);
    Bytes len = asn1::encode_length(content.size());
    out.insert(out.end(), len.begin(), len.end());
    out.insert(out.end(), content.begin(), content.end());
}

void encode_ber_node(const BerNode& n, const BerPlan& plan, Bytes& out) {
    using asn1::EncodingRule;
    const bool targeted = (&n == plan.target);

    Bytes content;
    if (!n.children.empty() &&
        !(targeted && plan.rule == EncodingRule::kConstructedString)) {
        for (const BerNode& c : n.children) encode_ber_node(c, plan, content);
    } else {
        content.assign(n.content.begin(), n.content.end());
    }

    if (!targeted) {
        emit_der_tlv(out, n.identifier, content);
        return;
    }
    switch (plan.rule) {
        case EncodingRule::kLongFormLength: {
            out.push_back(n.identifier);
            Bytes len = asn1::encode_length_ber_long(content.size(), 1 + plan.tweak % 2);
            out.insert(out.end(), len.begin(), len.end());
            out.insert(out.end(), content.begin(), content.end());
            return;
        }
        case EncodingRule::kConstructedString: {
            // Split the raw value into 2..4 primitive same-tag segments.
            size_t k = std::min<size_t>(2 + plan.tweak % 3, content.size());
            Bytes segments;
            size_t off = 0;
            for (size_t i = 0; i < k; ++i) {
                size_t take = content.size() / k + (i < content.size() % k ? 1 : 0);
                emit_der_tlv(segments, n.identifier,
                             BytesView(content).subspan(off, take));
                off += take;
            }
            emit_der_tlv(out, static_cast<uint8_t>(n.identifier | asn1::kConstructedBit),
                         segments);
            return;
        }
        case EncodingRule::kIndefiniteLength: {
            out.push_back(n.identifier);
            out.push_back(0x80);
            out.insert(out.end(), content.begin(), content.end());
            out.push_back(0x00);
            out.push_back(0x00);
            return;
        }
        case EncodingRule::kPaddedBitString: {
            uint8_t unused = content[0];
            uint8_t garbage =
                static_cast<uint8_t>(1 + plan.tweak % ((1u << unused) - 1u));
            content.back() = static_cast<uint8_t>(content.back() | garbage);
            emit_der_tlv(out, n.identifier, content);
            return;
        }
        case EncodingRule::kNonMinimalInteger: {
            uint8_t sign = (content[0] & 0x80) ? 0xFF : 0x00;
            Bytes widened(1 + plan.tweak % 2, sign);
            widened.insert(widened.end(), content.begin(), content.end());
            emit_der_tlv(out, n.identifier, widened);
            return;
        }
        case EncodingRule::kDer:
            break;
    }
    emit_der_tlv(out, n.identifier, content);
}

}  // namespace

const char* der_mutation_name(DerMutation m) noexcept {
    switch (m) {
        case DerMutation::kTagFlip: return "tag_flip";
        case DerMutation::kStringTypeSwap: return "string_type_swap";
        case DerMutation::kLengthBomb: return "length_bomb";
        case DerMutation::kTruncate: return "truncate";
        case DerMutation::kNestingInflate: return "nesting_inflate";
        case DerMutation::kByteNoise: return "byte_noise";
        case DerMutation::kBerize: return "berize";
    }
    return "?";
}

DerMutation DerMutator::pick(uint64_t salt) const noexcept {
    uint64_t h = mix64(seed_ ^ mix64(salt ^ 0xD15EA5E0ULL));
    if (ber_axis_) {
        size_t idx = h % (kAllDerMutations.size() + 1);
        return idx == kAllDerMutations.size() ? DerMutation::kBerize : kAllDerMutations[idx];
    }
    return kAllDerMutations[h % kAllDerMutations.size()];
}

std::optional<Bytes> DerMutator::berize(asn1::EncodingRule rule, BytesView der,
                                        uint64_t salt) const {
    if (rule == asn1::EncodingRule::kDer || der.empty()) return std::nullopt;
    std::vector<BerNode> roots;
    if (!build_ber_tree(der, 0, roots)) return std::nullopt;
    std::vector<const BerNode*> eligible;
    collect_berize_eligible(roots, rule, eligible);
    if (eligible.empty()) return std::nullopt;

    uint64_t state = mix64(seed_ ^ mix64(salt ^ 0xBE71EDULL));
    BerPlan plan;
    plan.rule = rule;
    plan.target = eligible[state % eligible.size()];
    plan.tweak = mix64(state);

    Bytes out;
    for (const BerNode& n : roots) encode_ber_node(n, plan, out);
    return out;
}

Bytes DerMutator::mutate(BytesView der, uint64_t salt) const {
    return apply(pick(salt), der, salt);
}

Bytes DerMutator::apply(DerMutation m, BytesView der, uint64_t salt) const {
    uint64_t state = mix64(seed_ ^ mix64(salt));
    auto next = [&state]() {
        state = mix64(state);
        return state;
    };

    std::vector<Node> nodes = collect_nodes(der);
    if (nodes.empty() || m == DerMutation::kByteNoise) return byte_noise(der, next());

    Bytes out(der.begin(), der.end());
    switch (m) {
        case DerMutation::kTagFlip: {
            const Node& n = nodes[next() % nodes.size()];
            // New tag number in the same class; constructed bit kept so
            // lengths stay plausible. Tag number 31 (0x1F) announces a
            // multi-byte tag, which the reader rejects — also a case.
            out[n.offset] = static_cast<uint8_t>((n.identifier & 0xE0) | (next() % 32));
            return out;
        }

        case DerMutation::kStringTypeSwap: {
            // Retag a character-string TLV as a different string type:
            // the exact declared-type-vs-content mismatch the paper's
            // Table 4 scenarios probe.
            std::vector<const Node*> strings;
            for (const Node& n : nodes) {
                if (n.identifier == (n.identifier & 0x1F) &&
                    asn1::string_type_from_tag(n.identifier & 0x1F).has_value()) {
                    strings.push_back(&n);
                }
            }
            if (strings.empty()) return byte_noise(der, next());
            const Node& n = *strings[next() % strings.size()];
            uint8_t replacement = kStringTags[next() % std::size(kStringTags)];
            if (replacement == (n.identifier & 0x1F)) {
                replacement = kStringTags[(next() + 1) % std::size(kStringTags)];
            }
            out[n.offset] = replacement;
            return out;
        }

        case DerMutation::kLengthBomb: {
            // Replace the node's length octets with a long-form length
            // claiming vastly more content than the buffer holds.
            const Node& n = nodes[next() % nodes.size()];
            Bytes bomb;
            bomb.push_back(out[n.offset]);  // keep identifier
            if (next() % 2 == 0) {
                // 4-byte length near 4 GiB.
                bomb.insert(bomb.end(), {0x84, 0xFF, 0xFF, 0xFF, 0xF1});
            } else {
                // 8-byte length: exercises the size_t overflow path.
                bomb.insert(bomb.end(), {0x88, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF1});
            }
            Bytes result(out.begin(), out.begin() + static_cast<long>(n.offset));
            result.insert(result.end(), bomb.begin(), bomb.end());
            result.insert(result.end(), out.begin() + static_cast<long>(n.offset + n.header_len),
                          out.end());
            return result;
        }

        case DerMutation::kTruncate: {
            const Node& n = nodes[next() % nodes.size()];
            // Cut strictly inside the TLV: header survives, content is
            // short — the der_truncated family.
            size_t keep = n.offset + 1 + next() % std::max<size_t>(1, n.total_len - 1);
            out.resize(keep);
            return out;
        }

        case DerMutation::kNestingInflate: {
            // Wrap a node in K extra constructed SEQUENCE layers.
            // K straddles the parser's 64-deep guard so the fuzzer
            // exercises both the accept and reject side of it.
            const Node& n = nodes[next() % nodes.size()];
            size_t layers = 48 + next() % 48;  // 48..95
            Bytes wrapped(out.begin() + static_cast<long>(n.offset),
                          out.begin() + static_cast<long>(n.offset + n.total_len));
            for (size_t i = 0; i < layers; ++i) {
                Bytes shell;
                shell.push_back(0x30);
                Bytes len = asn1::encode_length(wrapped.size());
                shell.insert(shell.end(), len.begin(), len.end());
                shell.insert(shell.end(), wrapped.begin(), wrapped.end());
                wrapped = std::move(shell);
            }
            Bytes result(out.begin(), out.begin() + static_cast<long>(n.offset));
            result.insert(result.end(), wrapped.begin(), wrapped.end());
            result.insert(result.end(), out.begin() + static_cast<long>(n.offset + n.total_len),
                          out.end());
            return result;
        }

        case DerMutation::kBerize: {
            // Rotate through the BER rules from a hash-chosen start
            // until one applies; clean DER always admits at least the
            // long-form rule, so the fallback only fires on input that
            // is already corrupt.
            size_t start = next() % std::size(asn1::kAllBerRules);
            for (size_t i = 0; i < std::size(asn1::kAllBerRules); ++i) {
                auto b = berize(asn1::kAllBerRules[(start + i) % std::size(asn1::kAllBerRules)],
                                der, salt);
                if (b) return *b;
            }
            return byte_noise(der, next());
        }

        case DerMutation::kByteNoise:
            break;  // handled above
    }
    return byte_noise(der, next());
}

}  // namespace unicert::faultsim
