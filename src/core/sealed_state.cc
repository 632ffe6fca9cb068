#include "core/sealed_state.h"

#include <charconv>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace unicert::core {
namespace {

constexpr std::string_view kChecksumKey = "checksum: ";
constexpr size_t kDigestHex = 64;

std::string digest_hex(std::string_view body) {
    return hex_encode(crypto::sha256(
        BytesView(reinterpret_cast<const uint8_t*>(body.data()), body.size())));
}

Error branded(std::string_view prefix, const char* suffix, std::string message) {
    return Error{std::string(prefix) + suffix, std::move(message)};
}

}  // namespace

SealedStateWriter::SealedStateWriter(std::string_view magic) : text_(magic) { text_ += '\n'; }

void SealedStateWriter::field(std::string_view key, std::string_view value) {
    text_.append(key).append(": ").append(value) += '\n';
}

void SealedStateWriter::field(std::string_view key, uint64_t value) {
    field(key, std::to_string(value));
}

std::string SealedStateWriter::seal() && {
    std::string trailer = std::string(kChecksumKey) + digest_hex(text_) + "\n";
    return std::move(text_) + trailer;
}

Status unseal_state(std::string_view text, std::string_view magic,
                    std::string_view code_prefix, const SealedFieldSink& apply) {
    // Magic first, so a wrong-format file reads as such rather than as
    // a torn checkpoint.
    if (!text.starts_with(magic) || (text.size() > magic.size() && text[magic.size()] != '\n')) {
        return branded(code_prefix, "_bad_magic",
                       "not a " + std::string(magic) + " checkpoint");
    }
    // The checksum line must be the last line and must cover everything
    // before it — a file cut anywhere (even mid-checksum) fails here.
    size_t trailer = text.rfind(kChecksumKey);
    if (trailer == std::string_view::npos ||
        trailer + kChecksumKey.size() + kDigestHex + 1 != text.size() || text.back() != '\n') {
        return branded(code_prefix, "_truncated", "checkpoint has no complete checksum trailer");
    }
    std::string_view body = text.substr(0, trailer);
    if (digest_hex(body) != text.substr(trailer + kChecksumKey.size(), kDigestHex)) {
        return branded(code_prefix, "_checksum", "checkpoint checksum mismatch");
    }

    size_t pos = magic.size() + 1;
    while (pos < body.size()) {
        size_t end = body.find('\n', pos);
        if (end == std::string_view::npos) end = body.size();
        std::string_view line = body.substr(pos, end - pos);
        pos = end + 1;
        size_t colon = line.find(": ");
        if (colon == std::string_view::npos ||
            !apply(line.substr(0, colon), line.substr(colon + 2))) {
            return branded(code_prefix, "_bad_field", "malformed line: " + std::string(line));
        }
    }
    return Status::success();
}

bool parse_u64(std::string_view text, uint64_t* out) {
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
    return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace unicert::core
