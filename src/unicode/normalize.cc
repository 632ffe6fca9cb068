#include "unicode/normalize.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace unicert::unicode {
namespace {

// ---- Hangul algorithmic composition (UAX #15 section 3.12) ----------------

constexpr CodePoint kSBase = 0xAC00;
constexpr CodePoint kLBase = 0x1100;
constexpr CodePoint kVBase = 0x1161;
constexpr CodePoint kTBase = 0x11A7;
constexpr int kLCount = 19;
constexpr int kVCount = 21;
constexpr int kTCount = 28;
constexpr int kNCount = kVCount * kTCount;  // 588
constexpr int kSCount = kLCount * kNCount;  // 11172

bool is_hangul_syllable(CodePoint cp) {
    return cp >= kSBase && cp < kSBase + kSCount;
}

// ---- Canonical decomposition table -----------------------------------------

struct Decomp {
    CodePoint cp;
    CodePoint first;
    CodePoint second;  // 0 for singleton decompositions
};

// Pairs from UnicodeData.txt for Latin-1 Supplement, Latin Extended-A,
// Greek tonos/dialytika, and Cyrillic precomposed letters. Sorted by cp.
constexpr std::array kDecomp = {
    Decomp{0x00C0, 0x0041, 0x0300}, Decomp{0x00C1, 0x0041, 0x0301},
    Decomp{0x00C2, 0x0041, 0x0302}, Decomp{0x00C3, 0x0041, 0x0303},
    Decomp{0x00C4, 0x0041, 0x0308}, Decomp{0x00C5, 0x0041, 0x030A},
    Decomp{0x00C7, 0x0043, 0x0327}, Decomp{0x00C8, 0x0045, 0x0300},
    Decomp{0x00C9, 0x0045, 0x0301}, Decomp{0x00CA, 0x0045, 0x0302},
    Decomp{0x00CB, 0x0045, 0x0308}, Decomp{0x00CC, 0x0049, 0x0300},
    Decomp{0x00CD, 0x0049, 0x0301}, Decomp{0x00CE, 0x0049, 0x0302},
    Decomp{0x00CF, 0x0049, 0x0308}, Decomp{0x00D1, 0x004E, 0x0303},
    Decomp{0x00D2, 0x004F, 0x0300}, Decomp{0x00D3, 0x004F, 0x0301},
    Decomp{0x00D4, 0x004F, 0x0302}, Decomp{0x00D5, 0x004F, 0x0303},
    Decomp{0x00D6, 0x004F, 0x0308}, Decomp{0x00D9, 0x0055, 0x0300},
    Decomp{0x00DA, 0x0055, 0x0301}, Decomp{0x00DB, 0x0055, 0x0302},
    Decomp{0x00DC, 0x0055, 0x0308}, Decomp{0x00DD, 0x0059, 0x0301},
    Decomp{0x00E0, 0x0061, 0x0300}, Decomp{0x00E1, 0x0061, 0x0301},
    Decomp{0x00E2, 0x0061, 0x0302}, Decomp{0x00E3, 0x0061, 0x0303},
    Decomp{0x00E4, 0x0061, 0x0308}, Decomp{0x00E5, 0x0061, 0x030A},
    Decomp{0x00E7, 0x0063, 0x0327}, Decomp{0x00E8, 0x0065, 0x0300},
    Decomp{0x00E9, 0x0065, 0x0301}, Decomp{0x00EA, 0x0065, 0x0302},
    Decomp{0x00EB, 0x0065, 0x0308}, Decomp{0x00EC, 0x0069, 0x0300},
    Decomp{0x00ED, 0x0069, 0x0301}, Decomp{0x00EE, 0x0069, 0x0302},
    Decomp{0x00EF, 0x0069, 0x0308}, Decomp{0x00F1, 0x006E, 0x0303},
    Decomp{0x00F2, 0x006F, 0x0300}, Decomp{0x00F3, 0x006F, 0x0301},
    Decomp{0x00F4, 0x006F, 0x0302}, Decomp{0x00F5, 0x006F, 0x0303},
    Decomp{0x00F6, 0x006F, 0x0308}, Decomp{0x00F9, 0x0075, 0x0300},
    Decomp{0x00FA, 0x0075, 0x0301}, Decomp{0x00FB, 0x0075, 0x0302},
    Decomp{0x00FC, 0x0075, 0x0308}, Decomp{0x00FD, 0x0079, 0x0301},
    Decomp{0x00FF, 0x0079, 0x0308},
    Decomp{0x0100, 0x0041, 0x0304}, Decomp{0x0101, 0x0061, 0x0304},
    Decomp{0x0102, 0x0041, 0x0306}, Decomp{0x0103, 0x0061, 0x0306},
    Decomp{0x0104, 0x0041, 0x0328}, Decomp{0x0105, 0x0061, 0x0328},
    Decomp{0x0106, 0x0043, 0x0301}, Decomp{0x0107, 0x0063, 0x0301},
    Decomp{0x0108, 0x0043, 0x0302}, Decomp{0x0109, 0x0063, 0x0302},
    Decomp{0x010A, 0x0043, 0x0307}, Decomp{0x010B, 0x0063, 0x0307},
    Decomp{0x010C, 0x0043, 0x030C}, Decomp{0x010D, 0x0063, 0x030C},
    Decomp{0x010E, 0x0044, 0x030C}, Decomp{0x010F, 0x0064, 0x030C},
    Decomp{0x0112, 0x0045, 0x0304}, Decomp{0x0113, 0x0065, 0x0304},
    Decomp{0x0114, 0x0045, 0x0306}, Decomp{0x0115, 0x0065, 0x0306},
    Decomp{0x0116, 0x0045, 0x0307}, Decomp{0x0117, 0x0065, 0x0307},
    Decomp{0x0118, 0x0045, 0x0328}, Decomp{0x0119, 0x0065, 0x0328},
    Decomp{0x011A, 0x0045, 0x030C}, Decomp{0x011B, 0x0065, 0x030C},
    Decomp{0x011C, 0x0047, 0x0302}, Decomp{0x011D, 0x0067, 0x0302},
    Decomp{0x011E, 0x0047, 0x0306}, Decomp{0x011F, 0x0067, 0x0306},
    Decomp{0x0120, 0x0047, 0x0307}, Decomp{0x0121, 0x0067, 0x0307},
    Decomp{0x0122, 0x0047, 0x0327}, Decomp{0x0123, 0x0067, 0x0327},
    Decomp{0x0124, 0x0048, 0x0302}, Decomp{0x0125, 0x0068, 0x0302},
    Decomp{0x0128, 0x0049, 0x0303}, Decomp{0x0129, 0x0069, 0x0303},
    Decomp{0x012A, 0x0049, 0x0304}, Decomp{0x012B, 0x0069, 0x0304},
    Decomp{0x012C, 0x0049, 0x0306}, Decomp{0x012D, 0x0069, 0x0306},
    Decomp{0x012E, 0x0049, 0x0328}, Decomp{0x012F, 0x0069, 0x0328},
    Decomp{0x0130, 0x0049, 0x0307},
    Decomp{0x0134, 0x004A, 0x0302}, Decomp{0x0135, 0x006A, 0x0302},
    Decomp{0x0136, 0x004B, 0x0327}, Decomp{0x0137, 0x006B, 0x0327},
    Decomp{0x0139, 0x004C, 0x0301}, Decomp{0x013A, 0x006C, 0x0301},
    Decomp{0x013B, 0x004C, 0x0327}, Decomp{0x013C, 0x006C, 0x0327},
    Decomp{0x013D, 0x004C, 0x030C}, Decomp{0x013E, 0x006C, 0x030C},
    Decomp{0x0143, 0x004E, 0x0301}, Decomp{0x0144, 0x006E, 0x0301},
    Decomp{0x0145, 0x004E, 0x0327}, Decomp{0x0146, 0x006E, 0x0327},
    Decomp{0x0147, 0x004E, 0x030C}, Decomp{0x0148, 0x006E, 0x030C},
    Decomp{0x014C, 0x004F, 0x0304}, Decomp{0x014D, 0x006F, 0x0304},
    Decomp{0x014E, 0x004F, 0x0306}, Decomp{0x014F, 0x006F, 0x0306},
    Decomp{0x0150, 0x004F, 0x030B}, Decomp{0x0151, 0x006F, 0x030B},
    Decomp{0x0154, 0x0052, 0x0301}, Decomp{0x0155, 0x0072, 0x0301},
    Decomp{0x0156, 0x0052, 0x0327}, Decomp{0x0157, 0x0072, 0x0327},
    Decomp{0x0158, 0x0052, 0x030C}, Decomp{0x0159, 0x0072, 0x030C},
    Decomp{0x015A, 0x0053, 0x0301}, Decomp{0x015B, 0x0073, 0x0301},
    Decomp{0x015C, 0x0053, 0x0302}, Decomp{0x015D, 0x0073, 0x0302},
    Decomp{0x015E, 0x0053, 0x0327}, Decomp{0x015F, 0x0073, 0x0327},
    Decomp{0x0160, 0x0053, 0x030C}, Decomp{0x0161, 0x0073, 0x030C},
    Decomp{0x0162, 0x0054, 0x0327}, Decomp{0x0163, 0x0074, 0x0327},
    Decomp{0x0164, 0x0054, 0x030C}, Decomp{0x0165, 0x0074, 0x030C},
    Decomp{0x0168, 0x0055, 0x0303}, Decomp{0x0169, 0x0075, 0x0303},
    Decomp{0x016A, 0x0055, 0x0304}, Decomp{0x016B, 0x0075, 0x0304},
    Decomp{0x016C, 0x0055, 0x0306}, Decomp{0x016D, 0x0075, 0x0306},
    Decomp{0x016E, 0x0055, 0x030A}, Decomp{0x016F, 0x0075, 0x030A},
    Decomp{0x0170, 0x0055, 0x030B}, Decomp{0x0171, 0x0075, 0x030B},
    Decomp{0x0172, 0x0055, 0x0328}, Decomp{0x0173, 0x0075, 0x0328},
    Decomp{0x0174, 0x0057, 0x0302}, Decomp{0x0175, 0x0077, 0x0302},
    Decomp{0x0176, 0x0059, 0x0302}, Decomp{0x0177, 0x0079, 0x0302},
    Decomp{0x0178, 0x0059, 0x0308},
    Decomp{0x0179, 0x005A, 0x0301}, Decomp{0x017A, 0x007A, 0x0301},
    Decomp{0x017B, 0x005A, 0x0307}, Decomp{0x017C, 0x007A, 0x0307},
    Decomp{0x017D, 0x005A, 0x030C}, Decomp{0x017E, 0x007A, 0x030C},
    // Greek (tonos = U+0301 after the 1986 merge; dialytika = U+0308)
    Decomp{0x0386, 0x0391, 0x0301}, Decomp{0x0388, 0x0395, 0x0301},
    Decomp{0x0389, 0x0397, 0x0301}, Decomp{0x038A, 0x0399, 0x0301},
    Decomp{0x038C, 0x039F, 0x0301}, Decomp{0x038E, 0x03A5, 0x0301},
    Decomp{0x038F, 0x03A9, 0x0301},
    Decomp{0x0390, 0x03CA, 0x0301}, Decomp{0x03AA, 0x0399, 0x0308},
    Decomp{0x03AB, 0x03A5, 0x0308}, Decomp{0x03AC, 0x03B1, 0x0301},
    Decomp{0x03AD, 0x03B5, 0x0301}, Decomp{0x03AE, 0x03B7, 0x0301},
    Decomp{0x03AF, 0x03B9, 0x0301}, Decomp{0x03B0, 0x03CB, 0x0301},
    Decomp{0x03CA, 0x03B9, 0x0308}, Decomp{0x03CB, 0x03C5, 0x0308},
    Decomp{0x03CC, 0x03BF, 0x0301}, Decomp{0x03CD, 0x03C5, 0x0301},
    Decomp{0x03CE, 0x03C9, 0x0301},
    // Cyrillic
    Decomp{0x0400, 0x0415, 0x0300}, Decomp{0x0401, 0x0415, 0x0308},
    Decomp{0x0403, 0x0413, 0x0301}, Decomp{0x0407, 0x0406, 0x0308},
    Decomp{0x040C, 0x041A, 0x0301}, Decomp{0x040D, 0x0418, 0x0300},
    Decomp{0x040E, 0x0423, 0x0306}, Decomp{0x0419, 0x0418, 0x0306},
    Decomp{0x0439, 0x0438, 0x0306}, Decomp{0x0450, 0x0435, 0x0300},
    Decomp{0x0451, 0x0435, 0x0308}, Decomp{0x0453, 0x0433, 0x0301},
    Decomp{0x0457, 0x0456, 0x0308}, Decomp{0x045C, 0x043A, 0x0301},
    Decomp{0x045D, 0x0438, 0x0300}, Decomp{0x045E, 0x0443, 0x0306},
};

constexpr bool pair_less(const Decomp& a, const Decomp& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
}

// kDecomp ordered by (first, second): compose_pair's search index.
constexpr auto kComposeIndex = [] {
    std::array<Decomp, kDecomp.size()> index = kDecomp;
    std::sort(index.begin(), index.end(), pair_less);
    return index;
}();

// With no two entries sharing a pair, the search finds the one entry a
// scan of kDecomp would.
static_assert(std::adjacent_find(kComposeIndex.begin(), kComposeIndex.end(),
                                 [](const Decomp& a, const Decomp& b) {
                                     return !pair_less(a, b);
                                 }) == kComposeIndex.end(),
              "kDecomp has a duplicate (first, second) pair");

// Every second element is a combining mark at or above U+0300, which
// is what makes is_nfc's quick check exact (see there).
static_assert(std::all_of(kDecomp.begin(), kDecomp.end(),
                          [](const Decomp& d) { return d.second >= 0x0300; }),
              "kDecomp has a pair whose second element is below U+0300");

const Decomp* find_decomp(CodePoint cp) {
    auto it = std::lower_bound(kDecomp.begin(), kDecomp.end(), cp,
                               [](const Decomp& d, CodePoint v) { return d.cp < v; });
    if (it != kDecomp.end() && it->cp == cp) return &*it;
    return nullptr;
}

}  // namespace

int combining_class(CodePoint cp) noexcept {
    // Combining Diacritical Marks block with UCD ccc values; the ranges
    // used by our decomposition table all fall here.
    if (cp >= 0x0300 && cp <= 0x0314) return 230;
    if (cp == 0x0315) return 232;
    if (cp >= 0x0316 && cp <= 0x0319) return 220;
    if (cp == 0x031A) return 232;
    if (cp == 0x031B) return 216;
    if (cp >= 0x031C && cp <= 0x0320) return 220;
    if (cp >= 0x0321 && cp <= 0x0322) return 202;
    if (cp >= 0x0323 && cp <= 0x0326) return 220;
    if (cp >= 0x0327 && cp <= 0x0328) return 202;
    if (cp >= 0x0329 && cp <= 0x0333) return 220;
    if (cp >= 0x0334 && cp <= 0x0338) return 1;
    if (cp >= 0x0339 && cp <= 0x033C) return 220;
    if (cp >= 0x033D && cp <= 0x0344) return 230;
    if (cp == 0x0345) return 240;
    if (cp == 0x0346) return 230;
    if (cp >= 0x0347 && cp <= 0x0349) return 220;
    if (cp >= 0x034A && cp <= 0x034C) return 230;
    if (cp >= 0x034D && cp <= 0x034E) return 220;
    if (cp >= 0x0350 && cp <= 0x0352) return 230;
    if (cp >= 0x0353 && cp <= 0x0356) return 220;
    if (cp == 0x0357) return 230;
    if (cp == 0x0358) return 232;
    if (cp >= 0x0359 && cp <= 0x035A) return 220;
    if (cp == 0x035B) return 230;
    if (cp >= 0x0363 && cp <= 0x036F) return 230;
    // Hebrew/Arabic common marks (coarse but ordered consistently).
    if (cp >= 0x0591 && cp <= 0x05BD) return 220;
    if (cp >= 0x064B && cp <= 0x0652) return 28;
    return 0;
}

void canonical_decompose(CodePoint cp, CodePoints& out) {
    if (is_hangul_syllable(cp)) {
        CodePoint s = cp - kSBase;
        out.push_back(kLBase + s / kNCount);
        out.push_back(kVBase + (s % kNCount) / kTCount);
        CodePoint t = s % kTCount;
        if (t != 0) out.push_back(kTBase + t);
        return;
    }
    if (const Decomp* d = find_decomp(cp)) {
        canonical_decompose(d->first, out);
        if (d->second != 0) out.push_back(d->second);
        return;
    }
    out.push_back(cp);
}

CodePoint compose_pair(CodePoint starter, CodePoint combining) noexcept {
    // Hangul LV / LVT composition.
    if (starter >= kLBase && starter < kLBase + kLCount && combining >= kVBase &&
        combining < kVBase + kVCount) {
        return kSBase + ((starter - kLBase) * kVCount + (combining - kVBase)) * kTCount;
    }
    if (is_hangul_syllable(starter) && (starter - kSBase) % kTCount == 0 &&
        combining > kTBase && combining < kTBase + kTCount) {
        return starter + (combining - kTBase);
    }
    // Reverse lookup over the decomposition table's pairs.
    const Decomp key{0, starter, combining};
    auto it = std::lower_bound(kComposeIndex.begin(), kComposeIndex.end(), key, pair_less);
    if (it != kComposeIndex.end() && it->first == starter && it->second == combining) {
        return it->cp;
    }
    return 0;
}

CodePoints nfd(const CodePoints& in) {
    CodePoints out;
    out.reserve(in.size() + in.size() / 4);
    for (CodePoint cp : in) canonical_decompose(cp, out);

    // Canonical ordering: stable bubble of combining marks by ccc.
    for (size_t i = 1; i < out.size(); ++i) {
        int cc = combining_class(out[i]);
        if (cc == 0) continue;
        size_t j = i;
        while (j > 0) {
            int prev = combining_class(out[j - 1]);
            if (prev == 0 || prev <= cc) break;
            std::swap(out[j - 1], out[j]);
            --j;
        }
    }
    return out;
}

CodePoints nfc(const CodePoints& in) {
    CodePoints d = nfd(in);
    if (d.empty()) return d;

    CodePoints out;
    out.reserve(d.size());
    // Canonical composition (UAX #15): a character C composes with the
    // last starter L iff nothing between them blocks it — i.e. the
    // previously processed character was L itself (prev_cc == 0) or had
    // a combining class strictly below ccc(C).
    ptrdiff_t last_starter = -1;
    int prev_cc = 0;  // ccc of the previous retained character
    for (CodePoint cp : d) {
        int cc = combining_class(cp);
        if (last_starter >= 0 && (prev_cc == 0 || prev_cc < cc)) {
            if (CodePoint comp = compose_pair(out[last_starter], cp)) {
                out[last_starter] = comp;
                continue;  // cp consumed; prev_cc unchanged
            }
        }
        out.push_back(cp);
        if (cc == 0) last_starter = static_cast<ptrdiff_t>(out.size()) - 1;
        prev_cc = cc;
    }
    return out;
}

bool is_nfc(const CodePoints& in) {
    // Quick check: every code point below U+0300 has ccc 0, and no
    // table pair has a second element below U+0300, so in such a
    // string nothing reorders and every decomposed pair composes back
    // to where it came from.
    if (std::all_of(in.begin(), in.end(), [](CodePoint cp) { return cp < 0x0300; })) {
        return true;
    }
    return nfc(in) == in;
}

}  // namespace unicert::unicode
