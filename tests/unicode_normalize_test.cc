// Tests for NFC normalization (RFC 5280 "attribute normalization").
#include "unicode/normalize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "common/splitmix.h"
#include "unicode/codec.h"

namespace unicert::unicode {
namespace {

CodePoints cps(std::initializer_list<CodePoint> l) { return CodePoints(l); }

TEST(CombiningClass, StartersAreZero) {
    EXPECT_EQ(combining_class('A'), 0);
    EXPECT_EQ(combining_class(0xE9), 0);
    EXPECT_EQ(combining_class(0x4E2D), 0);
}

TEST(CombiningClass, MarksAreNonZero) {
    EXPECT_EQ(combining_class(0x0301), 230);  // acute
    EXPECT_EQ(combining_class(0x0327), 202);  // cedilla
    EXPECT_EQ(combining_class(0x0323), 220);  // dot below
}

TEST(Decompose, LatinPrecomposed) {
    CodePoints out;
    canonical_decompose(0x00E9, out);  // é
    EXPECT_EQ(out, cps({0x65, 0x0301}));
}

TEST(Decompose, RecursiveGreek) {
    // U+0390 -> U+03CA U+0301 -> U+03B9 U+0308 U+0301
    CodePoints out;
    canonical_decompose(0x0390, out);
    EXPECT_EQ(out, cps({0x03B9, 0x0308, 0x0301}));
}

TEST(Decompose, HangulSyllable) {
    // U+AC00 (가) = U+1100 + U+1161
    CodePoints out;
    canonical_decompose(0xAC00, out);
    EXPECT_EQ(out, cps({0x1100, 0x1161}));
}

TEST(Decompose, HangulSyllableWithTrailing) {
    // U+AC01 (각) = U+1100 + U+1161 + U+11A8
    CodePoints out;
    canonical_decompose(0xAC01, out);
    EXPECT_EQ(out, cps({0x1100, 0x1161, 0x11A8}));
}

TEST(Compose, PairLookup) {
    EXPECT_EQ(compose_pair(0x65, 0x0301), 0x00E9u);
    EXPECT_EQ(compose_pair(0x75, 0x0308), 0x00FCu);  // ü
    EXPECT_EQ(compose_pair(0x7A, 0x030C), 0x017Eu);  // ž
    EXPECT_EQ(compose_pair('x', 0x0301), 0u);        // no composite
}

TEST(Nfc, ComposesDecomposedSequence) {
    // "Ile" with combining circumflex on I -> "Île"
    CodePoints in = {0x49, 0x0302, 0x6C, 0x65};
    CodePoints out = nfc(in);
    EXPECT_EQ(out, cps({0x00CE, 0x6C, 0x65}));
}

TEST(Nfc, AlreadyComposedIsStable) {
    CodePoints in = {0x00CE, 0x6C, 0x65};
    EXPECT_EQ(nfc(in), in);
    EXPECT_TRUE(is_nfc(in));
}

TEST(Nfc, DetectsDenormalizedInput) {
    CodePoints decomposed = {0x65, 0x0301};  // e + acute
    EXPECT_FALSE(is_nfc(decomposed));
    EXPECT_TRUE(is_nfc(nfc(decomposed)));
}

TEST(Nfc, CanonicalOrderingSortsMarks) {
    // e + cedilla(202) + acute(230) and e + acute + cedilla must agree.
    CodePoints a = {0x65, 0x0327, 0x0301};
    CodePoints b = {0x65, 0x0301, 0x0327};
    EXPECT_EQ(nfd(a), nfd(b));
}

TEST(Nfc, BlockedMarkDoesNotCompose) {
    // e + dot-below(220) + acute(230): acute composes (220 < 230 so not
    // blocked) to é, dot-below stays.
    CodePoints in = {0x65, 0x0323, 0x0301};
    CodePoints out = nfc(in);
    EXPECT_EQ(out, cps({0x00E9, 0x0323}));
}

TEST(Nfc, SameCccBlocks) {
    // Two acutes: second acute has equal ccc -> blocked, stays separate.
    CodePoints in = {0x65, 0x0301, 0x0301};
    CodePoints out = nfc(in);
    EXPECT_EQ(out, cps({0x00E9, 0x0301}));
}

TEST(Nfc, HangulComposesLvt) {
    CodePoints in = {0x1100, 0x1161, 0x11A8};
    CodePoints out = nfc(in);
    EXPECT_EQ(out, cps({0xAC01}));
}

TEST(Nfc, HangulRoundTrip) {
    for (CodePoint s : {0xAC00u, 0xB098u, 0xD7A3u}) {
        CodePoints in = {s};
        EXPECT_EQ(nfc(nfd(in)), in) << s;
    }
}

TEST(Nfc, CyrillicYo) {
    CodePoints in = {0x0415, 0x0308};  // Е + diaeresis
    EXPECT_EQ(nfc(in), cps({0x0401}));  // Ё
}

TEST(Nfc, IleDeFranceScenario) {
    // The paper's StateOrProvinceName variants: decomposed "Île" forms
    // must normalize to the composed one.
    auto composed = utf8_to_codepoints("Île-de-France");
    auto decomposed = utf8_to_codepoints("I\xCC\x82le-de-France");  // I + U+0302
    ASSERT_TRUE(composed.ok());
    ASSERT_TRUE(decomposed.ok());
    EXPECT_FALSE(is_nfc(decomposed.value()));
    EXPECT_EQ(nfc(decomposed.value()), composed.value());
}

TEST(Nfc, EmptyAndAsciiFastPath) {
    EXPECT_TRUE(nfc({}).empty());
    CodePoints ascii = {'t', 'e', 's', 't'};
    EXPECT_EQ(nfc(ascii), ascii);
}

// is_nfc answers a string wholly below U+0300 without normalizing. That
// is exact only while every such code point is a starter that is its
// own NFC, and while no pair decomposes to a second element below
// U+0300 (so no two such code points compose).
TEST(Nfc, EveryCodePointBelowU0300IsAStarterAndRoundTrips) {
    for (CodePoint cp = 0; cp < 0x0300; ++cp) {
        EXPECT_EQ(combining_class(cp), 0) << std::hex << cp;
        EXPECT_EQ(nfc({cp}), cps({cp})) << std::hex << cp;
    }
}

TEST(Decompose, NoPairHasASecondElementBelowU0300) {
    CodePoints d;
    for (CodePoint cp = 0; cp < 0x110000; ++cp) {
        d.clear();
        canonical_decompose(cp, d);
        for (size_t i = 1; i < d.size(); ++i) {
            ASSERT_GE(d[i], 0x0300u) << "U+" << std::hex << cp;
        }
    }
}

// ---- Differential oracle: composition by a scan of the table -------------
//
// compose_pair once scanned every decomposition pair for each call, and
// is_nfc always normalized. The oracle keeps that implementation. Its
// table is rebuilt from canonical_decompose: a pair cp -> (first,
// second) fully decomposes to D(first) followed by second, and `first`
// is the code point whose full decomposition is that prefix (a single
// code point, or an earlier composite such as U+03CA for U+0390).

struct LegacyPair {
    CodePoint cp;
    CodePoint first;
    CodePoint second;
};

bool is_hangul_syllable(CodePoint cp) { return cp >= 0xAC00 && cp < 0xAC00 + 11172; }

const std::vector<LegacyPair>& legacy_pairs() {
    static const std::vector<LegacyPair> pairs = [] {
        std::map<CodePoints, CodePoint> composite_of;  // full decomposition -> cp
        std::vector<std::pair<CodePoint, CodePoints>> decomposable;
        for (CodePoint cp = 0; cp < 0x110000; ++cp) {
            if (is_hangul_syllable(cp)) continue;  // composed algorithmically
            CodePoints d;
            canonical_decompose(cp, d);
            if (d.size() < 2) continue;
            composite_of.emplace(d, cp);
            decomposable.emplace_back(cp, std::move(d));
        }
        std::vector<LegacyPair> out;
        for (const auto& [cp, d] : decomposable) {
            CodePoints prefix(d.begin(), d.end() - 1);
            CodePoint first = prefix.size() == 1 ? prefix[0] : composite_of.at(prefix);
            out.push_back({cp, first, d.back()});
        }
        return out;
    }();
    return pairs;
}

CodePoint legacy_compose_pair(CodePoint starter, CodePoint combining) {
    constexpr CodePoint kSBase = 0xAC00, kLBase = 0x1100, kVBase = 0x1161, kTBase = 0x11A7;
    constexpr CodePoint kLCount = 19, kVCount = 21, kTCount = 28;
    if (starter >= kLBase && starter < kLBase + kLCount && combining >= kVBase &&
        combining < kVBase + kVCount) {
        return kSBase + ((starter - kLBase) * kVCount + (combining - kVBase)) * kTCount;
    }
    if (is_hangul_syllable(starter) && (starter - kSBase) % kTCount == 0 &&
        combining > kTBase && combining < kTBase + kTCount) {
        return starter + (combining - kTBase);
    }
    for (const LegacyPair& d : legacy_pairs()) {
        if (d.second == combining && d.first == starter) return d.cp;
    }
    return 0;
}

CodePoints legacy_nfc(const CodePoints& in) {
    CodePoints d = nfd(in);
    if (d.empty()) return d;
    CodePoints out;
    out.reserve(d.size());
    ptrdiff_t last_starter = -1;
    int prev_cc = 0;
    for (CodePoint cp : d) {
        int cc = combining_class(cp);
        if (last_starter >= 0 && (prev_cc == 0 || prev_cc < cc)) {
            if (CodePoint comp = legacy_compose_pair(out[last_starter], cp)) {
                out[last_starter] = comp;
                continue;
            }
        }
        out.push_back(cp);
        if (cc == 0) last_starter = static_cast<ptrdiff_t>(out.size()) - 1;
        prev_cc = cc;
    }
    return out;
}

bool legacy_is_nfc(const CodePoints& in) { return legacy_nfc(in) == in; }

TEST(NfcDifferential, OracleTableHoldsEveryPair) {
    // 197 pairs today; the oracle must see the table, not an empty scan.
    EXPECT_GE(legacy_pairs().size(), 190u);
    EXPECT_EQ(legacy_compose_pair(0x03CA, 0x0301), 0x0390u);
    EXPECT_EQ(compose_pair(0x03CA, 0x0301), 0x0390u);
}

TEST(NfcDifferential, SeededStringsAgreeWithTheScanningImplementation) {
    // The alphabet: ASCII, every composite and component of the table,
    // the combining marks around it, and Hangul syllables and jamo.
    std::vector<CodePoint> alphabet;
    for (CodePoint cp = 0x20; cp < 0x7F; ++cp) alphabet.push_back(cp);
    for (const LegacyPair& d : legacy_pairs()) {
        alphabet.insert(alphabet.end(), {d.cp, d.first, d.second});
    }
    for (CodePoint cp = 0x0300; cp < 0x0370; ++cp) alphabet.push_back(cp);
    for (CodePoint cp : {0x0591u, 0x05B0u, 0x064Bu, 0x0652u}) alphabet.push_back(cp);
    for (CodePoint cp = 0x1100; cp < 0x1113; ++cp) alphabet.push_back(cp);  // L
    for (CodePoint cp = 0x1161; cp < 0x1176; ++cp) alphabet.push_back(cp);  // V
    for (CodePoint cp = 0x11A8; cp < 0x11C3; ++cp) alphabet.push_back(cp);  // T
    for (CodePoint cp : {0xAC00u, 0xAC01u, 0xB098u, 0xD55Cu, 0xD7A3u}) alphabet.push_back(cp);
    std::vector<CodePoint> below;  // the quick check's domain
    for (CodePoint cp : alphabet) {
        if (cp < 0x0300) below.push_back(cp);
    }

    size_t quick_path = 0, in_nfc = 0, not_in_nfc = 0;
    uint64_t state = 7;
    auto draw = [&](size_t n) { return static_cast<size_t>((state = mix64(state)) % n); };
    for (size_t i = 0; i < 20000; ++i) {
        const std::vector<CodePoint>& from = draw(4) == 0 ? below : alphabet;
        CodePoints s(draw(10));
        for (CodePoint& cp : s) cp = from[draw(from.size())];

        const bool expect_nfc = legacy_is_nfc(s);
        ASSERT_EQ(is_nfc(s), expect_nfc) << "string " << i;
        ASSERT_EQ(nfc(s), legacy_nfc(s)) << "string " << i;
        if (std::all_of(s.begin(), s.end(), [](CodePoint cp) { return cp < 0x0300; })) {
            ++quick_path;
        }
        (expect_nfc ? in_nfc : not_in_nfc) += 1;
    }
    // Neither the quick check nor either answer of the full path is vacuous.
    EXPECT_GT(quick_path, 1000u);
    EXPECT_GT(in_nfc, 1000u);
    EXPECT_GT(not_in_nfc, 1000u);
}

}  // namespace
}  // namespace unicert::unicode
