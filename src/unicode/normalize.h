// unicert/unicode/normalize.h
//
// Unicode Normalization Form C (UAX #15) over the script repertoire the
// paper's measurements exercise: Latin (Latin-1 Supplement + Latin
// Extended-A), Greek, Cyrillic precomposed characters, and the full
// algorithmic Hangul syllable composition. RFC 5280 requires UTF8String
// attribute values to be NFC ("attribute normalization", Table 10 of
// the paper); the T2 lints use is_nfc() to detect violations.
//
// Scope note (documented substitution): the canonical data tables cover
// the ranges above rather than the entire UCD. Characters without an
// entry are treated as already-composed starters, which is correct for
// every code point that has no canonical decomposition and conservative
// (never falsely reports "not NFC") elsewhere.
#pragma once

#include "unicode/codepoint.h"

namespace unicert::unicode {

// Canonical combining class (ccc); 0 for starters.
int combining_class(CodePoint cp) noexcept;

// Full canonical decomposition (NFD) of one code point, recursively
// expanded, appended to `out`. Appends `cp` itself when no mapping.
void canonical_decompose(CodePoint cp, CodePoints& out);

// Primary composite for a starter + combining pair, or 0 if none.
CodePoint compose_pair(CodePoint starter, CodePoint combining) noexcept;

// Normalization Form D: decompose + canonical ordering.
CodePoints nfd(const CodePoints& in);

// Normalization Form C: nfd() + canonical composition.
CodePoints nfc(const CodePoints& in);

// True when `in` is already in NFC (i.e. nfc(in) == in). A string
// wholly below U+0300 answers without normalizing.
bool is_nfc(const CodePoints& in);

}  // namespace unicert::unicode
