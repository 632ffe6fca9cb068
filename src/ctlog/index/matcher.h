// unicert/ctlog/index/matcher.h
//
// The single semantic core behind every Table 6 monitor capability:
// key derivation (which searchable strings a certificate contributes,
// per profile), query input validation (Unicode/Punycode/U-label
// refusals), the exact-vs-fuzzy match predicate, and the lookup over
// one profile's index. Monitor, the query service's index rung and its
// scan paths all route through these functions, so they can never
// drift — the scan-vs-index parity suite asserts byte-identical answers
// and this module is why that property is structural rather than
// coincidental.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ctlog/index/format.h"
#include "ctlog/monitor.h"
#include "x509/certificate.h"

namespace unicert::ctlog::index {

// ---- match predicate -------------------------------------------------------

// ASCII-only case folding, the folding every Table 6 monitor applies.
std::string ascii_fold(std::string_view s);

// Fold a query or key per the profile's case rules.
std::string fold(const MonitorCapabilities& caps, std::string_view s);

// The one fuzzy/exact predicate (previously duplicated between
// Monitor::raise_alerts_for and Monitor::query). `key` and `needle`
// must already be folded by `fold`.
bool key_matches(const MonitorCapabilities& caps, std::string_view key,
                 std::string_view needle) noexcept;

// True when any key of an (un-hidden) record matches.
bool any_key_matches(const MonitorCapabilities& caps, const std::vector<std::string>& keys,
                     std::string_view needle) noexcept;

// ---- key derivation --------------------------------------------------------

// Which certificate field contributed a key / carries special Unicode.
// Bits of DerivedRecord::class_mask; also the per-field Unicode-class
// posting lists in the persistent index.
enum FieldClass : uint8_t {
    kFieldCn = 1u << 0,       // subject CN
    kFieldSan = 1u << 1,      // SAN dNSName / iPAddress
    kFieldAttr = 1u << 2,     // subject O / OU / emailAddress
    kFieldPunycode = 1u << 3, // some key contains an xn-- label
};

// Everything a profile derives from one certificate at indexing time.
struct DerivedRecord {
    std::vector<std::string> keys;  // searchable keys, already folded
    bool hidden = false;            // P1.4: unreachable via any query
    uint8_t class_mask = 0;         // FieldClass bits with special Unicode
    uint8_t field_mask = 0;         // FieldClass bits that contributed keys
};

// Derive the searchable keys for `cert` under `caps` — the exact
// semantics Monitor::index has always applied (CN quirks, SAN names,
// subject attributes, special-Unicode hiding).
DerivedRecord derive_record(const MonitorCapabilities& caps, const x509::Certificate& cert);

// The record a profile's index holds for `cert`: derive_record's keys,
// hidden bit and masks.
IndexedRecord index_record(const MonitorCapabilities& caps, const x509::Certificate& cert);

// ---- index lookup ----------------------------------------------------------

// Ascending ids of the records in `profile` (posted for `caps`) whose
// keys match `needle` (already folded by `fold`) under `caps`. Hidden
// and excluded records never match.
std::vector<size_t> lookup(const ProfileIndex& profile, const MonitorCapabilities& caps,
                           std::string_view needle);

// ---- query validation ------------------------------------------------------

// Why a query was refused before any record was consulted.
struct QueryRejection {
    std::string reason;
};

// Input validation for a query pattern under `caps`: Unicode refusal,
// Punycode/ccTLD support, and per-label U-label validation. nullopt
// means the query proceeds to matching.
std::optional<QueryRejection> validate_query(const MonitorCapabilities& caps,
                                             std::string_view pattern);

}  // namespace unicert::ctlog::index
