#include "ctlog/index/matcher.h"

#include <algorithm>

#include "asn1/oid.h"
#include "idna/labels.h"
#include "unicode/properties.h"

namespace unicert::ctlog::index {
namespace {

bool has_special_unicode(std::string_view s) {
    return unicode::has_non_printable_ascii(s);
}

bool is_ascii_only(std::string_view s) {
    return std::all_of(s.begin(), s.end(),
                       [](char c) { return static_cast<unsigned char>(c) < 0x80; });
}

bool contains_xn_label(std::string_view host) {
    return host.find("xn--") != std::string_view::npos;
}

// ccTLD heuristic: the last label is a Punycode TLD.
bool has_punycode_cctld(std::string_view host) {
    size_t dot = host.rfind('.');
    std::string_view tld = dot == std::string_view::npos ? host : host.substr(dot + 1);
    return tld.starts_with("xn--");
}

}  // namespace

std::string ascii_fold(std::string_view s) {
    std::string out(s);
    for (char& c : out) {
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + 0x20);
    }
    return out;
}

std::string fold(const MonitorCapabilities& caps, std::string_view s) {
    return caps.case_insensitive ? ascii_fold(s) : std::string(s);
}

bool key_matches(const MonitorCapabilities& caps, std::string_view key,
                 std::string_view needle) noexcept {
    return caps.fuzzy_search ? key.find(needle) != std::string_view::npos : key == needle;
}

bool any_key_matches(const MonitorCapabilities& caps, const std::vector<std::string>& keys,
                     std::string_view needle) noexcept {
    for (const std::string& key : keys) {
        if (key_matches(caps, key, needle)) return true;
    }
    return false;
}

DerivedRecord derive_record(const MonitorCapabilities& caps, const x509::Certificate& cert) {
    DerivedRecord record;
    bool suppressed = false;  // some key vanished under P1.4

    auto add_key = [&](std::string value, FieldClass field) {
        if (value.empty()) return;
        if (has_special_unicode(value)) {
            record.class_mask |= field;
            if (!caps.returns_special_unicode) {
                // This monitor cannot surface certs with special Unicode
                // in searchable fields (P1.4): the key is dropped, and a
                // record left with no keys becomes unreachable entirely.
                suppressed = true;
                return;
            }
        }
        if (contains_xn_label(value)) record.field_mask |= kFieldPunycode;
        record.field_mask |= field;
        record.keys.push_back(caps.case_insensitive ? ascii_fold(value) : std::move(value));
    };

    // CN handling, with SSLMate's quirks.
    for (const x509::AttributeValue* cn : cert.subject_common_names()) {
        std::string value = cn->to_utf8_lossy();
        if (caps.cn_ignored_if_space && value.find(' ') != std::string::npos) continue;
        if (caps.cn_substring_before_slash) {
            if (size_t slash = value.find('/'); slash != std::string::npos) {
                value = value.substr(0, slash);
            }
        }
        add_key(std::move(value), kFieldCn);
    }

    // SAN DNSNames (all monitors) and IPs (crt.sh/SSLMate — harmless to
    // include generally).
    for (const x509::GeneralName& gn : cert.subject_alt_names()) {
        if (gn.type == x509::GeneralNameType::kDnsName ||
            gn.type == x509::GeneralNameType::kIpAddress) {
            add_key(gn.to_utf8_lossy(), kFieldSan);
        }
    }

    // Subject O / OU / emailAddress for monitors that index them.
    if (caps.searches_subject_attrs) {
        for (const asn1::Oid* oid :
             {&asn1::oids::organization_name(), &asn1::oids::organizational_unit_name(),
              &asn1::oids::email_address()}) {
            for (const x509::AttributeValue* av : cert.subject.find_all(*oid)) {
                add_key(av->to_utf8_lossy(), kFieldAttr);
            }
        }
    }
    record.hidden = suppressed && record.keys.empty();
    return record;
}

IndexedRecord index_record(const MonitorCapabilities& caps, const x509::Certificate& cert) {
    DerivedRecord derived = derive_record(caps, cert);
    IndexedRecord record;
    record.keys = std::move(derived.keys);
    record.hidden = derived.hidden;
    record.class_mask = derived.class_mask;
    record.field_mask = derived.field_mask;
    return record;
}

std::vector<size_t> lookup(const ProfileIndex& profile, const MonitorCapabilities& caps,
                           std::string_view needle) {
    std::vector<size_t> out;
    if (!caps.fuzzy_search) {
        for (uint32_t id : profile.exact.find(exact_key_hash(needle))) {
            if (any_key_matches(caps, profile.records[id].keys, needle)) out.push_back(id);
        }
        return out;
    }
    if (needle.size() < 3) {
        // Too short for trigram pruning: verify over every record with
        // at least one key (an empty fuzzy needle matches all of them).
        for (uint32_t id : profile.searchable_ids) {
            if (any_key_matches(caps, profile.records[id].keys, needle)) out.push_back(id);
        }
        return out;
    }
    // A key containing the needle contains every trigram of the needle,
    // so any trigram's posting list is a complete candidate set; verify
    // the smallest one.
    std::span<const uint32_t> smallest;
    for (size_t i = 0; i + 3 <= needle.size(); ++i) {
        std::span<const uint32_t> ids = profile.trigrams.find(pack_trigram(needle, i));
        if (ids.empty()) return out;
        if (i == 0 || ids.size() < smallest.size()) smallest = ids;
    }
    for (uint32_t id : smallest) {
        if (any_key_matches(caps, profile.records[id].keys, needle)) out.push_back(id);
    }
    return out;
}

std::optional<QueryRejection> validate_query(const MonitorCapabilities& caps,
                                             std::string_view pattern) {
    if (!is_ascii_only(pattern) && !caps.unicode_search) {
        return QueryRejection{"Unicode queries not supported"};
    }
    if (contains_xn_label(pattern)) {
        if (!caps.punycode_idn) {
            return QueryRejection{"Punycode queries not supported"};
        }
        if (!caps.punycode_idn_cctld && has_punycode_cctld(pattern)) {
            return QueryRejection{"Punycode ccTLDs not supported"};
        }
        if (caps.ulabel_check) {
            // Validate every xn-- label; deceptive IDNs are refused
            // (SSLMate / Facebook behaviour in P1.3).
            std::string host(pattern);
            size_t start = 0;
            while (start <= host.size()) {
                size_t dot = host.find('.', start);
                std::string label = host.substr(
                    start, dot == std::string::npos ? std::string::npos : dot - start);
                if (idna::looks_like_a_label(label) && !idna::check_label(label).ok()) {
                    return QueryRejection{"IDN label fails U-label validation: " + label};
                }
                if (dot == std::string::npos) break;
                start = dot + 1;
            }
        }
    }
    return std::nullopt;
}

}  // namespace unicert::ctlog::index
