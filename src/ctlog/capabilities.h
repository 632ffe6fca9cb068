// unicert/ctlog/capabilities.h
//
// The Table 6 capability matrix of one CT monitor. Its own header so
// that both a Monitor (monitor.h) and an index section
// (index/format.h), which records the capabilities it was built for,
// can name it.
#pragma once

namespace unicert::ctlog {

struct MonitorCapabilities {
    bool case_insensitive = true;        // P1.1: all monitors fold case
    bool unicode_search = false;         // none accept raw Unicode queries
    bool fuzzy_search = false;           // substring matching (P1.2)
    bool ulabel_check = false;           // validates IDN legality (P1.3)
    bool punycode_idn = true;            // accepts xn-- queries
    bool punycode_idn_cctld = true;      // accepts xn-- ccTLD queries
    bool returns_special_unicode = true; // false: certs with special Unicode vanish (P1.4)
    bool searches_subject_attrs = false; // also indexes O/OU/emailAddress (crt.sh)
    bool cn_substring_before_slash = false;  // SSLMate: match stops at '/'
    bool cn_ignored_if_space = false;        // SSLMate: CN with a space dropped

    bool operator==(const MonitorCapabilities&) const = default;
};

}  // namespace unicert::ctlog
