// unicert/threat/scenarios.h
//
// End-to-end threat scenario runners reproducing Section 6 and
// Appendix F.1 empirically against the behavioural substrates:
//   * CT monitor misleading (6.1): conceal a forged cert from field
//     queries while it is correctly logged.
//   * Traffic obfuscation (6.2): evade middlebox blocklists with
//     Unicode variants, duplicate-CN positioning and non-IA5 SANs.
//   * CRL spoofing (5.2-2): redirect revocation fetches through
//     PyOpenSSL's control-character rewriting.
//   * SAN subfield forgery (5.2-1): inject extra DNS entries into
//     X.509-text output.
//   * User spoofing (F.1): bidi-override warning-page deception.
// The forgeries and the fleet verdicts on them come from the catalogue
// (threat/forgery.h) the population scenario engine also reads; each
// runner here is a single-target reading of it.
#pragma once

#include <string>
#include <vector>

#include "x509/certificate.h"

namespace unicert::threat {

// ---- 6.1 CT monitor misleading ----------------------------------------------

struct MonitorMisleadingResult {
    std::string monitor;
    std::string technique;   // the crafting trick applied
    bool logged = true;      // always: the CA logs honestly
    bool concealed = false;  // the owner's query fails to surface it
};

// Forge certificates for `victim_domain` with per-technique crafted
// CNs, index each into every monitor profile, then run the query a
// domain owner would run. Rows are monitor-major, four per monitor.
std::vector<MonitorMisleadingResult> run_monitor_misleading(const std::string& victim_domain);

// ---- 6.2 traffic obfuscation ---------------------------------------------------

struct ObfuscationResult {
    std::string component;   // middlebox or client
    std::string technique;
    bool evaded = false;     // detection rule failed / bad cert accepted
};

// Middlebox blocklist evasion (P2.1) + client SAN leniency (P2.2).
std::vector<ObfuscationResult> run_traffic_obfuscation();

// ---- 5.2(2) CRL spoofing ---------------------------------------------------------

struct CrlSpoofResult {
    std::string crafted_url;   // what the CA signed
    std::string parsed_url;    // what the vulnerable client fetches
    bool redirected = false;   // they differ => revocation disabled
};

CrlSpoofResult run_crl_spoof();

// ---- 5.2(1) SAN subfield forgery ----------------------------------------------

struct SanForgeryResult {
    std::string library;
    std::string rendered;    // the X.509-text the library emits
    bool forged = false;     // a second DNS entry materialized
};

std::vector<SanForgeryResult> run_san_forgery();

// ---- F.1 user spoofing ------------------------------------------------------------

struct UserSpoofResult {
    std::string browser;
    std::string crafted_value;   // raw certificate field
    std::string displayed;       // what the user sees
    bool spoof_success = false;  // displayed equals the spoof target
};

std::vector<UserSpoofResult> run_user_spoofing();

// ---- F.1 homograph study -----------------------------------------------------

struct HomographResult {
    std::string target_domain;     // e.g. paypal.com
    std::string homograph_ulabel;  // Cyrillic/Greek lookalike (UTF-8)
    std::string homograph_alabel;  // its registrable xn-- form
    bool idna_valid = false;       // passes per-label IDNA2008 checks
    bool skeleton_collision = false;  // confusable-skeleton equality
    size_t monitors_accepting_query = 0;  // of the 5 profiles
    size_t browsers_vulnerable = 0;       // lacking homograph detection
};

// Register lookalike domains for well-known targets, check that they
// are certifiable (IDNA-valid single-script labels), and measure the
// monitoring/rendering surface (Table 14's "Homograph feasibility").
std::vector<HomographResult> run_homograph_study();

}  // namespace unicert::threat
