#include "threat/scenarios.h"

#include <algorithm>
#include <iterator>

#include "ctlog/monitor.h"
#include "idna/labels.h"
#include "unicode/properties.h"
#include "threat/browser.h"
#include "threat/forgery.h"
#include "threat/middlebox.h"
#include "tlslib/profile.h"
#include "x509/general_name.h"

namespace unicert::threat {

std::vector<MonitorMisleadingResult> run_monitor_misleading(const std::string& victim_domain) {
    // The CN shapes of the Section 6.1 experiment.
    constexpr AttackTechnique kTricks[] = {AttackTechnique::kNulCn, AttackTechnique::kSpaceCn,
                                           AttackTechnique::kZwspCn, AttackTechnique::kSlashCn};
    std::vector<FleetVerdicts> verdicts;
    for (AttackTechnique t : kTricks) {
        verdicts.push_back(
            evaluate_fleets(victim_domain, t, craft_attack_cert(victim_domain, t)));
    }

    std::vector<MonitorMisleadingResult> results;
    std::span<const ctlog::MonitorProfile> profiles = ctlog::monitor_profiles();
    for (size_t m = 0; m < profiles.size(); ++m) {
        for (size_t i = 0; i < std::size(kTricks); ++i) {
            MonitorMisleadingResult r;
            r.monitor = profiles[m].name;
            r.technique = technique_label(kTricks[i]);
            // The owner queries their own domain name.
            r.concealed = verdicts[i].monitor_concealed[m];
            results.push_back(std::move(r));
        }
    }
    return results;
}

std::vector<ObfuscationResult> run_traffic_obfuscation() {
    // --- P2.1: middlebox blocklist evasion -----------------------------
    const std::string blocked = "Evil Entity";
    constexpr AttackTechnique kTricks[] = {
        AttackTechnique::kNulCn,
        AttackTechnique::kTrailingDotCn,
        AttackTechnique::kCaseVariantCn,  // bypasses Suricata's case-sensitive match only
        AttackTechnique::kDupCnMaliciousLast,
        AttackTechnique::kDupCnMaliciousFirst,
        AttackTechnique::kNonIa5San,
    };
    std::vector<x509::Certificate> certs;
    std::vector<FleetVerdicts> verdicts;
    for (AttackTechnique t : kTricks) {
        certs.push_back(craft_attack_cert(blocked, t));
        verdicts.push_back(evaluate_fleets(blocked, t, certs.back()));
    }

    std::vector<ObfuscationResult> results;
    for (size_t m = 0; m < kAllMiddleboxes.size(); ++m) {
        for (size_t i = 0; i < std::size(kTricks); ++i) {
            ObfuscationResult r;
            r.component = middlebox_name(kAllMiddleboxes[m]);
            r.technique = technique_label(kTricks[i]);
            if (kTricks[i] == AttackTechnique::kNonIa5San) {
                // Evaded when the malicious SAN never reaches the rule set.
                r.evaded = extract_entities(kAllMiddleboxes[m], certs[i]).san_dns.empty();
            } else {
                r.evaded = !verdicts[i].mb_flagged[m];
            }
            results.push_back(std::move(r));
        }
    }

    // --- P2.2: client SAN format leniency, on the same U-label SAN ------
    const FleetVerdicts& ulabel_san = verdicts.back();
    for (size_t c = 0; c < kAllClients.size(); ++c) {
        ObfuscationResult r;
        r.component = http_client_name(kAllClients[c]);
        r.technique = "U-label SAN accepted without Punycode validation";
        r.evaded = ulabel_san.client_accepted[c];
        results.push_back(std::move(r));
    }
    return results;
}

CrlSpoofResult run_crl_spoof() {
    CrlSpoofResult result;
    result.crafted_url = std::string("http://ssl\x01test.com/revoked.crl", 31);

    x509::GeneralName gn = x509::uri_name(result.crafted_url);
    tlslib::ParseOutcome parsed =
        tlslib::parse_general_name(tlslib::Library::kPyOpenSsl, gn,
                                   tlslib::FieldContext::kCrlDp);
    result.parsed_url = parsed.ok ? parsed.value_utf8 : "";
    result.redirected = parsed.ok && result.parsed_url != result.crafted_url;
    return result;
}

std::vector<SanForgeryResult> run_san_forgery() {
    std::vector<SanForgeryResult> results;
    x509::GeneralNames names = {x509::dns_name("a.com, DNS:b.com")};
    for (tlslib::Library lib : tlslib::kAllLibraries) {
        SanForgeryResult r;
        r.library = tlslib::library_name(lib);
        tlslib::ParseOutcome out = tlslib::format_san(lib, names);
        if (!out.ok) {
            r.rendered = "(structured output)";
            r.forged = false;
        } else {
            r.rendered = out.value_utf8;
            size_t pos = r.rendered.find(", DNS:b.com");
            r.forged = pos != std::string::npos && (pos == 0 || r.rendered[pos - 1] != '\\');
        }
        results.push_back(std::move(r));
    }
    return results;
}

std::vector<UserSpoofResult> run_user_spoofing() {
    // Figure 7's "www.<RLO>lapyap<PDF>.com", which displays as
    // "www.paypal.com", and "pay<ZWSP>pal.com", invisible in every
    // browser.
    const std::string target = "paypal.com";
    std::vector<UserSpoofResult> results;
    for (AttackTechnique t : {AttackTechnique::kBidiSpoof, AttackTechnique::kMidLabelZwsp}) {
        x509::Certificate cert = craft_attack_cert(target, t);
        FleetVerdicts verdicts = evaluate_fleets(target, t, cert);
        std::string crafted = crafted_cn(cert);
        for (size_t b = 0; b < kAllBrowsers.size(); ++b) {
            UserSpoofResult r;
            r.browser = browser_name(kAllBrowsers[b]);
            r.crafted_value = crafted;
            r.displayed = render_for_display(kAllBrowsers[b], crafted);
            r.spoof_success = verdicts.browser_spoofed[b];
            results.push_back(std::move(r));
        }
    }
    return results;
}

std::vector<HomographResult> run_homograph_study() {
    // Cyrillic lookalikes with every letter PVALID: paypal and apple
    // keep a Latin 'l' (mixed script, detectable); epic is fully
    // Cyrillic, the class IDNA cannot refuse and monitors accept.
    std::vector<HomographResult> results;
    for (const char* target : {"paypal.com", "apple.com", "epic.com"}) {
        x509::Certificate cert = craft_attack_cert(target, AttackTechnique::kHomograph);
        FleetVerdicts verdicts = evaluate_fleets(target, AttackTechnique::kHomograph, cert);
        HomographResult r;
        r.target_domain = target;
        r.homograph_ulabel = crafted_cn(cert);

        std::string label = r.homograph_ulabel.substr(0, r.homograph_ulabel.find('.'));
        auto cps = unicode::utf8_to_codepoints(label);
        if (!cps.ok()) continue;

        // Registrability: U-label -> A-label conversion with IDNA checks.
        auto a_label = idna::to_a_label(cps.value());
        r.idna_valid = a_label.ok();
        if (a_label.ok()) {
            r.homograph_alabel = a_label.value() + r.homograph_ulabel.substr(label.size());
        }

        // Visual collision with the target's first label.
        std::string target_label = r.target_domain.substr(0, r.target_domain.find('.'));
        auto target_cps = unicode::utf8_to_codepoints(target_label);
        r.skeleton_collision =
            target_cps.ok() && unicode::are_confusable(cps.value(), target_cps.value());

        // Monitor surface: would the A-label query be accepted (P1.3)?
        if (!r.homograph_alabel.empty()) {
            for (const ctlog::MonitorProfile& profile : ctlog::monitor_profiles()) {
                ctlog::Monitor monitor(profile);
                if (monitor.query(r.homograph_alabel).query_accepted) {
                    ++r.monitors_accepting_query;
                }
            }
        }

        // Browser surface: engines without homograph detection (all of
        // them, per Table 14) render the lookalike undisturbed.
        r.browsers_vulnerable = static_cast<size_t>(std::count(
            verdicts.browser_spoofed.begin(), verdicts.browser_spoofed.end(), true));
        results.push_back(std::move(r));
    }
    return results;
}

}  // namespace unicert::threat
