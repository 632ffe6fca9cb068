// unicert/threat/forgery.h
//
// The one catalogue of Section 6 and Appendix F attack certificates.
// Every forgery the one-shot analyses (threat/scenarios.h) and the
// population scenario engine (threat/scenario/) serve is crafted here,
// from one base certificate issued by one "Compromised CA", and every
// fleet's verdict on it (middlebox blocklists, HTTP-client SAN checks,
// browser display, CT-monitor owner queries) comes from one per-cell
// evaluation, evaluate_fleets. A forgery is a pure function of its
// (target, technique) cell, so its verdicts are too.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "crypto/simsig.h"
#include "x509/certificate.h"

namespace unicert::threat {

// The crafting techniques.
enum class AttackTechnique {
    kNulCn,                // NUL byte appended to the CN (P1.4 / P2.1)
    kSpaceCn,              // trailing space (SSLMate drops the CN)
    kZwspCn,               // zero-width space before the first dot
    kSlashCn,              // slash suffix (SSLMate substring-before-'/')
    kDupCnMaliciousFirst,  // duplicate CN dodging last-CN extractors (Zeek)
    kDupCnMaliciousLast,   // duplicate CN dodging first-CN extractors (Snort)
    kNonIa5San,            // non-IA5 SAN entry invisible to Zeek, lenient clients
    kBidiSpoof,            // RLO/PDF payload ("www.paypal.com" display spoof)
    kHomograph,            // Cyrillic full-script lookalike label
    // Variants only the one-shot runners use (P2.1, F.1). They stay out
    // of kAllTechniques, whose index the engine's traffic draws.
    kTrailingDotCn,        // trailing dot
    kCaseVariantCn,        // ASCII upper case (beats case-sensitive rules)
    kMidLabelZwsp,         // zero-width space inside the first label
};

inline constexpr size_t kTechniqueCount = 9;

// The techniques the scenario engine's traffic mixes over: the enum's
// first kTechniqueCount values, in order, so a technique's index here
// is its enum value.
inline constexpr std::array<AttackTechnique, kTechniqueCount> kAllTechniques = {
    AttackTechnique::kNulCn,               AttackTechnique::kSpaceCn,
    AttackTechnique::kZwspCn,              AttackTechnique::kSlashCn,
    AttackTechnique::kDupCnMaliciousFirst, AttackTechnique::kDupCnMaliciousLast,
    AttackTechnique::kNonIa5San,           AttackTechnique::kBidiSpoof,
    AttackTechnique::kHomograph,
};

static_assert([] {
    for (size_t i = 0; i < kTechniqueCount; ++i) {
        if (static_cast<size_t>(kAllTechniques[i]) != i) return false;
    }
    return true;
}());

// Stable snake_case key, used in tally keys and reports.
const char* technique_name(AttackTechnique t) noexcept;

// Row label of the one-shot tables ("NUL byte in CN").
const char* technique_label(AttackTechnique t) noexcept;

// The certificate `t` crafts against `target`: a victim domain, or a
// blocklisted CN such as "Evil Entity". Pure in both; unsigned.
x509::Certificate craft_attack_cert(const std::string& target, AttackTechnique t);

// The issuer of every forgery. Sign a crafted certificate with it when
// its DER is needed (a log or store entry).
const crypto::SimSigner& compromised_ca();

// The subject string a browser displays for a forgery: its first CN.
std::string crafted_cn(const x509::Certificate& cert);

// Every fleet's verdict on one forgery.
struct FleetVerdicts {
    // Per-middlebox: does a blocklist rule on the target's CN fire?
    std::vector<bool> mb_flagged;         // kAllMiddleboxes order
    // Per-client: does every SAN DNSName pass the format check?
    std::vector<bool> client_accepted;    // kAllClients order
    // Per-browser: does the crafted value display as the spoof target?
    std::vector<bool> browser_spoofed;    // kAllBrowsers order
    // Per-monitor: does the owner's query for the target MISS the
    // logged forgery?
    std::vector<bool> monitor_concealed;  // monitor_profiles() order
    // Does the forgery claim the target's own name, so that a CAA
    // record could have refused the issuance? An attacker-registered
    // lookalike is outside the victim's CAA authority.
    bool caa_applicable = false;
};

// Evaluate every fleet on `cert`, which is craft_attack_cert(target, t).
// Each monitor profile indexes the forgery alone and answers the
// owner's query for `target`.
FleetVerdicts evaluate_fleets(const std::string& target, AttackTechnique t,
                              const x509::Certificate& cert);

}  // namespace unicert::threat
