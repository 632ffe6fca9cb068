#include "threat/forgery.h"

#include <algorithm>

#include "asn1/time.h"
#include "ctlog/monitor.h"
#include "threat/browser.h"
#include "threat/middlebox.h"
#include "x509/builder.h"
#include "x509/extensions.h"
#include "x509/general_name.h"
#include "x509/name.h"

namespace unicert::threat {
namespace {

namespace oids = asn1::oids;
using x509::Certificate;
using x509::make_attribute;
using x509::make_dn;

constexpr char kCompromisedCa[] = "Compromised CA";
constexpr char kRlo[] = "\xE2\x80\xAE";   // U+202E RIGHT-TO-LEFT OVERRIDE
constexpr char kPdf[] = "\xE2\x80\xAC";   // U+202C POP DIRECTIONAL FORMATTING
constexpr char kZwsp[] = "\xE2\x80\x8B";  // U+200B ZERO WIDTH SPACE

// The one base certificate: a 90-day leaf for `cn`, issued by the
// compromised CA.
Certificate base_cert(const std::string& cn) {
    Certificate cert;
    cert.version = 2;
    cert.serial = {0x66};
    cert.subject = make_dn({make_attribute(oids::common_name(), cn)});
    cert.issuer = make_dn({make_attribute(oids::organization_name(), kCompromisedCa)});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(cn).public_key();
    return cert;
}

// A base certificate whose subject carries two CNs, in order.
Certificate duplicate_cn_cert(const std::string& first, const std::string& second) {
    Certificate cert = base_cert(first);
    cert.subject = make_dn({
        make_attribute(oids::common_name(), first),
        make_attribute(oids::common_name(), second),
    });
    return cert;
}

// Full-script Cyrillic lookalike of an ASCII label: every mappable
// Latin letter replaced by its confusable Cyrillic counterpart.
std::string cyrillic_lookalike(std::string_view ascii) {
    std::string out;
    out.reserve(ascii.size() * 2);
    for (char c : ascii) {
        switch (c) {
            case 'a': out += "\xD0\xB0"; break;  // а
            case 'c': out += "\xD1\x81"; break;  // с
            case 'e': out += "\xD0\xB5"; break;  // е
            case 'i': out += "\xD1\x96"; break;  // і
            case 'o': out += "\xD0\xBE"; break;  // о
            case 'p': out += "\xD1\x80"; break;  // р
            case 'x': out += "\xD1\x85"; break;  // х
            case 'y': out += "\xD1\x83"; break;  // у
            default: out += c; break;
        }
    }
    return out;
}

// `name` split at its first dot: "paypal" and ".com"; a dotless name
// is all first label.
std::string first_label(const std::string& name) {
    return name.substr(0, name.find('.'));
}

std::string after_first_label(const std::string& name) {
    return name.substr(first_label(name).size());
}

// Every technique but the attacker-registered lookalikes mangles the
// target's own name; the victim's CAA record has no authority over
// someone else's domain.
bool technique_caa_applicable(AttackTechnique t) noexcept {
    return t != AttackTechnique::kBidiSpoof && t != AttackTechnique::kHomograph;
}

// The display-spoof target a browser rendering is compared against;
// empty for techniques that spoof nothing on screen.
std::string spoof_target(const std::string& target, AttackTechnique t) {
    switch (t) {
        case AttackTechnique::kBidiSpoof: return "www." + target;
        case AttackTechnique::kZwspCn:
        case AttackTechnique::kMidLabelZwsp:
        case AttackTechnique::kHomograph: return target;
        default: return std::string();
    }
}

}  // namespace

const char* technique_name(AttackTechnique t) noexcept {
    switch (t) {
        case AttackTechnique::kNulCn: return "nul_cn";
        case AttackTechnique::kSpaceCn: return "space_cn";
        case AttackTechnique::kZwspCn: return "zwsp_cn";
        case AttackTechnique::kSlashCn: return "slash_cn";
        case AttackTechnique::kDupCnMaliciousFirst: return "dup_cn_first";
        case AttackTechnique::kDupCnMaliciousLast: return "dup_cn_last";
        case AttackTechnique::kNonIa5San: return "non_ia5_san";
        case AttackTechnique::kBidiSpoof: return "bidi_spoof";
        case AttackTechnique::kHomograph: return "homograph";
        case AttackTechnique::kTrailingDotCn: return "trailing_dot_cn";
        case AttackTechnique::kCaseVariantCn: return "case_variant_cn";
        case AttackTechnique::kMidLabelZwsp: return "mid_label_zwsp";
    }
    return "unknown";
}

const char* technique_label(AttackTechnique t) noexcept {
    switch (t) {
        case AttackTechnique::kNulCn: return "NUL byte in CN";
        case AttackTechnique::kSpaceCn: return "space in CN";
        case AttackTechnique::kZwspCn: return "zero-width space in CN";
        case AttackTechnique::kSlashCn: return "slash suffix in CN";
        case AttackTechnique::kDupCnMaliciousFirst: return "duplicate CN, malicious first";
        case AttackTechnique::kDupCnMaliciousLast: return "duplicate CN, malicious last";
        case AttackTechnique::kNonIa5San: return "non-IA5 SAN entry";
        case AttackTechnique::kBidiSpoof: return "bidi override in CN";
        case AttackTechnique::kHomograph: return "Cyrillic homograph label";
        case AttackTechnique::kTrailingDotCn: return "trailing dot in CN";
        case AttackTechnique::kCaseVariantCn: return "case variant in CN";
        case AttackTechnique::kMidLabelZwsp: return "zero-width space inside a label";
    }
    return "unknown";
}

Certificate craft_attack_cert(const std::string& target, AttackTechnique t) {
    switch (t) {
        case AttackTechnique::kNulCn:
            return base_cert(target + '\0' + ".evil");
        case AttackTechnique::kSpaceCn:
            return base_cert(target + " ");
        case AttackTechnique::kZwspCn: {
            std::string cn = target;
            cn.insert(first_label(target).size(), kZwsp);
            return base_cert(cn);
        }
        case AttackTechnique::kSlashCn:
            return base_cert(target + "/x");
        case AttackTechnique::kDupCnMaliciousFirst:
            // Snort (first CN) sees the target name; Zeek (last) does not.
            return duplicate_cn_cert(target, "benign.example");
        case AttackTechnique::kDupCnMaliciousLast:
            return duplicate_cn_cert("benign.example", target);
        case AttackTechnique::kNonIa5San: {
            // The name rides in a non-IA5 SAN entry Zeek drops and
            // lenient clients accept as a raw U-label.
            Certificate cert = base_cert(target);
            cert.extensions.push_back(x509::make_san({x509::dns_name("münchen." + target)}));
            return cert;
        }
        case AttackTechnique::kBidiSpoof: {
            // "www.<RLO>lapyap<PDF>.com" displays as "www.paypal.com".
            std::string label = first_label(target);
            std::reverse(label.begin(), label.end());
            return base_cert(std::string("www.") + kRlo + label + kPdf +
                             after_first_label(target));
        }
        case AttackTechnique::kHomograph:
            return base_cert(cyrillic_lookalike(first_label(target)) +
                             after_first_label(target));
        case AttackTechnique::kTrailingDotCn:
            return base_cert(target + ".");
        case AttackTechnique::kCaseVariantCn: {
            std::string cn = target;
            for (char& c : cn) {
                if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 0x20);
            }
            return base_cert(cn);
        }
        case AttackTechnique::kMidLabelZwsp: {
            // "pay<ZWSP>pal.com": invisible in every browser.
            std::string cn = target;
            cn.insert(first_label(target).size() / 2, kZwsp);
            return base_cert(cn);
        }
    }
    return base_cert(target);
}

const crypto::SimSigner& compromised_ca() {
    static const crypto::SimSigner ca = crypto::SimSigner::from_name(kCompromisedCa);
    return ca;
}

std::string crafted_cn(const Certificate& cert) {
    const x509::AttributeValue* cn = cert.subject.find_first(oids::common_name());
    return cn == nullptr ? std::string() : cn->to_utf8_lossy();
}

FleetVerdicts evaluate_fleets(const std::string& target, AttackTechnique t,
                              const Certificate& cert) {
    FleetVerdicts verdicts;
    for (Middlebox mb : kAllMiddleboxes) {
        verdicts.mb_flagged.push_back(blocklist_matches(mb, cert, target));
    }
    for (HttpClient client : kAllClients) {
        bool accepted = true;
        for (const x509::GeneralName& gn : cert.subject_alt_names()) {
            if (gn.type == x509::GeneralNameType::kDnsName) {
                accepted = accepted && validate_san_entry(client, gn).accepted;
            }
        }
        verdicts.client_accepted.push_back(accepted);
    }
    const std::string spoof = spoof_target(target, t);
    const std::string crafted = crafted_cn(cert);
    for (Browser b : kAllBrowsers) {
        bool spoofed = false;
        if (t == AttackTechnique::kHomograph) {
            // Table 14: no engine detects single-script lookalikes; the
            // spoof is policy-level, not a rendering collision.
            spoofed = !browser_policy(b).detects_homographs;
        } else if (!spoof.empty()) {
            spoofed = can_spoof(b, crafted, spoof);
        }
        verdicts.browser_spoofed.push_back(spoofed);
    }
    // The compromised CA logs every forgery honestly: CT subverts
    // discoverability, not logging.
    for (const ctlog::MonitorProfile& profile : ctlog::monitor_profiles()) {
        ctlog::Monitor monitor(profile);
        size_t id = monitor.index(cert);
        verdicts.monitor_concealed.push_back(!monitor.would_find(target, id));
    }
    verdicts.caa_applicable = technique_caa_applicable(t);
    return verdicts;
}

}  // namespace unicert::threat
