#include "threat/scenario/fleet.h"

#include <cctype>

#include "asn1/oid.h"
#include "ctlog/monitor.h"
#include "threat/browser.h"
#include "threat/middlebox.h"
#include "x509/general_name.h"
#include "x509/name.h"

namespace unicert::threat::scenario {
namespace {

namespace oids = asn1::oids;

// Tally-key-safe profile name: lowercase, non-alphanumerics collapsed
// to '_' ("SSLMate Spotter" -> "sslmate_spotter", "Crt.sh" -> "crt_sh").
std::string sanitize(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        out += std::isalnum(static_cast<unsigned char>(c))
                   ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
                   : '_';
    }
    return out;
}

// The SAN entry the crafted cert would serve to an HTTP client: the
// non-IA5 technique rides a raw U-label; everything else is ASCII.
x509::GeneralName client_san_entry(const std::string& victim, AttackTechnique t) {
    if (t == AttackTechnique::kNonIa5San) return x509::dns_name("münchen." + victim);
    return x509::dns_name(victim);
}

// The crafted subject string a browser would display (CN of the
// crafted cert), read back from the certificate itself so the fleet
// and the traffic model can never diverge.
std::string crafted_cn(const x509::Certificate& cert) {
    const x509::AttributeValue* cn = cert.subject.find_first(oids::common_name());
    return cn == nullptr ? std::string() : cn->to_utf8_lossy();
}

// Everything except the monitor column: pure profile-model calls.
void fill_non_monitor(const TrafficModel& model, DetectionMatrix& matrix) {
    const size_t T = kTechniqueCount;
    matrix.victims = model.victims.size();
    matrix.techniques = T;
    matrix.cells.assign(matrix.victims * T, TechniqueCell{});
    matrix.victim_caa.resize(matrix.victims);
    for (size_t v = 0; v < matrix.victims; ++v) {
        matrix.victim_caa[v] = victim_has_caa(model, v);
        const std::string& victim = model.victims[v];
        for (size_t t = 0; t < T; ++t) {
            AttackTechnique technique = kAllTechniques[t];
            TechniqueCell& cell = matrix.cells[v * T + t];
            x509::Certificate cert = craft_attack_cert(victim, technique);

            for (Middlebox mb : kAllMiddleboxes) {
                cell.mb_flagged.push_back(blocklist_matches(mb, cert, victim));
            }
            x509::GeneralName san = client_san_entry(victim, technique);
            for (HttpClient client : kAllClients) {
                cell.client_accepted.push_back(validate_san_entry(client, san).accepted);
            }
            std::string target = spoof_target(victim, technique);
            std::string crafted = crafted_cn(cert);
            for (Browser b : kAllBrowsers) {
                bool spoofed = false;
                if (technique == AttackTechnique::kHomograph) {
                    // Table 14: no engine detects single-script
                    // lookalikes; the spoof is policy-level, not a
                    // rendering collision.
                    spoofed = !browser_policy(b).detects_homographs;
                } else if (!target.empty()) {
                    spoofed = can_spoof(b, crafted, target);
                }
                cell.browser_spoofed.push_back(spoofed);
            }
            cell.caa_applicable = technique_caa_applicable(technique);
        }
    }
}

}  // namespace

DetectionMatrix build_matrix(const TrafficModel& raw) {
    TrafficModel model = resolved(raw);
    DetectionMatrix matrix;
    fill_non_monitor(model, matrix);
    const size_t T = kTechniqueCount;

    // Monitor column: each profile indexes the full forged
    // grid (the compromised CA dutifully logs everything — CT subverts
    // discoverability, not logging), then the owner queries their own
    // domain.
    for (const ctlog::MonitorProfile& profile : ctlog::monitor_profiles()) {
        ctlog::Monitor monitor(profile);
        std::vector<size_t> ids;
        ids.reserve(matrix.cells.size());
        for (size_t v = 0; v < matrix.victims; ++v) {
            for (size_t t = 0; t < T; ++t) {
                ids.push_back(
                    monitor.index(craft_attack_cert(model.victims[v], kAllTechniques[t])));
            }
        }
        for (size_t v = 0; v < matrix.victims; ++v) {
            for (size_t t = 0; t < T; ++t) {
                matrix.cells[v * T + t].monitor_concealed.push_back(
                    !monitor.would_find(model.victims[v], ids[v * T + t]));
            }
        }
    }
    return matrix;
}

KeyTable::KeyTable(const TrafficModel& raw) {
    TrafficModel model = resolved(raw);
    users_benign = intern("users_benign");
    users_adversarial = intern("users_adversarial");
    benign_idn = intern("benign_idn");
    for (AttackTechnique t : kAllTechniques) {
        technique.push_back(intern(std::string("technique_") + technique_name(t)));
    }
    for (Middlebox mb : kAllMiddleboxes) {
        mb_flagged.push_back(intern("mb_" + sanitize(middlebox_name(mb)) + "_flagged"));
    }
    mb_any_flagged = intern("mb_any_flagged");
    mb_all_evaded = intern("mb_all_evaded");
    for (HttpClient c : kAllClients) {
        client_accepted.push_back(intern("client_" + sanitize(http_client_name(c)) +
                                         "_accepted"));
    }
    for (Browser b : kAllBrowsers) {
        browser_spoofed.push_back(intern("browser_" + sanitize(browser_name(b)) +
                                         "_spoofed"));
    }
    browser_any_spoofed = intern("browser_any_spoofed");
    for (const ctlog::MonitorProfile& profile : ctlog::monitor_profiles()) {
        monitor_concealed.push_back(intern("monitor_" + sanitize(profile.name) +
                                           "_concealed"));
    }
    monitor_any_surfaced = intern("monitor_any_surfaced");
    caa_applicable = intern("caa_applicable");
    caa_flagged = intern("caa_flagged");
    joint_detected = intern("joint_detected");
    detected_any = intern("detected_any");
    (void)model;
}

size_t KeyTable::intern(std::string name) {
    names_.push_back(std::move(name));
    return names_.size() - 1;
}

void observe(const HandshakeSample& sample, const TrafficModel& model,
             const DetectionMatrix& matrix, const KeyTable& keys, Tally& tally) {
    if (tally.size() < keys.size()) tally.resize(keys.size(), 0);
    if (!sample.adversarial) {
        ++tally[keys.users_benign];
        if (sample.idn) ++tally[keys.benign_idn];
        return;
    }
    ++tally[keys.users_adversarial];
    size_t t_index = 0;
    for (size_t i = 0; i < kTechniqueCount; ++i) {
        if (kAllTechniques[i] == sample.technique) t_index = i;
    }
    ++tally[keys.technique[t_index]];
    const TechniqueCell& cell = matrix.cell(sample.victim, t_index);

    bool mb_any = false;
    for (size_t i = 0; i < cell.mb_flagged.size(); ++i) {
        if (cell.mb_flagged[i]) {
            ++tally[keys.mb_flagged[i]];
            mb_any = true;
        }
    }
    if (mb_any) {
        ++tally[keys.mb_any_flagged];
    } else {
        ++tally[keys.mb_all_evaded];
    }
    for (size_t i = 0; i < cell.client_accepted.size(); ++i) {
        if (cell.client_accepted[i]) ++tally[keys.client_accepted[i]];
    }
    bool browser_any = false;
    for (size_t i = 0; i < cell.browser_spoofed.size(); ++i) {
        if (cell.browser_spoofed[i]) {
            ++tally[keys.browser_spoofed[i]];
            browser_any = true;
        }
    }
    if (browser_any) ++tally[keys.browser_any_spoofed];

    bool surfaced_any = false;
    for (size_t i = 0; i < cell.monitor_concealed.size(); ++i) {
        if (cell.monitor_concealed[i]) {
            ++tally[keys.monitor_concealed[i]];
        } else {
            surfaced_any = true;
        }
    }
    if (surfaced_any) ++tally[keys.monitor_any_surfaced];

    bool caa_hit = false;
    if (cell.caa_applicable) {
        ++tally[keys.caa_applicable];
        if (matrix.victim_caa[sample.victim]) {
            caa_hit = true;
            ++tally[keys.caa_flagged];
        }
    }
    if (surfaced_any || caa_hit) ++tally[keys.joint_detected];
    if (surfaced_any || caa_hit || mb_any) ++tally[keys.detected_any];
    (void)model;
}

}  // namespace unicert::threat::scenario
