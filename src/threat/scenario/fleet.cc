#include "threat/scenario/fleet.h"

#include <cctype>

#include "ctlog/monitor.h"
#include "threat/browser.h"
#include "threat/middlebox.h"

namespace unicert::threat::scenario {
namespace {

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

}  // namespace

DetectionMatrix build_matrix(const TrafficModel& raw) {
    TrafficModel model = resolved(raw);
    DetectionMatrix matrix;
    matrix.victims = model.victims.size();
    matrix.techniques = kTechniqueCount;
    matrix.cells.reserve(matrix.victims * kTechniqueCount);
    for (size_t v = 0; v < matrix.victims; ++v) {
        matrix.victim_caa.push_back(victim_has_caa(model, v));
        const std::string& victim = model.victims[v];
        for (AttackTechnique technique : kAllTechniques) {
            matrix.cells.push_back(
                evaluate_fleets(victim, technique, craft_attack_cert(victim, technique)));
        }
    }
    return matrix;
}

KeyTable::KeyTable() {
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
}

size_t KeyTable::intern(std::string name) {
    names_.push_back(std::move(name));
    return names_.size() - 1;
}

void observe(const HandshakeSample& sample, const DetectionMatrix& matrix,
             const KeyTable& keys, Tally& tally) {
    if (tally.size() < keys.size()) tally.resize(keys.size(), 0);
    if (!sample.adversarial) {
        ++tally[keys.users_benign];
        if (sample.idn) ++tally[keys.benign_idn];
        return;
    }
    ++tally[keys.users_adversarial];
    const size_t t_index = static_cast<size_t>(sample.technique);  // see kAllTechniques
    ++tally[keys.technique[t_index]];
    const FleetVerdicts& cell = matrix.cell(sample.victim, t_index);

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
}

}  // namespace unicert::threat::scenario
