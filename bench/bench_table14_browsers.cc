// Reproduces Table 14: browser certificate rendering / spoofing matrix,
// plus the Figure 7/8 warning-page spoof demonstrations.
#include "bench_common.h"

#include "threat/browser.h"
#include "threat/forgery.h"
#include "threat/scenarios.h"

using namespace unicert;

namespace {

const char* vis(bool visible) { return visible ? "visible" : "invisible"; }
const char* vuln(bool vulnerable) { return vulnerable ? "vulnerable" : "ok"; }

}  // namespace

int main() {
    bench::print_header("Table 14 — Certificate visualization and spoofing in browsers",
                        "Appendix F.1, Table 14");

    core::TextTable table({"Browser", "Kernel", "C0/C1 controls", "Layout controls",
                           "Homograph", "Substitutions", "ASN.1 range check",
                           "Warning spoofable"});
    for (threat::Browser b : threat::kAllBrowsers) {
        threat::BrowserPolicy p = threat::browser_policy(b);
        table.add_row({threat::browser_name(b), threat::browser_engine(b),
                       p.marks_c0_c1 ? "marked" : "raw",
                       vis(p.layout_controls_visible),
                       vuln(!p.detects_homographs),
                       p.correct_substitutions ? "correct" : "incorrect",
                       p.asn1_range_checking ? "flawed-but-present" : "absent",
                       p.warning_page_spoofable ? "yes" : "no"});
    }
    std::fputs(table.to_string().c_str(), stdout);

    // Figure 7: the bidi-override warning page spoof.
    std::printf("\nFigure 7 reproduction (Chromium warning page):\n");
    x509::Certificate cert =
        threat::craft_attack_cert("paypal.com", threat::AttackTechnique::kBidiSpoof);
    std::printf("  raw CN bytes : www.<RLO>lapyap<PDF>.com\n");
    std::printf("  user sees    : %s\n",
                threat::warning_page_identity(threat::Browser::kChromiumFamily, cert).c_str());

    std::printf("\nUser-spoofing scenario sweep:\n");
    for (const auto& r : threat::run_user_spoofing()) {
        std::printf("  %-15s payload=%-34s displayed=%-16s spoof=%s\n", r.browser.c_str(),
                    r.crafted_value.c_str(), r.displayed.c_str(),
                    r.spoof_success ? "SUCCESS" : "no");
    }

    std::printf("\nPaper shape: layout controls invisible in every engine; homograph and "
                "substitution checks missing; Chromium-based warning pages render the "
                "crafted CN as www.paypal.com.\n");
    return 0;
}
