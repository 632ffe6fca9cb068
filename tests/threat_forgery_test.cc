// Tests for the Section 6 forgery catalogue: every technique crafts a
// certificate for any target, and the one-shot variants craft the
// payloads the paper describes.
#include "threat/forgery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "ctlog/monitor.h"
#include "threat/browser.h"
#include "threat/middlebox.h"
#include "threat/scenarios.h"

namespace unicert::threat {
namespace {

constexpr AttackTechnique kVariants[] = {AttackTechnique::kTrailingDotCn,
                                         AttackTechnique::kCaseVariantCn,
                                         AttackTechnique::kMidLabelZwsp};

std::vector<AttackTechnique> catalogue() {
    std::vector<AttackTechnique> all(kAllTechniques.begin(), kAllTechniques.end());
    all.insert(all.end(), std::begin(kVariants), std::end(kVariants));
    return all;
}

// A dotless target such as "localhost" has no first-label boundary to
// insert at; every technique must still craft and evaluate.
TEST(ForgeryCatalogue, EveryTechniqueCraftsForADotlessTarget) {
    for (AttackTechnique t : catalogue()) {
        x509::Certificate cert = craft_attack_cert("localhost", t);
        EXPECT_FALSE(crafted_cn(cert).empty()) << technique_name(t);
        FleetVerdicts verdicts = evaluate_fleets("localhost", t, cert);
        EXPECT_EQ(verdicts.mb_flagged.size(), kAllMiddleboxes.size()) << technique_name(t);
        EXPECT_EQ(verdicts.client_accepted.size(), kAllClients.size()) << technique_name(t);
        EXPECT_EQ(verdicts.browser_spoofed.size(), kAllBrowsers.size()) << technique_name(t);
        EXPECT_EQ(verdicts.monitor_concealed.size(), ctlog::monitor_profiles().size())
            << technique_name(t);
    }
    EXPECT_EQ(crafted_cn(craft_attack_cert("localhost", AttackTechnique::kZwspCn)),
              "localhost\xE2\x80\x8B");
}

TEST(ForgeryCatalogue, MonitorMisleadingOnADotlessVictim) {
    EXPECT_EQ(run_monitor_misleading("localhost").size(), 20u);
}

// The engine's traffic draws an index into kAllTechniques, so the
// one-shot variants must stay out of it.
TEST(ForgeryCatalogue, VariantsStayOutOfTheEngineDraw) {
    for (AttackTechnique t : kVariants) {
        EXPECT_EQ(std::find(kAllTechniques.begin(), kAllTechniques.end(), t),
                  kAllTechniques.end())
            << technique_name(t);
    }
}

TEST(ForgeryCatalogue, OneShotPayloads) {
    auto cn = [](const std::string& target, AttackTechnique t) {
        return crafted_cn(craft_attack_cert(target, t));
    };
    // P2.1 blocklist variants of "Evil Entity".
    EXPECT_EQ(cn("Evil Entity", AttackTechnique::kTrailingDotCn), "Evil Entity.");
    EXPECT_EQ(cn("Evil Entity", AttackTechnique::kCaseVariantCn), "EVIL ENTITY");
    // Figure 7's bidi payload, and the zero-width space before the dot
    // (monitor concealment) versus inside the label (F.1).
    EXPECT_EQ(cn("paypal.com", AttackTechnique::kBidiSpoof),
              "www.\xE2\x80\xAElapyap\xE2\x80\xAC.com");
    EXPECT_EQ(cn("paypal.com", AttackTechnique::kZwspCn), "paypal\xE2\x80\x8B.com");
    EXPECT_EQ(cn("paypal.com", AttackTechnique::kMidLabelZwsp), "pay\xE2\x80\x8Bpal.com");
}

}  // namespace
}  // namespace unicert::threat
