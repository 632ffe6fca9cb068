#include "threat/scenario/traffic.h"

#include "common/splitmix.h"
#include "ctlog/corpus.h"

namespace unicert::threat::scenario {
namespace {

const std::vector<double>& issuer_weights() {
    static const std::vector<double> weights = [] {
        std::vector<double> w;
        for (const ctlog::IssuerSpec& spec : ctlog::issuer_specs()) {
            w.push_back(spec.unicert_weight);
        }
        return w;
    }();
    return weights;
}

}  // namespace

const std::vector<std::string>& default_victims() {
    static const std::vector<std::string> victims = {
        "paypal.com",      "apple.com",        "epic.com",
        "amazon.example",  "bank.example",     "login.example",
        "secure-pay.example", "munich.example", "victim.example",
        "shop.example",    "mail.example",     "news.example",
        "cloud.example",   "pay.example",      "id.example",
        "health.example",
    };
    return victims;
}

TrafficModel resolved(TrafficModel model) {
    if (model.victims.empty()) model.victims = default_victims();
    return model;
}

HandshakeSample synthesize_handshake(const TrafficModel& model, uint64_t user_index) {
    HandshakeSample sample;
    sample.user_index = user_index;
    ctlog::Rng rng(mix64(model.seed ^ mix64(user_index + 0x5EEDF00DULL)));
    sample.adversarial = rng.chance(model.dose);
    if (sample.adversarial) {
        sample.victim = static_cast<size_t>(rng.below(model.victims.size()));
        sample.technique = kAllTechniques[static_cast<size_t>(rng.below(kTechniqueCount))];
        return sample;
    }
    sample.issuer = rng.pick_weighted(issuer_weights());
    // Internationalized content per the Figure 4 marginal; DV-automation
    // issuers (idn_only) always serve IDN certificates.
    sample.idn = ctlog::issuer_specs()[sample.issuer].idn_only || rng.chance(0.12);
    return sample;
}

bool victim_has_caa(const TrafficModel& model, size_t victim_index) {
    uint64_t h = mix64(model.seed ^ (0xCAA0000000000000ULL + victim_index));
    return unit_draw(h) < model.caa_adoption;
}

}  // namespace unicert::threat::scenario
