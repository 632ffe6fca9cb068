// unicert/threat/scenario/traffic.h
//
// The population traffic model behind the scenario engine: mixed
// TLS-handshake traffic for millions of simulated users, synthesized as
// a pure function of (seed, user_index) over the CorpusGenerator
// marginals plus a configurable adversarial Unicert injection rate (the
// "dose"). Nothing is materialized — a crashed run replays any user it
// was processing by hashing the same indexes again, which is what makes
// the checkpoint cursor (`next_user`) a complete in-flight ledger.
//
// Adversarial handshakes serve the forgeries of the §6 catalogue
// (threat/forgery.h), one kAllTechniques entry each, aimed at a victim
// domain drawn from a fixed roster; the per-victim CAA-adoption
// decision (Tehrani et al.'s Web-PKI interlink dimension) is likewise a
// pure hash of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "threat/forgery.h"

namespace unicert::threat::scenario {

struct TrafficModel {
    uint64_t seed = 42;
    // Fraction of simulated users served an adversarial handshake.
    double dose = 0.01;
    // Per-victim probability of a CAA record (Web-PKI interlink study's
    // adoption marginal).
    double caa_adoption = 0.055;
    // Victim roster adversarial traffic targets. Defaults to
    // default_victims(); kept in the model so the detection matrix and
    // the per-user draws always agree.
    std::vector<std::string> victims;
};

// The fixed victim roster (brand + generic domains).
const std::vector<std::string>& default_victims();

// `model` with victims defaulted when empty.
TrafficModel resolved(TrafficModel model);

// One synthesized handshake. Pure function of (model, user_index):
// contains only draw outcomes. The forgery it serves is a pure function
// of (victim, technique), so its fleet verdicts live in the precomputed
// detection matrix, which is what keeps the per-user hot path at a few
// hash draws.
struct HandshakeSample {
    uint64_t user_index = 0;
    bool adversarial = false;
    AttackTechnique technique = AttackTechnique::kNulCn;  // valid when adversarial
    size_t victim = 0;                                    // index into model.victims
    // Benign side: issuer drawn from the Table 2 oligopoly marginal and
    // whether the cert is internationalized (the benign_idn tally).
    size_t issuer = 0;
    bool idn = false;
};

HandshakeSample synthesize_handshake(const TrafficModel& model, uint64_t user_index);

// Deterministic per-victim CAA adoption decision (pure in seed/victim).
bool victim_has_caa(const TrafficModel& model, size_t victim_index);

}  // namespace unicert::threat::scenario
