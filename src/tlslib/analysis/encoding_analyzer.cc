#include "tlslib/analysis/encoding_analyzer.h"

#include <set>

#include "common/json_escape.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "faultsim/der_mutator.h"
#include "lint/analysis/analyzer.h"
#include "lint/rules.h"
#include "tlslib/encoding_profile.h"
#include "x509/builder.h"
#include "x509/parser.h"

namespace unicert::tlslib::analysis {
namespace {

using asn1::EncodingRule;

// The deviation lints paired with the encoding rule each one detects
// (the ground truth the kLintMismatch check compares against).
struct LintRulePair {
    const char* lint;
    EncodingRule rule;
};
constexpr LintRulePair kLintRules[] = {
    {"e_ber_long_form_length", EncodingRule::kLongFormLength},
    {"e_ber_indefinite_length", EncodingRule::kIndefiniteLength},
    {"e_ber_constructed_string", EncodingRule::kConstructedString},
    {"w_nonminimal_integer", EncodingRule::kNonMinimalInteger},
    {"e_bit_string_pad_nonzero", EncodingRule::kPaddedBitString},
};

// Outcome fields the determinism / order-independence replays compare.
struct OutcomeKey {
    bool accepted = false;
    int refused = -1;
    Bytes wire;

    bool operator==(const OutcomeKey&) const = default;
};

OutcomeKey key_of(const EncodingOutcome& o) {
    OutcomeKey k;
    k.accepted = o.accepted;
    k.refused = o.refused ? static_cast<int>(*o.refused) : -1;
    k.wire = o.wire;
    return k;
}

// Findings are deduplicated on (class, subject, rule): one probe class
// can trip the same contract hundreds of times and the gate needs one
// line per defect, not per probe.
class FindingSink {
public:
    explicit FindingSink(std::vector<EncFinding>& out) : out_(out) {}

    void add(EncCheckClass cls, std::string subject, std::string rule, std::string detail) {
        EncFinding f{cls, std::move(subject), std::move(rule), std::move(detail)};
        if (seen_.insert(baseline_line(f)).second) out_.push_back(std::move(f));
    }

private:
    std::vector<EncFinding>& out_;
    std::set<std::string> seen_;
};

// First BER rule present in `mask` that `profile` marks with `response`.
std::optional<EncodingRule> first_rule(uint32_t mask, const EncodingProfile& profile,
                                       RuleResponse response) {
    for (EncodingRule r : asn1::kAllBerRules) {
        if ((mask & asn1::encoding_rule_bit(r)) != 0 && profile.response(r) == response) {
            return r;
        }
    }
    return std::nullopt;
}

// A certificate whose keyUsage BIT STRING has 5 spare (zero) pad bits:
// generated corpora always emit unused_bits == 0, so the padded-rule
// probes need this handcrafted carrier to be derivable at all.
void add_padded_bit_string_carrier(std::vector<x509::Certificate>& certs) {
    if (certs.empty()) return;
    x509::Certificate cert = certs.front();
    // BIT STRING, length 2: 5 unused bits, value bits 101 (0xA0 with the
    // low five bits clear) — keyUsage digitalSignature|keyEncipherment.
    cert.extensions.push_back(
        x509::Extension{asn1::oids::key_usage(), true, Bytes{0x03, 0x02, 0x05, 0xA0}});
    certs.push_back(std::move(cert));
}

}  // namespace

const char* enc_check_class_name(EncCheckClass c) noexcept {
    switch (c) {
        case EncCheckClass::kDerRejected: return "der_rejected";
        case EncCheckClass::kProfileViolation: return "profile_violation";
        case EncCheckClass::kNormalizeMismatch: return "normalize_mismatch";
        case EncCheckClass::kNondeterminism: return "nondeterminism";
        case EncCheckClass::kOrderDependence: return "order_dependence";
        case EncCheckClass::kRuleUncovered: return "rule_uncovered";
        case EncCheckClass::kLintMismatch: return "lint_mismatch";
        case EncCheckClass::kRuleDefect: return "rule_defect";
    }
    return "?";
}

std::vector<DeviationProbe> EncodingAnalyzer::build_corpus(
    const EncodingAnalyzerOptions& options) {
    ctlog::CorpusOptions copts;
    copts.seed = options.seed;
    copts.scale = options.corpus_scale;
    ctlog::CorpusGenerator gen(copts);
    std::vector<ctlog::CorpusCert> corpus = gen.generate();

    std::vector<x509::Certificate> bases;
    bases.reserve(corpus.size() + 1);
    for (ctlog::CorpusCert& cc : corpus) bases.push_back(std::move(cc.cert));
    add_padded_bit_string_carrier(bases);

    crypto::SimSigner signer = crypto::SimSigner::from_name("Enccheck CA");
    faultsim::DerMutator mutator(options.seed);

    std::vector<DeviationProbe> probes;
    probes.reserve(bases.size() * (1 + std::size(asn1::kAllBerRules) *
                                           options.variants_per_rule));
    for (size_t i = 0; i < bases.size(); ++i) {
        Bytes origin = x509::sign_certificate(bases[i], signer);

        DeviationProbe control;
        control.der = origin;
        control.origin = origin;
        probes.push_back(std::move(control));

        for (size_t ri = 0; ri < std::size(asn1::kAllBerRules); ++ri) {
            EncodingRule rule = asn1::kAllBerRules[ri];
            for (size_t v = 0; v < options.variants_per_rule; ++v) {
                uint64_t salt = (static_cast<uint64_t>(i) << 16) | (ri << 8) | v;
                auto mutated = mutator.berize(rule, origin, salt);
                if (!mutated) break;  // no eligible site for this rule
                auto scan = asn1::scan_encoding(BytesView(*mutated), asn1::kToleranceAllBer);
                if (!scan.ok()) continue;  // defensive; berize output always scans
                DeviationProbe probe;
                probe.der = std::move(*mutated);
                probe.origin = origin;
                probe.mask = scan->mask;
                probe.target = rule;
                probes.push_back(std::move(probe));
            }
        }
    }
    return probes;
}

EncodingReport EncodingAnalyzer::analyze(LibraryModel& model) const {
    EncodingReport report;
    FindingSink sink(report.findings);

    std::vector<DeviationProbe> probes = build_corpus(options_);
    report.probe_count = probes.size();
    report.libraries_checked = kAllLibraries.size();

    // ---- Corpus coverage ---------------------------------------------------
    for (const DeviationProbe& p : probes) {
        if (p.mask == 0) {
            report.per_rule_probes[0]++;
        } else {
            report.deviant_probe_count++;
            for (EncodingRule r : asn1::kAllBerRules) {
                if ((p.mask & asn1::encoding_rule_bit(r)) != 0) {
                    report.per_rule_probes[static_cast<size_t>(r)]++;
                }
            }
        }
    }
    for (EncodingRule r : asn1::kAllBerRules) {
        if (report.per_rule_probes[static_cast<size_t>(r)] == 0) {
            sink.add(EncCheckClass::kRuleUncovered, "corpus", asn1::encoding_rule_name(r),
                     "no probe exercises this rule; profile checks would be vacuous");
        }
    }

    // ---- Declared-profile sanity + replay ----------------------------------
    for (Library lib : kAllLibraries) {
        if (encoding_profile(lib).response(EncodingRule::kDer) != RuleResponse::kAccept) {
            sink.add(EncCheckClass::kProfileViolation, library_name(lib), "der",
                     "declared profile does not accept canonical DER");
        }
    }

    std::vector<std::vector<OutcomeKey>> observed(probes.size());
    for (size_t pi = 0; pi < probes.size(); ++pi) {
        const DeviationProbe& probe = probes[pi];
        observed[pi].reserve(kAllLibraries.size());
        for (Library lib : kAllLibraries) {
            const EncodingProfile& profile = encoding_profile(lib);
            EncodingOutcome outcome = model.parse_encoding(lib, BytesView(probe.der));
            observed[pi].push_back(key_of(outcome));

            const char* name = library_name(lib);
            if (probe.mask == 0) {
                if (!outcome.accepted) {
                    sink.add(EncCheckClass::kDerRejected, name, "der",
                             "pure-DER control refused: " + outcome.error);
                }
                continue;
            }
            const bool expect_accept = (probe.mask & profile.rejected_mask()) == 0;
            if (outcome.accepted != expect_accept) {
                auto culprit = expect_accept
                                   ? (outcome.refused ? outcome.refused
                                                      : first_rule(probe.mask, profile,
                                                                   RuleResponse::kAccept))
                                   : first_rule(probe.mask, profile, RuleResponse::kReject);
                sink.add(EncCheckClass::kProfileViolation, name,
                         culprit ? asn1::encoding_rule_name(*culprit) : "-",
                         std::string("declared ") + (expect_accept ? "tolerant" : "reject") +
                             " but observed " + (outcome.accepted ? "accept" : "reject"));
                continue;
            }
            if (!outcome.accepted) continue;

            // Wire conformance: canonical DER exactly when every present
            // deviation is declared kNormalize; the raw input otherwise.
            const bool expect_normalized = (probe.mask & ~profile.normalized_mask()) == 0;
            Bytes expected_wire;
            if (expect_normalized) {
                auto fixed = asn1::normalize_to_der(BytesView(probe.der),
                                                    asn1::kToleranceAllBer);
                if (fixed.ok()) expected_wire = std::move(fixed.value().der);
            } else {
                expected_wire = probe.der;
            }
            if (outcome.wire != expected_wire) {
                auto culprit =
                    expect_normalized
                        ? first_rule(probe.mask, profile, RuleResponse::kNormalize)
                        : first_rule(probe.mask, profile, RuleResponse::kAccept);
                sink.add(EncCheckClass::kNormalizeMismatch, name,
                         culprit ? asn1::encoding_rule_name(*culprit) : "-",
                         std::string("declared ") +
                             (expect_normalized ? "normalize" : "raw echo") +
                             " but re-emitted bytes differ (" +
                             std::to_string(outcome.wire.size()) + " vs " +
                             std::to_string(expected_wire.size()) + " bytes)");
            }
        }
    }

    // ---- Determinism -------------------------------------------------------
    for (size_t rep = 0; rep < options_.determinism_repeats; ++rep) {
        for (size_t pi = 0; pi < probes.size(); ++pi) {
            for (size_t li = 0; li < kAllLibraries.size(); ++li) {
                EncodingOutcome again =
                    model.parse_encoding(kAllLibraries[li], BytesView(probes[pi].der));
                if (!(key_of(again) == observed[pi][li])) {
                    sink.add(EncCheckClass::kNondeterminism,
                             library_name(kAllLibraries[li]),
                             probes[pi].target
                                 ? asn1::encoding_rule_name(*probes[pi].target)
                                 : "der",
                             "outcome changed on repeat " + std::to_string(rep + 1));
                }
            }
        }
    }

    // ---- Order independence ------------------------------------------------
    for (size_t pi = probes.size(); pi-- > 0;) {
        for (size_t li = kAllLibraries.size(); li-- > 0;) {
            EncodingOutcome again =
                model.parse_encoding(kAllLibraries[li], BytesView(probes[pi].der));
            if (!(key_of(again) == observed[pi][li])) {
                sink.add(EncCheckClass::kOrderDependence, library_name(kAllLibraries[li]),
                         probes[pi].target ? asn1::encoding_rule_name(*probes[pi].target)
                                           : "der",
                         "outcome changed under reversed replay order");
            }
        }
    }

    // ---- Lint ground truth -------------------------------------------------
    if (options_.check_lints) {
        const lint::Registry& registry = lint::encoding_deviation_registry();
        for (const DeviationProbe& probe : probes) {
            auto parsed = x509::parse_certificate(BytesView(probe.origin));
            if (!parsed.ok()) continue;
            x509::Certificate cert = std::move(parsed).value();
            cert.der.assign(probe.der.begin(), probe.der.end());
            lint::CertView view(cert);
            for (const LintRulePair& pair : kLintRules) {
                const lint::Rule* rule = registry.find(pair.lint);
                if (rule == nullptr) {
                    sink.add(EncCheckClass::kLintMismatch, pair.lint,
                             asn1::encoding_rule_name(pair.rule),
                             "lint missing from encoding_deviation_registry");
                    continue;
                }
                const bool fired = rule->check(view).has_value();
                const bool expected =
                    (probe.mask & asn1::encoding_rule_bit(pair.rule)) != 0;
                if (fired != expected) {
                    sink.add(EncCheckClass::kLintMismatch, pair.lint,
                             asn1::encoding_rule_name(pair.rule),
                             std::string("scan ground truth says ") +
                                 (expected ? "deviant" : "clean") + " but lint " +
                                 (fired ? "fired" : "stayed silent"));
                }
            }
        }
    }

    // ---- Deviation-registry metadata hygiene -------------------------------
    if (options_.check_rule_metadata) {
        lint::analysis::AnalyzerOptions lopts;
        lopts.seed = options_.seed;
        lopts.corpus_scale = 64000.0;
        lopts.mutant_probes = 16;
        lopts.check_relations = false;
        lopts.check_table1_counts = false;
        lint::analysis::Analyzer lint_analyzer(lopts);
        lint::analysis::AnalysisReport lint_report =
            lint_analyzer.analyze(lint::encoding_deviation_registry());
        for (const lint::analysis::AnalysisFinding& f : lint_report.findings) {
            sink.add(EncCheckClass::kRuleDefect, f.rule, "-",
                     std::string(lint::analysis::check_class_name(f.cls)) + ": " + f.detail);
        }
    }

    return report;
}

// ---- Baseline ---------------------------------------------------------------

std::string baseline_line(const EncFinding& f) {
    std::string line = enc_check_class_name(f.cls);
    line += ' ';
    line += f.subject.empty() ? "-" : f.subject;
    line += ' ';
    line += f.rule.empty() ? "-" : f.rule;
    return line;
}

size_t apply_baseline(EncodingReport& report, std::string_view baseline_text) {
    const std::set<std::string> acknowledged = lint::analysis::baseline_entries(baseline_text);

    size_t moved = 0;
    std::vector<EncFinding> remaining;
    for (EncFinding& f : report.findings) {
        if (acknowledged.count(baseline_line(f)) != 0) {
            report.baselined.push_back(std::move(f));
            ++moved;
        } else {
            remaining.push_back(std::move(f));
        }
    }
    report.findings = std::move(remaining);
    return moved;
}

// ---- JSON -------------------------------------------------------------------

namespace {

void append_findings(std::string& json, const std::vector<EncFinding>& findings) {
    json += '[';
    for (size_t i = 0; i < findings.size(); ++i) {
        const EncFinding& f = findings[i];
        if (i != 0) json += ',';
        json += "{\"class\":\"";
        json += enc_check_class_name(f.cls);
        json += "\",\"subject\":\"";
        json += json_escape(f.subject);
        json += "\",\"rule\":\"";
        json += json_escape(f.rule);
        json += "\",\"detail\":\"";
        json += json_escape(f.detail);
        json += "\"}";
    }
    json += ']';
}

}  // namespace

std::string encoding_report_to_json(const EncodingReport& report) {
    std::string json = "{\"libraries_checked\":" + std::to_string(report.libraries_checked) +
                       ",\"probes\":" + std::to_string(report.probe_count) +
                       ",\"deviant_probes\":" + std::to_string(report.deviant_probe_count) +
                       ",\"per_rule_probes\":{";
    bool first = true;
    for (asn1::EncodingRule r : asn1::kAllBerRules) {
        if (!first) json += ',';
        first = false;
        json += '"';
        json += asn1::encoding_rule_name(r);
        json += "\":";
        json += std::to_string(report.per_rule_probes[static_cast<size_t>(r)]);
    }
    json += "},\"clean\":";
    json += report.clean() ? "true" : "false";
    json += ",\"findings\":";
    append_findings(json, report.findings);
    json += ",\"baselined\":";
    append_findings(json, report.baselined);
    json += "}\n";
    return json;
}

int exit_code(const EncodingReport& report) noexcept { return report.clean() ? 0 : 1; }

}  // namespace unicert::tlslib::analysis
