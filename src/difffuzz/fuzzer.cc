#include "difffuzz/fuzzer.h"

#include <exception>
#include <optional>

#include "asn1/der.h"
#include "asn1/oid.h"
#include "common/splitmix.h"
#include "difffuzz/reducer.h"
#include "faultsim/der_mutator.h"

namespace unicert::difffuzz {
namespace {

using tlslib::EvalOutcome;
using tlslib::Library;
using tlslib::Scenario;

// 16-hex-char signature of an arbitrary string (FNV-1a then mix).
std::string signature_of(std::string_view text) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : text) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ULL;
    h = mix64(h);
    static const char* hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = hex[h & 0xF];
        h >>= 4;
    }
    return out;
}

// Descend through constructed TLVs to the first primitive leaf.
std::optional<asn1::Tlv> leaf_tlv(BytesView der) {
    auto tlv = asn1::read_tlv(der);
    if (!tlv.ok()) return std::nullopt;
    for (int depth = 0; tlv->is_constructed() && !tlv->content.empty() && depth < 128;
         ++depth) {
        auto child = asn1::read_tlv(tlv->content);
        if (!child.ok()) break;
        tlv = child;
    }
    return tlv.value();
}

}  // namespace

DiffFuzzer::DiffFuzzer(CrashCorpus& corpus, FuzzOptions options, tlslib::LibraryModel& model,
                       core::Clock& clock)
    : corpus_(&corpus), options_(options), model_(&model), clock_(&clock) {}

Scenario DiffFuzzer::derive_scenario(BytesView der, tlslib::FieldContext ctx) {
    Scenario scenario{asn1::StringType::kUtf8String, ctx};
    auto leaf = leaf_tlv(der);
    if (leaf && leaf->tag_class() == asn1::TagClass::kUniversal && !leaf->is_constructed()) {
        if (auto st = asn1::string_type_from_tag(leaf->tag_number())) {
            scenario.declared = *st;
        }
    }
    return scenario;
}

Bytes DiffFuzzer::derive_value(BytesView der) {
    auto leaf = leaf_tlv(der);
    if (leaf && !leaf->is_constructed()) {
        return Bytes(leaf->content.begin(), leaf->content.end());
    }
    return Bytes(der.begin(), der.end());
}

std::vector<Bytes> DiffFuzzer::seed_inputs() {
    std::vector<Bytes> seeds;
    auto string_seed = [&](asn1::StringType st, BytesView value) {
        asn1::Writer w;
        w.add_string(asn1::string_type_tag(st), value);
        seeds.push_back(w.take());
    };
    string_seed(asn1::StringType::kPrintableString, to_bytes("test.com"));
    string_seed(asn1::StringType::kIa5String, to_bytes("fuzz.example"));
    string_seed(asn1::StringType::kUtf8String, to_bytes("t\xC3\xABst.com"));
    string_seed(asn1::StringType::kBmpString,
                Bytes{0x00, 't', 0x00, 'e', 0x00, 's', 0x00, 't'});

    // An RDN-shaped nested structure so structural mutations see
    // constructed layers above the string leaf.
    asn1::Writer nested;
    nested.add_sequence([](asn1::Writer& rdn) {
        rdn.add_set([](asn1::Writer& atv) {
            atv.add_sequence([](asn1::Writer& inner) {
                inner.add_string(asn1::string_type_tag(asn1::StringType::kUtf8String),
                                 to_bytes("cn.example"));
            });
        });
    });
    seeds.push_back(nested.take());
    return seeds;
}

InputEval DiffFuzzer::contain_call(Library lib, const Scenario& scenario, const Bytes& value) {
    InputEval eval;
    eval.lib = lib;
    int64_t start = clock_->now_ms();
    tlslib::ParseOutcome out;
    try {
        if (scenario.context == tlslib::FieldContext::kDnName) {
            x509::AttributeValue av;
            av.type = asn1::oids::common_name();
            av.string_type = scenario.declared;
            av.value_bytes = value;
            out = model_->parse_attribute(lib, av);
        } else {
            x509::GeneralName gn;
            gn.type = scenario.context == tlslib::FieldContext::kCrlDp
                          ? x509::GeneralNameType::kUri
                          : x509::GeneralNameType::kDnsName;
            gn.string_type = asn1::StringType::kIa5String;
            gn.value_bytes = value;
            out = model_->parse_general_name(lib, gn, scenario.context);
        }
    } catch (const std::exception& e) {
        eval.outcome = EvalOutcome::kCrash;
        eval.detail = e.what();
        eval.signature = signature_of(std::string("crash:") + e.what());
        return eval;
    } catch (...) {
        eval.outcome = EvalOutcome::kCrash;
        eval.detail = "non-standard exception";
        eval.signature = signature_of("crash:non-standard");
        return eval;
    }
    int64_t elapsed = clock_->now_ms() - start;
    if (options_.budget.wall_ms > 0 && elapsed > options_.budget.wall_ms) {
        eval.outcome = EvalOutcome::kHang;
        eval.detail = "call exceeded " + std::to_string(options_.budget.wall_ms) + "ms budget";
        eval.signature = signature_of("hang");
        return eval;
    }
    if (options_.budget.max_output_bytes > 0 &&
        out.value_utf8.size() > options_.budget.max_output_bytes) {
        eval.outcome = EvalOutcome::kOversizeOutput;
        eval.detail = "output of " + std::to_string(out.value_utf8.size()) + " bytes";
        eval.signature = signature_of("oversize");
        return eval;
    }
    // Encode accept/reject in `detail` for the divergence pass; the
    // caller rewrites failures into their final form.
    eval.outcome = EvalOutcome::kOk;
    eval.detail = out.ok ? "accept" : "reject";
    return eval;
}

std::vector<InputEval> DiffFuzzer::evaluate_input(BytesView der) {
    Scenario scenario = derive_scenario(der, options_.context);
    Bytes value = derive_value(der);

    std::vector<InputEval> results;
    results.reserve(tlslib::kAllLibraries.size());
    std::string pattern;  // one char per library: A/R/U/C/H/O
    for (Library lib : tlslib::kAllLibraries) {
        InputEval eval;
        eval.lib = lib;
        bool supported = false;
        try {
            supported =
                model_->probe_decode(lib, scenario.declared, scenario.context).supported;
        } catch (...) {
            supported = false;
        }
        if (!supported) {
            eval.outcome = EvalOutcome::kUnsupported;
            pattern.push_back('U');
            results.push_back(std::move(eval));
            continue;
        }
        eval = contain_call(lib, scenario, value);
        switch (eval.outcome) {
            case EvalOutcome::kCrash: pattern.push_back('C'); break;
            case EvalOutcome::kHang: pattern.push_back('H'); break;
            case EvalOutcome::kOversizeOutput: pattern.push_back('O'); break;
            default: pattern.push_back(eval.detail == "accept" ? 'A' : 'R'); break;
        }
        results.push_back(std::move(eval));
    }

    // Divergence: the supported, healthy libraries split into accept
    // and reject camps. The minority camp carries the failure, bucketed
    // under a signature of the whole pattern (accept-side ties break
    // toward accept so the signature stays stable).
    size_t accepts = 0, rejects = 0;
    for (char c : pattern) {
        if (c == 'A') ++accepts;
        if (c == 'R') ++rejects;
    }
    if (accepts > 0 && rejects > 0) {
        char minority = accepts <= rejects ? 'A' : 'R';
        std::string sig = signature_of("split:" + pattern);
        for (size_t i = 0; i < results.size(); ++i) {
            if (pattern[i] != minority) continue;
            results[i].outcome = EvalOutcome::kDivergence;
            results[i].signature = sig;
            results[i].detail = "accept/reject split " + pattern;
        }
    }
    for (InputEval& eval : results) {
        if (eval.outcome == EvalOutcome::kOk) eval.detail.clear();
    }
    return results;
}

FuzzStats DiffFuzzer::run() {
    FuzzStats stats;
    std::vector<Bytes> seeds = seed_inputs();
    faultsim::DerMutator mutator(options_.seed);

    for (size_t i = 0; i < options_.iterations; ++i) {
        Bytes input = mutator.mutate(seeds[i % seeds.size()], /*salt=*/i);
        ++stats.inputs;
        std::vector<InputEval> evals = evaluate_input(input);
        for (const InputEval& eval : evals) {
            if (eval.outcome != EvalOutcome::kUnsupported) ++stats.evaluations;
            if (!tlslib::eval_outcome_is_failure(eval.outcome)) continue;
            ++stats.failures;

            CrashEntry entry;
            entry.lib = eval.lib;
            entry.scenario = derive_scenario(input, options_.context);
            entry.outcome = eval.outcome;
            entry.signature = eval.signature;
            entry.detail = eval.detail;
            entry.payload = input;
            if (!corpus_->add(entry)) continue;
            ++stats.new_buckets;

            if (!options_.minimize) continue;
            auto still_fails = [&](BytesView candidate) {
                for (const InputEval& e : evaluate_input(candidate)) {
                    if (e.lib == entry.lib && e.outcome == entry.outcome &&
                        e.signature == entry.signature) {
                        return true;
                    }
                }
                return false;
            };
            Bytes reduced = reduce(entry.payload, still_fails, options_.reduce_checks);
            if (reduced.size() < entry.payload.size()) {
                entry.payload = std::move(reduced);
                entry.scenario = derive_scenario(entry.payload, options_.context);
                corpus_->update(entry);
                ++stats.minimized;
            }
        }
    }
    return stats;
}

size_t DiffFuzzer::replay(std::vector<std::string>* unreproduced) {
    size_t reproduced = 0;
    for (const auto& [key, entry] : corpus_->entries()) {
        bool hit = false;
        for (const InputEval& eval : evaluate_input(entry.payload)) {
            if (eval.lib == entry.lib && eval.outcome == entry.outcome &&
                eval.signature == entry.signature) {
                hit = true;
                break;
            }
        }
        if (hit) {
            ++reproduced;
        } else if (unreproduced) {
            unreproduced->push_back(key);
        }
    }
    return reproduced;
}

}  // namespace unicert::difffuzz
