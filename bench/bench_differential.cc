// Microbenchmark for the supervised execution layer: how much does
// wrapping every profile call in budget accounting (BudgetGuard ticks,
// wall-clock reads, exception fences) cost relative to the plain
// DifferentialRunner? Reports evaluations/sec for both engines over
// the full Table 4 grid and emits a BENCH_differential.json baseline
// so later sessions can detect regressions in the containment path.
// It also compares bucket discovery between blind fuzzing (DiffFuzzer's
// fixed-seed mutation loop) and the feedback-guided campaign engine at
// the same input budget; the seed-pinned `campaign_at_least_blind` flag
// in the JSON is CI's check that the feedback loop actually pays.
#include "bench_common.h"

#include <chrono>
#include <string>

#include "asn1/encoding.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "difffuzz/campaign/campaign.h"
#include "difffuzz/faulty_model.h"
#include "faultsim/der_mutator.h"
#include "tlslib/encoding_profile.h"
#include "tlslib/supervisor.h"
#include "x509/builder.h"

using namespace unicert;
using tlslib::DifferentialRunner;
using tlslib::Library;
using tlslib::Scenario;
using tlslib::Supervisor;

namespace {

struct Measurement {
    size_t evaluations = 0;
    double seconds = 0.0;
    double per_sec() const { return seconds > 0.0 ? evaluations / seconds : 0.0; }
};

double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Measurement bench_unsupervised(int repetitions) {
    DifferentialRunner runner;
    Measurement m;
    const double start = now_seconds();
    for (int rep = 0; rep < repetitions; ++rep) {
        for (const Scenario& scenario : Supervisor::table4_scenarios()) {
            for (Library lib : tlslib::kAllLibraries) {
                (void)runner.infer(lib, scenario);
                ++m.evaluations;
            }
        }
    }
    m.seconds = now_seconds() - start;
    return m;
}

Measurement bench_supervised(int repetitions) {
    Measurement m;
    const double start = now_seconds();
    for (int rep = 0; rep < repetitions; ++rep) {
        Supervisor supervisor;
        for (const Scenario& scenario : Supervisor::table4_scenarios()) {
            for (Library lib : tlslib::kAllLibraries) {
                (void)supervisor.evaluate(lib, scenario);
                ++m.evaluations;
            }
        }
    }
    m.seconds = now_seconds() - start;
    return m;
}

// ---- feedback-guided vs blind bucket discovery ---------------------------

struct Discovery {
    size_t inputs = 0;
    size_t buckets = 0;
    double seconds = 0.0;
};

// Both runs drive the identical fault-injected engine (content-keyed
// faults, so discovery depends only on which inputs get generated) for
// the same number of mutated inputs.
constexpr uint64_t kDiscoverySeed = 7;
constexpr uint64_t kDiscoveryInputs = 192;
constexpr double kDiscoveryCrashRate = 0.03;

difffuzz::FaultyModel make_discovery_model(core::ManualClock& clock) {
    difffuzz::FaultyModelOptions fmo;
    fmo.seed = kDiscoverySeed;
    fmo.crash_rate = kDiscoveryCrashRate;
    return difffuzz::FaultyModel(tlslib::builtin_model(), fmo, clock);
}

Discovery bench_blind_fuzz() {
    core::ManualClock clock;
    difffuzz::FaultyModel faulty = make_discovery_model(clock);
    difffuzz::CrashCorpus corpus;
    difffuzz::FuzzOptions fo;
    fo.seed = kDiscoverySeed;
    fo.iterations = kDiscoveryInputs;
    fo.minimize = false;
    Discovery d;
    const double start = now_seconds();
    difffuzz::DiffFuzzer(corpus, fo, faulty, clock).run();
    d.seconds = now_seconds() - start;
    d.inputs = kDiscoveryInputs;
    d.buckets = corpus.size();
    return d;
}

Discovery bench_campaign() {
    core::ManualClock clock;
    difffuzz::FaultyModel faulty = make_discovery_model(clock);
    core::MemFs fs;
    difffuzz::CrashCorpus corpus("camp/corpus", &fs);
    difffuzz::campaign::CampaignOptions options;
    options.seed = kDiscoverySeed;
    options.batch_size = 16;
    options.max_evals = kDiscoveryInputs;
    difffuzz::campaign::Campaign campaign(options, corpus, fs, "camp", faulty, clock);
    Discovery d;
    const double start = now_seconds();
    if (campaign.start_fresh().ok()) (void)campaign.run();
    d.seconds = now_seconds() - start;
    d.inputs = kDiscoveryInputs;
    d.buckets = campaign.state().buckets.size();
    return d;
}

// ---- encoding-axis campaign comparison -----------------------------------
//
// The same mutation budget with and without the BER-izing axis: blind
// byte corruption almost never lands on a *valid* alternative encoding,
// so without the axis the encoding-tolerance differences between the
// nine libraries stay invisible. With it, every BER rule that splits
// the libraries (some accept, some refuse) shows up as a divergence.

struct EncodingAxis {
    size_t inputs = 0;
    size_t decodable = 0;                                    // tolerantly decodable mutants
    size_t divergent = 0;                                    // mixed accept/reject across libs
    size_t per_rule[asn1::kEncodingRuleCount] = {};          // rule -> divergent mutants
    double seconds = 0.0;
};

constexpr uint64_t kEncodingSeed = 13;
constexpr uint64_t kEncodingInputsPerBase = 24;

std::vector<Bytes> encoding_axis_bases() {
    ctlog::CorpusOptions copts;
    copts.seed = kEncodingSeed;
    copts.scale = 5000000.0;  // a handful of base certificates
    ctlog::CorpusGenerator gen(copts);
    crypto::SimSigner signer = crypto::SimSigner::from_name("Bench Enc CA");
    std::vector<Bytes> bases;
    auto corpus = gen.generate();
    for (auto& cc : corpus) bases.push_back(x509::sign_certificate(cc.cert, signer));
    if (!corpus.empty()) {
        // Padded-bit-string carrier (generated keyUsage has no spare bits).
        x509::Certificate padded = corpus.front().cert;
        padded.extensions.push_back(
            x509::Extension{asn1::oids::key_usage(), true, Bytes{0x03, 0x02, 0x05, 0xA0}});
        bases.push_back(x509::sign_certificate(padded, signer));
    }
    return bases;
}

EncodingAxis bench_encoding_axis(const std::vector<Bytes>& bases, bool ber_axis) {
    faultsim::DerMutator mutator(kEncodingSeed, ber_axis);
    EncodingAxis r;
    const double start = now_seconds();
    for (const Bytes& base : bases) {
        for (uint64_t salt = 0; salt < kEncodingInputsPerBase; ++salt) {
            Bytes mutant = mutator.mutate(base, salt);
            ++r.inputs;
            auto scan = asn1::scan_encoding(mutant, asn1::kToleranceAllBer);
            if (!scan.ok() || scan->mask == 0) continue;
            ++r.decodable;
            size_t accepts = 0;
            for (tlslib::Library lib : tlslib::kAllLibraries) {
                if (tlslib::parse_encoding(lib, mutant).accepted) ++accepts;
            }
            if (accepts == 0 || accepts == tlslib::kAllLibraries.size()) continue;
            ++r.divergent;
            for (asn1::EncodingRule rule : asn1::kAllBerRules) {
                if (scan->exercised(rule)) r.per_rule[static_cast<size_t>(rule)]++;
            }
        }
    }
    r.seconds = now_seconds() - start;
    return r;
}

void write_json(const char* path, const Measurement& plain, const Measurement& supervised,
                double overhead_pct, const Discovery& blind, const Discovery& campaign,
                const EncodingAxis& enc_off, const EncodingAxis& enc_on) {
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"bench_differential\",\n");
    std::fprintf(f, "  \"grid\": \"table4 scenarios x 9 libraries\",\n");
    std::fprintf(f, "  \"unsupervised\": {\"evaluations\": %zu, \"seconds\": %.6f, \"evals_per_sec\": %.1f},\n",
                 plain.evaluations, plain.seconds, plain.per_sec());
    std::fprintf(f, "  \"supervised\": {\"evaluations\": %zu, \"seconds\": %.6f, \"evals_per_sec\": %.1f},\n",
                 supervised.evaluations, supervised.seconds, supervised.per_sec());
    std::fprintf(f, "  \"supervision_overhead_pct\": %.2f,\n", overhead_pct);
    std::fprintf(f, "  \"discovery_seed\": %llu,\n",
                 static_cast<unsigned long long>(kDiscoverySeed));
    std::fprintf(f, "  \"blind_fuzz\": {\"inputs\": %zu, \"buckets\": %zu, \"seconds\": %.6f},\n",
                 blind.inputs, blind.buckets, blind.seconds);
    std::fprintf(f, "  \"campaign\": {\"inputs\": %zu, \"buckets\": %zu, \"seconds\": %.6f},\n",
                 campaign.inputs, campaign.buckets, campaign.seconds);
    std::fprintf(f, "  \"campaign_at_least_blind\": %s,\n",
                 campaign.buckets >= blind.buckets ? "true" : "false");
    for (int axis = 0; axis < 2; ++axis) {
        const EncodingAxis& e = axis == 0 ? enc_off : enc_on;
        std::fprintf(f,
                     "  \"encoding_axis_%s\": {\"inputs\": %zu, \"ber_decodable\": %zu, "
                     "\"divergent\": %zu, \"seconds\": %.6f, \"per_rule_divergence\": {",
                     axis == 0 ? "off" : "on", e.inputs, e.decodable, e.divergent, e.seconds);
        bool first = true;
        for (asn1::EncodingRule rule : asn1::kAllBerRules) {
            std::fprintf(f, "%s\"%s\": %zu", first ? "" : ", ",
                         asn1::encoding_rule_name(rule),
                         e.per_rule[static_cast<size_t>(rule)]);
            first = false;
        }
        std::fprintf(f, "}},\n");
    }
    std::fprintf(f, "  \"encoding_axis_pays\": %s\n",
                 enc_on.divergent > enc_off.divergent ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    int repetitions = 20;
    if (argc > 1) repetitions = std::max(1, std::atoi(argv[1]));

    bench::print_header("Differential engine — supervised vs unsupervised throughput",
                        "Section 3.2 inference; DESIGN.md supervised execution");

    // Warm-up: touch both paths once so lazy statics are initialised
    // outside the timed region.
    (void)bench_unsupervised(1);
    (void)bench_supervised(1);

    Measurement plain = bench_unsupervised(repetitions);
    Measurement supervised = bench_supervised(repetitions);
    const double overhead_pct =
        plain.per_sec() > 0.0 ? (plain.per_sec() / std::max(supervised.per_sec(), 1e-9) - 1.0) * 100.0
                              : 0.0;

    std::printf("repetitions          | %d full Table 4 grids per engine\n", repetitions);
    std::printf("unsupervised         | %zu evaluations in %.3fs  (%.0f evals/sec)\n",
                plain.evaluations, plain.seconds, plain.per_sec());
    std::printf("supervised           | %zu evaluations in %.3fs  (%.0f evals/sec)\n",
                supervised.evaluations, supervised.seconds, supervised.per_sec());
    std::printf("supervision overhead | %.2f%%\n\n", overhead_pct);

    Discovery blind = bench_blind_fuzz();
    Discovery campaign = bench_campaign();
    std::printf("bucket discovery at %zu inputs (seed %llu, crash rate %.2f):\n",
                blind.inputs, static_cast<unsigned long long>(kDiscoverySeed),
                kDiscoveryCrashRate);
    std::printf("blind fuzz           | %zu bucket(s) in %.3fs\n", blind.buckets,
                blind.seconds);
    std::printf("campaign             | %zu bucket(s) in %.3fs\n", campaign.buckets,
                campaign.seconds);
    std::printf("campaign_at_least_blind | %s\n\n",
                campaign.buckets >= blind.buckets ? "true" : "false");

    std::vector<Bytes> bases = encoding_axis_bases();
    EncodingAxis enc_off = bench_encoding_axis(bases, /*ber_axis=*/false);
    EncodingAxis enc_on = bench_encoding_axis(bases, /*ber_axis=*/true);
    std::printf("encoding-axis campaign (%zu bases x %llu mutants, seed %llu):\n",
                bases.size(), static_cast<unsigned long long>(kEncodingInputsPerBase),
                static_cast<unsigned long long>(kEncodingSeed));
    std::printf("ber axis off         | %zu/%zu decodable-BER, %zu divergent\n",
                enc_off.decodable, enc_off.inputs, enc_off.divergent);
    std::printf("ber axis on          | %zu/%zu decodable-BER, %zu divergent\n",
                enc_on.decodable, enc_on.inputs, enc_on.divergent);
    for (asn1::EncodingRule rule : asn1::kAllBerRules) {
        std::printf("  %-26s | off %zu  on %zu\n", asn1::encoding_rule_name(rule),
                    enc_off.per_rule[static_cast<size_t>(rule)],
                    enc_on.per_rule[static_cast<size_t>(rule)]);
    }
    std::printf("encoding_axis_pays   | %s\n\n",
                enc_on.divergent > enc_off.divergent ? "true" : "false");

    write_json("BENCH_differential.json", plain, supervised, overhead_pct, blind, campaign,
               enc_off, enc_on);
    std::printf("baseline written to BENCH_differential.json\n");
    return 0;
}
