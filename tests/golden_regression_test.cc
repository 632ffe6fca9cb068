// Golden-file regression tests for the paper's headline artifacts: the
// Table 1 taxonomy, Table 2 issuer ranking and Figure 3 validity CDF
// over the reference corpus (seed 42, scale 1000 — the same corpus the
// benchmarks use). Any change to corpus generation, the lint registry,
// aggregation or JSON emission shows up here as a readable diff instead
// of a silent drift. Every lint finding over three certificate sets is
// pinned line by line. The Section 6 verdicts are pinned twice: Table 6's
// monitor columns under scenario traffic, and every fleet column plus
// every one-shot runner row. The two checkpoint formats (`unicert-campaign-v1`,
// `unicert-scenario-v1`) are pinned the same way, byte for byte, so an
// old state directory keeps resuming.
//
// When a change is intentional, refresh the files with either of
//   ./tests/golden_regression_test --update-golden
//   UNICERT_UPDATE_GOLDEN=1 ctest -R Golden
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/parallel_pipeline.h"
#include "core/pipeline.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "ctlog/monitor.h"
#include "difffuzz/campaign/state.h"
#include "faultsim/der_mutator.h"
#include "lint/lint.h"
#include "threat/browser.h"
#include "threat/middlebox.h"
#include "threat/scenario/fleet.h"
#include "threat/scenario/state.h"
#include "threat/scenarios.h"
#include "x509/builder.h"
#include "x509/lazy.h"

namespace unicert {
namespace {

bool update_golden = false;

std::string golden_path(const std::string& name) {
    return std::string(UNICERT_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// Diff `actual` against the golden file, or rewrite it in update mode.
void expect_golden(const std::string& name, const std::string& actual) {
    const std::string path = golden_path(name);
    if (update_golden) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual << "\n";
        GTEST_LOG_(INFO) << "updated " << path;
        return;
    }
    const std::string expected = read_file(path);
    ASSERT_FALSE(expected.empty())
        << path << " is missing — regenerate with --update-golden";
    EXPECT_EQ(actual + "\n", expected)
        << name << " drifted from the golden file. If the change is "
        << "intentional, refresh with --update-golden and review the diff.";
}

class GoldenRegression : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        ctlog::CorpusGenerator gen({.seed = 42, .scale = 1000.0});
        corpus_ = new std::vector<ctlog::CorpusCert>(gen.generate());
        pipeline_ = new core::CompliancePipeline(*corpus_);
    }
    static void TearDownTestSuite() {
        delete pipeline_;
        pipeline_ = nullptr;
        delete corpus_;
        corpus_ = nullptr;
    }

    static std::vector<ctlog::CorpusCert>* corpus_;
    static core::CompliancePipeline* pipeline_;
};

std::vector<ctlog::CorpusCert>* GoldenRegression::corpus_ = nullptr;
core::CompliancePipeline* GoldenRegression::pipeline_ = nullptr;

TEST_F(GoldenRegression, Table1Taxonomy) {
    expect_golden("table1_taxonomy.json",
                  core::taxonomy_to_json(pipeline_->taxonomy_report()));
}

TEST_F(GoldenRegression, Table2IssuerShare) {
    expect_golden("table2_issuers.json",
                  core::issuer_report_to_json(pipeline_->issuer_report(10)));
}

TEST_F(GoldenRegression, Fig3ValidityCdf) {
    expect_golden("fig3_validity_cdf.json",
                  core::validity_cdf_to_json(pipeline_->validity_cdf()));
}

TEST_F(GoldenRegression, ParallelPipelineEmitsIdenticalArtifacts) {
    // The golden files also pin the parallel path: a merge-order bug
    // would change these artifacts byte-for-byte.
    core::VectorCertSource source(*corpus_);
    core::ParallelPipeline parallel(source, {}, {.jobs = 4});
    EXPECT_EQ(core::taxonomy_to_json(parallel.taxonomy_report()),
              core::taxonomy_to_json(pipeline_->taxonomy_report()));
    EXPECT_EQ(core::issuer_report_to_json(parallel.issuer_report(10)),
              core::issuer_report_to_json(pipeline_->issuer_report(10)));
    EXPECT_EQ(core::validity_cdf_to_json(parallel.validity_cdf()),
              core::validity_cdf_to_json(pipeline_->validity_cdf()));
}

// Table 6 under scenario traffic: for every obfuscation technique, how
// many of the default victim set each monitor would conceal (the
// owner's own-domain query misses the logged forgery), plus whether
// the CAA interlink applies to the technique at all. Pins the crafted
// certs, every monitor capability model and the victim grid at once.
TEST_F(GoldenRegression, Table6ScenarioDetection) {
    namespace scenario = threat::scenario;
    scenario::TrafficModel model = scenario::resolved(scenario::TrafficModel{});
    scenario::DetectionMatrix matrix = scenario::build_matrix(model);
    auto profiles = ctlog::monitor_profiles();

    std::ostringstream out;
    out << "# concealed victims out of " << matrix.victims
        << " per (technique, monitor); caa = interlink applies\n";
    out << "technique";
    for (const auto& profile : profiles) out << " | " << profile.name;
    out << " | caa\n";
    for (size_t t = 0; t < matrix.techniques; ++t) {
        out << threat::technique_name(threat::kAllTechniques[t]);
        for (size_t m = 0; m < profiles.size(); ++m) {
            size_t concealed = 0;
            for (size_t v = 0; v < matrix.victims; ++v) {
                if (matrix.cell(v, t).monitor_concealed[m]) ++concealed;
            }
            out << " | " << concealed;
        }
        out << " | " << (matrix.cell(0, t).caa_applicable ? "yes" : "no") << "\n";
    }
    std::string text = out.str();
    text.pop_back();  // expect_golden appends the trailing newline
    expect_golden("table6_scenario.txt", text);
}

// Crafted values carry NUL, bidi controls and Cyrillic letters: print
// every byte outside printable ASCII as \xHH so the golden stays
// readable and diffable.
std::string escaped(std::string_view value) {
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : value) {
        if (c >= 0x20 && c < 0x7F && c != '\\') {
            out += static_cast<char>(c);
        } else {
            out += "\\x";
            out += kHex[c >> 4];
            out += kHex[c & 0xF];
        }
    }
    return out;
}

const char* yes_no(bool value) { return value ? "yes" : "no"; }

// Section 6 and Appendix F verdicts in one file: every fleet column of
// the scenario engine's detection matrix, counted over the default
// victims per technique, and every row of the one-shot runners behind
// Table 6, Section 6.2 and Table 14.
TEST(GoldenSec6, FleetColumnsAndOneShotRunners) {
    namespace scenario = threat::scenario;
    scenario::DetectionMatrix matrix =
        scenario::build_matrix(scenario::resolved(scenario::TrafficModel{}));
    auto profiles = ctlog::monitor_profiles();

    std::ostringstream out;
    out << "# build_matrix: victims out of " << matrix.victims
        << " per technique; mb = blocklist fires, client = SAN accepted,"
        << " browser = spoofed, monitor = concealed, caa = applicable victims with a record\n";
    out << "technique";
    for (threat::Middlebox mb : threat::kAllMiddleboxes) {
        out << " | mb " << threat::middlebox_name(mb);
    }
    for (threat::HttpClient c : threat::kAllClients) {
        out << " | client " << threat::http_client_name(c);
    }
    for (threat::Browser b : threat::kAllBrowsers) {
        out << " | browser " << threat::browser_name(b);
    }
    for (const auto& profile : profiles) out << " | monitor " << profile.name;
    out << " | caa\n";
    for (size_t t = 0; t < matrix.techniques; ++t) {
        out << threat::technique_name(threat::kAllTechniques[t]);
        auto column = [&](auto member, size_t i) {
            size_t count = 0;
            for (size_t v = 0; v < matrix.victims; ++v) {
                if ((matrix.cell(v, t).*member)[i]) ++count;
            }
            out << " | " << count;
        };
        for (size_t i = 0; i < threat::kAllMiddleboxes.size(); ++i) {
            column(&threat::FleetVerdicts::mb_flagged, i);
        }
        for (size_t i = 0; i < threat::kAllClients.size(); ++i) {
            column(&threat::FleetVerdicts::client_accepted, i);
        }
        for (size_t i = 0; i < threat::kAllBrowsers.size(); ++i) {
            column(&threat::FleetVerdicts::browser_spoofed, i);
        }
        for (size_t i = 0; i < profiles.size(); ++i) {
            column(&threat::FleetVerdicts::monitor_concealed, i);
        }
        size_t caa = 0;
        for (size_t v = 0; v < matrix.victims; ++v) {
            if (matrix.cell(v, t).caa_applicable && matrix.victim_caa[v]) ++caa;
        }
        out << " | " << caa << "\n";
    }

    out << "\n# run_monitor_misleading(\"victim.example\"): monitor | technique | logged | concealed\n";
    for (const auto& r : threat::run_monitor_misleading("victim.example")) {
        out << r.monitor << " | " << r.technique << " | " << yes_no(r.logged) << " | "
            << yes_no(r.concealed) << "\n";
    }
    out << "\n# run_traffic_obfuscation(): component | technique | evaded\n";
    for (const auto& r : threat::run_traffic_obfuscation()) {
        out << r.component << " | " << r.technique << " | " << yes_no(r.evaded) << "\n";
    }
    out << "\n# run_user_spoofing(): browser | crafted | displayed | spoofed\n";
    for (const auto& r : threat::run_user_spoofing()) {
        out << r.browser << " | " << escaped(r.crafted_value) << " | " << escaped(r.displayed)
            << " | " << yes_no(r.spoof_success) << "\n";
    }
    out << "\n# run_homograph_study(): target | u-label | a-label | idna valid | skeleton"
        << " collision | monitors accepting | browsers vulnerable\n";
    for (const auto& r : threat::run_homograph_study()) {
        out << r.target_domain << " | " << escaped(r.homograph_ulabel) << " | "
            << r.homograph_alabel << " | " << yes_no(r.idna_valid) << " | "
            << yes_no(r.skeleton_collision) << " | " << r.monitors_accepting_query << " | "
            << r.browsers_vulnerable << "\n";
    }
    std::string text = out.str();
    text.pop_back();  // expect_golden appends the trailing newline
    expect_golden("sec6_verdicts.txt", text);
}

// Every finding the full registry reports, one line per finding as
// `<set>#<index> <rule name> <detail>`, over three sets: the signed
// seed-7 corpus at scale 4000, linted from DER like the census; the
// defect showcase, two certificates per defect kind, signed by
// "Showcase CA"; and four DerMutator mutants of each showcase
// certificate, numbered showcase index * 4 + k, of which those that
// still parse are linted. Pins every rule's verdict and detail string.
TEST(GoldenLint, EveryFindingOverCorpusShowcaseAndMutants) {
    std::ostringstream out;
    size_t linted = 0;
    auto lint_der = [&](const char* set, size_t index, BytesView der) {
        auto lazy = x509::LazyCertificate::index(der);
        if (!lazy.ok()) return;
        ++linted;
        for (const lint::Finding& f : lint::run_lints(*lazy).findings) {
            out << set << "#" << index << " " << f.lint->name << " " << escaped(f.detail)
                << "\n";
        }
    };

    ctlog::CorpusGenerator corpus_gen(
        {.seed = 7, .scale = 4000.0, .sign_certificates = true});
    std::vector<ctlog::CorpusCert> corpus = corpus_gen.generate();
    for (size_t i = 0; i < corpus.size(); ++i) lint_der("corpus", i, corpus[i].cert.der);

    ctlog::CorpusGenerator showcase_gen({.seed = 7});
    std::vector<ctlog::CorpusCert> showcase = showcase_gen.generate_defect_showcase(2);
    crypto::SimSigner signer = crypto::SimSigner::from_name("Showcase CA");
    std::vector<Bytes> showcase_ders;
    for (size_t i = 0; i < showcase.size(); ++i) {
        showcase_ders.push_back(x509::sign_certificate(showcase[i].cert, signer));
        lint_der("showcase", i, showcase_ders.back());
    }

    faultsim::DerMutator mutator(7);
    for (size_t i = 0; i < showcase_ders.size(); ++i) {
        for (size_t k = 0; k < 4; ++k) {
            const size_t index = i * 4 + k;
            lint_der("mutant", index, mutator.mutate(showcase_ders[i], index));
        }
    }

    std::string text = "# corpus " + std::to_string(corpus.size()) + ", showcase " +
                       std::to_string(showcase.size()) + ", mutants " +
                       std::to_string(showcase.size() * 4) + "; linted " +
                       std::to_string(linted) + "\n" + out.str();
    text.pop_back();  // expect_golden appends the trailing newline
    expect_golden("lint_findings.txt", text);
}

// The checkpoint formats, each written by serialize_state of a fixed
// state. The golden file is the checkpoint file's exact bytes.
void expect_state_golden(const std::string& name, std::string text) {
    text.pop_back();  // expect_golden appends the trailing newline
    expect_golden(name, text);
}

TEST(GoldenStateFormat, CampaignCheckpoint) {
    difffuzz::campaign::CampaignState state;
    state.seed = 42;
    state.next_salt = 96;
    state.batches_done = 6;
    state.evals = 850;
    state.failures = 17;
    state.quarantined = 2;
    state.corpus = {{0, 16, 3, 40, {0x30, 0x03, 0x0C, 0x01, 'x'}},
                    {7, 128, 1, 4, {0x1E, 0x02, 0x00, 't'}},
                    {9, 1, 0, 12, {}}};
    state.buckets = {"golang_crypto.crash.0011223344556677",
                     "forge.divergence.8899aabbccddeeff"};
    expect_state_golden("campaign_state.txt", difffuzz::campaign::serialize_state(state));
}

TEST(GoldenStateFormat, ScenarioCheckpoint) {
    threat::scenario::ScenarioState state;
    state.seed = 7;
    state.dose_ppm = 10000;
    state.caa_ppm = 55000;
    state.next_user = 4096;
    state.shards_done = 32;
    state.evaluated = 4090;
    state.quarantined = 6;
    state.tallies = {{"users_benign", 4049},
                     {"users_adversarial", 41},
                     {"technique_homograph", 5},
                     {"monitor_crt_sh_concealed", 30},
                     {"caa_flagged", 2},
                     {"detected_any", 12}};
    expect_state_golden("scenario_state.txt", threat::scenario::serialize_state(state));
}

}  // namespace
}  // namespace unicert

// Custom main: accept --update-golden (or UNICERT_UPDATE_GOLDEN=1, for
// driving the refresh through ctest) before handing off to GoogleTest.
int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") unicert::update_golden = true;
    }
    const char* env = std::getenv("UNICERT_UPDATE_GOLDEN");
    if (env != nullptr && std::string(env) != "0" && std::string(env) != "") {
        unicert::update_golden = true;
    }
    return RUN_ALL_TESTS();
}
