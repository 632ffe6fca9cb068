// census: the paper's measurement path from wire bytes. A signed
// 1:1000 corpus is concatenated into one DER buffer exactly as the
// generator emits it (no dedupe, re-sign or filter), and every pass
// runs DerFileCertSource -> ParallelPipeline(jobs=2) -> all seven §4
// outputs. A batch job: no request loop, no hashing, no store.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/json.h"
#include "core/parallel_pipeline.h"
#include "crypto/sha256.h"
#include "ctlog/corpus.h"
#include "ctlog/merkle.h"
#include "lint/lint.h"
#include "x509/lazy.h"
#include "x509/parser.h"
#include "layers.h"

namespace perfbench {

using namespace unicert;

namespace {

constexpr size_t kCensusJobs = 2;
// A pass is the census's only request, so its tail is the p75 of pass
// times: the highest quartile with at least ten passes beyond it.
constexpr size_t kMinPasses = 40;

// The seven §4 outputs of one pass. Only Table 1 is compared byte for
// byte; the rest are computed so a pass does the paper's whole job.
struct Tables {
    std::string taxonomy_json;
    size_t rows = 0;
};

Tables compute_tables(const core::CompliancePipeline& p) {
    Tables t;
    t.taxonomy_json = core::taxonomy_to_json(p.taxonomy_report());
    t.rows += p.issuer_report(10).size();
    t.rows += p.top_lints(25).size();
    t.rows += p.yearly_trend().size();
    core::ValidityCdf cdf = p.validity_cdf();
    t.rows += cdf.idn_certs.size() + cdf.other_unicerts.size() + cdf.noncompliant.size();
    t.rows += p.field_heatmap().size();
    t.rows += p.subject_variants().size();
    return t;
}

lint::Registry type_registry(lint::NcType type) {
    lint::Registry registry;
    for (const lint::Rule& rule : lint::default_registry().rules()) {
        if (rule.info.type == type) registry.add(rule);
    }
    return registry;
}

struct TypeLayer {
    lint::NcType type;
    const char* span;
};

constexpr TypeLayer kTypeLayers[] = {
    {lint::NcType::kInvalidCharacter, "lint.t1_invalid_character"},
    {lint::NcType::kBadNormalization, "lint.t2_bad_normalization"},
    {lint::NcType::kIllegalFormat, "lint.t3a_illegal_format"},
    {lint::NcType::kInvalidEncoding, "lint.t3b_invalid_encoding"},
    {lint::NcType::kInvalidStructure, "lint.t3c_invalid_structure"},
    {lint::NcType::kDiscouragedField, "lint.t3d_discouraged_field"},
};

// Certificates per second over all passes: total work / total time.
double certs_per_s(size_t certs, const std::vector<double>& pass_s) {
    double total = 0;
    for (double s : pass_s) total += s;
    return static_cast<double>(certs * pass_s.size()) / total;
}

}  // namespace

DerCorpus concat_der(const std::vector<BytesView>& ders) {
    DerCorpus out;
    for (BytesView der : ders) {
        out.offsets.push_back(out.buffer.size());
        out.buffer.insert(out.buffer.end(), der.begin(), der.end());
    }
    out.offsets.push_back(out.buffer.size());
    return out;
}

std::vector<BytesView> corpus_ders(const std::vector<ctlog::CorpusCert>& corpus) {
    std::vector<BytesView> ders;
    for (const ctlog::CorpusCert& c : corpus) ders.push_back(c.cert.der);
    return ders;
}

std::vector<BytesView> DerCorpus::views() const {
    std::vector<BytesView> out;
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        out.push_back(BytesView(buffer).subspan(offsets[i], offsets[i + 1] - offsets[i]));
    }
    return out;
}

PassResult census_pass(const DerCorpus& input, size_t jobs, Tracer& tracer, uint64_t request,
                       const std::vector<ExpectedLint>* expected) {
    PassResult r;
    ScopedSpan pass_span(tracer, jobs == 1 ? "census.pass_jobs1" : "census.pass", request);
    double t0 = now_s();
    double cpu0 = process_cpu_s();
    core::DerFileCertSource source(input.buffer);
    std::optional<core::ParallelPipeline> pipeline;
    {
        ScopedSpan span(tracer, "core.pipeline", request);
        pipeline.emplace(source, core::PipelineOptions{}, core::ParallelOptions{.jobs = jobs});
    }
    double t1 = now_s();
    r.pipeline_cpu_s = process_cpu_s() - cpu0;
    Tables tables;
    {
        ScopedSpan span(tracer, "core.aggregate", request);
        tables = compute_tables(*pipeline);
    }
    double t2 = now_s();
    r.pipeline_s = t1 - t0;
    r.pass_s = t2 - t0;
    r.taxonomy_json = std::move(tables.taxonomy_json);
    r.analyzed = pipeline->analyzed().size();
    r.quarantined = pipeline->stats().quarantined;
    r.duplicates = pipeline->stats().duplicates;
    for (const core::AnalyzedCert& a : pipeline->analyzed()) {
        r.findings += a.report.findings.size();
    }
    if (expected != nullptr) {
        // Ground truth from the generator: each injected defect fires
        // its DefectSpec::expected_lint on the cert's wire bytes, unless
        // the cert predates that lint's effective date.
        for (const ExpectedLint& e : *expected) {
            bool fired = r.quarantined == 0 && e.index < r.analyzed &&
                         pipeline->analyzed()[e.index].report.has_lint(e.lint);
            if (fired != e.fires) ++r.defect_misses;
        }
    }
    return r;
}

std::vector<double> cert_path_layers(const DerCorpus& input, double seconds,
                                     const std::string& trace_dir, Outcome& out) {
    std::vector<BytesView> ders = input.views();
    std::vector<lint::Registry> registries;
    for (const TypeLayer& t : kTypeLayers) registries.push_back(type_registry(t.type));

    // Per-certificate replay of the calls the pipeline makes for each
    // entry (index -> lint -> materialize), each wrapped in a span, plus
    // one run per Table 1 type's rule subset.
    Tracer replay(true);
    core::Arena arena;
    uint64_t findings = 0;
    uint64_t allocations = 0;
    for (size_t i = 0; i < ders.size(); ++i) {
        ScopedSpan cert_span(replay, "cert", i);
        core::ArenaScope scope(arena);
        Expected<x509::LazyCertificate> lazy = [&] {
            ScopedSpan span(replay, "x509.index", i);
            return x509::LazyCertificate::index(ders[i], &arena);
        }();
        if (!lazy.ok()) continue;
        {
            ScopedSpan span(replay, "lint.run", i);
            uint64_t before = counted_allocations();
            count_allocations(true);
            lint::CertReport report = lint::run_lints(*lazy, lint::default_registry());
            count_allocations(false);
            allocations += counted_allocations() - before;
            findings += report.findings.size();
        }
        {
            ScopedSpan span(replay, "x509.materialize", i);
            x509::Certificate cert = lazy->materialize();
        }
        for (size_t k = 0; k < registries.size(); ++k) {
            ScopedSpan span(replay, kTypeLayers[k].span, i);
            lint::CertReport report = lint::run_lints(*lazy, registries[k]);
        }
    }
    const double certs = static_cast<double>(ders.size());

    // Whole passes: jobs=2 for at least `seconds`, then one at jobs=1
    // (the work the replay splits up), which the earlier passes warm.
    // The findings count is a sentinel, not a cost: every pass must
    // repeat the replay's exactly.
    Tracer passes(true);
    std::vector<double> pass_s;
    bool repeated = true;
    double start = now_s();
    do {
        PassResult r = census_pass(input, kCensusJobs, passes, pass_s.size() + 1, nullptr);
        pass_s.push_back(r.pass_s);
        repeated = repeated && r.findings == findings;
    } while (now_s() - start < seconds);
    PassResult serial = census_pass(input, 1, passes, 0, nullptr);
    repeated = repeated && serial.findings == findings;
    out.tally(ders.size(), repeated ? 0 : ders.size());
    out.note("lint.findings_per_cert: " + std::to_string(findings / certs) +
             (repeated ? " (every pipeline pass: same)" : " (pipeline passes: DIFFERENT)"));

    // The jobs=1 pipeline also drains tasks on its fetching thread, so
    // the replay is compared with the pass's CPU time, not its wall time.
    double attributed = replay.layer("x509.index").total_s + replay.layer("lint.run").total_s +
                        replay.layer("x509.materialize").total_s;
    std::printf("jobs=1 pipeline: %.3f s wall, %.3f s cpu\n", serial.pipeline_s,
                serial.pipeline_cpu_s);
    print_layer_table(replay, serial.pipeline_cpu_s,
                      "per-certificate replay (share of one jobs=1 pipeline pass's cpu time)");
    print_layer_table(passes,
                      passes.layer("census.pass").total_s +
                          passes.layer("census.pass_jobs1").total_s,
                      "census passes");

    out.add("x509.index_us", replay.mean_us("x509.index"), "us");
    out.add("x509.materialize_us", replay.mean_us("x509.materialize"), "us");
    out.add("lint.run_us", replay.mean_us("lint.run"), "us");
    for (const TypeLayer& t : kTypeLayers) {
        out.add(std::string(t.span) + "_us", replay.mean_us(t.span), "us");
    }
    out.add("lint.allocs_per_cert", allocations / certs, "count");
    out.add("core.aggregate_ms", passes.mean_us("core.aggregate") / 1e3, "ms");
    out.add("core.pipeline_unattributed_share", 1.0 - attributed / serial.pipeline_cpu_s, "ratio");
    out.add("core.parallel_speedup", serial.pass_s / quantile(pass_s, 0.5), "ratio");

    replay.write(trace_dir + "/trace-replay.csv");
    passes.write(trace_dir + "/trace-passes.csv");
    return pass_s;
}

void crypto_layers(const std::vector<BytesView>& ders, Outcome& out) {
    // Each probe repeats its fixed input until it has run for 0.2 s, so
    // the rate does not depend on how many entries the workload has.
    constexpr double kProbeSeconds = 0.2;
    Tracer tracer(true);
    size_t bytes = 0;
    for (BytesView der : ders) bytes += der.size();

    size_t reps = 0;
    {
        ScopedSpan span(tracer, "crypto.sha256_bulk", 0);
        double start = now_s();
        do {
            for (BytesView der : ders) (void)crypto::sha256(der);
            ++reps;
        } while (now_s() - start < kProbeSeconds);
    }
    double bulk_s = tracer.layer("crypto.sha256_bulk").total_s;
    out.add("crypto.sha256_bulk_mb_per_s", static_cast<double>(bytes * reps) / bulk_s / 1e6,
            "MB/s");

    std::vector<crypto::Digest> leaves;
    {
        ScopedSpan span(tracer, "ctlog.merkle.leaf_hash", 0);
        for (BytesView der : ders) leaves.push_back(ctlog::leaf_hash(der));
    }
    out.add("ctlog.merkle.leaf_hash_us",
            tracer.layer("ctlog.merkle.leaf_hash").total_s * 1e6 / static_cast<double>(ders.size()),
            "us");

    // Interior nodes hash 0x01 || left || right: 65 bytes per call.
    size_t nodes = 0;
    {
        ScopedSpan span(tracer, "ctlog.merkle.node_hash", 0);
        double start = now_s();
        do {
            for (size_t i = 0; i + 1 < leaves.size(); ++i) {
                (void)ctlog::node_hash(leaves[i], leaves[i + 1]);
                ++nodes;
            }
        } while (now_s() - start < kProbeSeconds);
    }
    out.add("crypto.sha256_node_mb_per_s",
            static_cast<double>(nodes) * 65.0 / tracer.layer("ctlog.merkle.node_hash").total_s /
                1e6,
            "MB/s");
    print_layer_table(tracer, tracer.layer("crypto.sha256_bulk").total_s +
                                  tracer.layer("ctlog.merkle.leaf_hash").total_s +
                                  tracer.layer("ctlog.merkle.node_hash").total_s,
                      "hash probes over the workload's DER");
}

namespace {

struct CensusSetup {
    DerCorpus input;
    std::vector<ctlog::CorpusCert> corpus;
    double seconds = 0;
};

// True when `cert.der` decodes to `cert` itself. DER carries the serial
// in minimal form, so the in-memory serial is compared without its
// leading zero bytes.
bool der_parses_back(const x509::Certificate& cert) {
    auto parsed = x509::parse_certificate(cert.der);
    if (!parsed.ok()) return false;
    x509::Certificate expected = cert;
    while (expected.serial.size() > 1 && expected.serial.front() == 0) {
        expected.serial.erase(expected.serial.begin());
    }
    return parsed.value() == expected;
}

CensusSetup census_setup(uint64_t seed) {
    CensusSetup s;
    double t0 = now_s();
    ctlog::CorpusGenerator gen({.seed = seed, .scale = 1000.0, .sign_certificates = true});
    s.corpus = gen.generate();
    s.input = concat_der(corpus_ders(s.corpus));
    s.seconds = now_s() - t0;
    return s;
}

}  // namespace

Outcome run_census(const Args& args) {
    Outcome out;

    std::vector<double> setup_s;
    CensusSetup setup;
    for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
        setup = CensusSetup{};  // free the last corpus before building the next
        setup = census_setup(args.seed);
        setup_s.push_back(setup.seconds);
    }
    const DerCorpus& input = setup.input;
    const size_t certs = input.offsets.size() - 1;

    // Workload properties, counted here and not repaired. Two generator
    // defects show in them:
    //  * each Table 3 variant gets a signed sibling's DER before its
    //    serial and Subject O change, so it reaches the census as a
    //    byte-duplicate of that sibling;
    //  * a defect may be injected into a cert issued before its
    //    expected lint takes effect. With effective dates respected
    //    (the paper's configuration) that lint must then stay silent.
    std::vector<ExpectedLint> expected;
    size_t der_mismatch = 0;
    size_t before_effective = 0;
    size_t missing_rule = 0;
    for (size_t i = 0; i < setup.corpus.size(); ++i) {
        const ctlog::CorpusCert& c = setup.corpus[i];
        if (c.defect) {
            const char* name =
                ctlog::defect_specs()[static_cast<size_t>(*c.defect)].expected_lint;
            const lint::Rule* rule = lint::default_registry().find(name);
            // A missing rule can never fire, so it is expected to: its
            // defects then fail the oracle on every pass.
            bool applies =
                rule == nullptr || c.cert.validity.not_before >= rule->info.effective_date;
            if (rule == nullptr) ++missing_rule;
            if (!applies) ++before_effective;
            expected.push_back({i, name, applies});
        }
        if (!der_parses_back(c.cert)) ++der_mismatch;
    }
    setup.corpus = {};
    out.note("certs: " + std::to_string(certs));
    out.note("der_mib: " + std::to_string(input.buffer.size() / 1048576.0));
    out.note("injected_defects: " + std::to_string(expected.size()));
    out.note("injected_defects_before_lint_effective_date: " + std::to_string(before_effective));
    out.note("injected_defects_with_no_such_lint: " + std::to_string(missing_rule));
    out.note("der_not_matching_in_memory_cert: " + std::to_string(der_mismatch));

    // Untimed warm-up pass; it also fixes the reference Table 1 JSON.
    Tracer off(false);
    PassResult warm = census_pass(input, kCensusJobs, off, 0, &expected);
    out.tally(certs, warm.analyzed == certs ? warm.quarantined + warm.defect_misses : certs);
    const std::string reference = warm.taxonomy_json;

    if (args.trace) {
        std::vector<double> pass_s = cert_path_layers(input, args.seconds, args.workdir, out);
        out.add("trace.throughput_per_s", certs_per_s(certs, pass_s), "1/s");
        out.add("trace.latency_tail_ms", quantile(pass_s, 0.75) * 1e3, "ms");
        crypto_layers(input.views(), out);
        monitor_probe_layers(input.views(), args, out);
        return out;
    }

    if (!reset_peak_rss()) out.note("peak_rss_reset: failed, peak covers setup");
    std::vector<double> pass_s;
    double start = now_s();
    do {
        PassResult r = census_pass(input, kCensusJobs, off, pass_s.size() + 1, &expected);
        pass_s.push_back(r.pass_s);
        bool whole = r.duplicates == 0 && r.analyzed == certs && r.taxonomy_json == reference &&
                     r.findings == warm.findings;
        out.tally(certs, whole ? r.quarantined + r.defect_misses : certs);
    } while (now_s() - start < args.seconds || pass_s.size() < kMinPasses);
    double peak = peak_rss_mib();

    // Table 1 must not depend on the worker count.
    PassResult serial = census_pass(input, 1, off, 0, &expected);
    out.tally(certs, serial.taxonomy_json == reference && serial.analyzed == certs &&
                             serial.findings == warm.findings
                         ? serial.quarantined + serial.defect_misses
                         : certs);

    out.note("passes: " + std::to_string(pass_s.size()));
    out.note("census_pass_p50_ms: " + std::to_string(quantile(pass_s, 0.5) * 1e3));
    out.add("setup_s", quantile(setup_s, 0.5), "s");
    out.add("throughput_per_s", certs_per_s(certs, pass_s), "1/s");
    out.add("latency_tail_ms", quantile(pass_s, 0.75) * 1e3, "ms");
    out.add("peak_rss_mib", peak, "MiB");
    return out;
}

}  // namespace perfbench
