// Chaos tests: the resilient consumers driven through seeded fault
// schedules. The core invariant — resilience must never change the
// measurement — is asserted by comparing the faulted run's aggregate
// tables byte-for-byte against the fault-free run.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "asn1/time.h"
#include "core/parallel_pipeline.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "ctlog/log.h"
#include "ctlog/monitor.h"
#include "faultsim/faulty_cert_source.h"
#include "faultsim/faulty_log_source.h"
#include "lint/lint.h"
#include "x509/builder.h"

namespace unicert {
namespace {

// Serialize every aggregate the paper's tables/figures are built from,
// so "the measurement is unchanged" is a single string comparison.
std::string aggregate_fingerprint(const core::CompliancePipeline& pipeline) {
    std::ostringstream out;
    out << "nc=" << pipeline.noncompliant_count() << "/" << pipeline.analyzed().size() << "\n";

    core::TaxonomyReport taxonomy = pipeline.taxonomy_report();  // Table 1
    out << "taxonomy " << taxonomy.total_certs << " " << taxonomy.total_nc << " "
        << taxonomy.total_nc_trusted << "\n";
    for (const core::TaxonomyRow& row : taxonomy.rows) {
        out << lint::nc_type_name(row.type) << " " << row.lints_all << " " << row.nc_lints
            << " " << row.nc_certs << " " << row.nc_certs_new << " " << row.error_certs << " "
            << row.warning_certs << " " << row.trusted_certs << " " << row.recent_certs << " "
            << row.alive_certs << "\n";
    }
    for (const core::IssuerRow& row : pipeline.issuer_report(10)) {  // Table 2
        out << row.organization << " " << row.total << " " << row.noncompliant << " "
            << row.recent_nc << "\n";
    }
    for (const core::LintRow& row : pipeline.top_lints(15)) {  // Table 11
        out << row.name << " " << row.nc_certs << "\n";
    }
    for (const core::YearRow& row : pipeline.yearly_trend()) {  // Figure 2
        out << row.year << " " << row.all << " " << row.noncompliant << "\n";
    }
    core::ValidityCdf cdf = pipeline.validity_cdf();  // Figure 3
    out << "cdf " << cdf.idn_certs.size() << " " << cdf.other_unicerts.size() << " "
        << cdf.noncompliant.size() << " "
        << core::ValidityCdf::quantile(cdf.noncompliant, 0.5) << "\n";
    return out.str();
}

core::PipelineOptions chaos_options(core::Clock& clock) {
    core::PipelineOptions options;
    options.clock = &clock;
    options.retry.jitter_fraction = 0.0;
    return options;
}

faultsim::FaultPlanOptions chaos_plan(uint64_t seed) {
    faultsim::FaultPlanOptions plan;
    plan.seed = seed;
    plan.transient_rate = 0.05;
    plan.duplicate_rate = 0.05;
    plan.poison_rate = 0.04;
    plan.transient_failures = 2;
    return plan;
}

class ChaosPipeline : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        // Signed DER so poison copies corrupt real certificate bytes.
        ctlog::CorpusGenerator gen(
            {.seed = 77, .scale = 40000.0, .sign_certificates = true});
        corpus_ = new std::vector<ctlog::CorpusCert>(gen.generate());
        ASSERT_GT(corpus_->size(), 100u);
    }
    static void TearDownTestSuite() {
        delete corpus_;
        corpus_ = nullptr;
    }

    static std::vector<ctlog::CorpusCert>* corpus_;
};

std::vector<ctlog::CorpusCert>* ChaosPipeline::corpus_ = nullptr;

TEST_F(ChaosPipeline, FaultedRunReproducesFaultFreeAggregatesExactly) {
    core::CompliancePipeline clean(*corpus_);
    std::string clean_fp = aggregate_fingerprint(clean);

    core::ManualClock clock;
    faultsim::FaultyCertSource source(*corpus_, faultsim::FaultPlan(chaos_plan(1234)));
    core::CompliancePipeline faulted(source, chaos_options(clock));

    // The schedule actually exercised every rung of the ladder…
    EXPECT_GT(source.injected_faults(), 0u);
    const core::PipelineStats& stats = faulted.stats();
    EXPECT_TRUE(stats.completed);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_GT(stats.quarantined, 0u);
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_GT(stats.recovered, 0u);
    EXPECT_EQ(stats.processed, corpus_->size());
    EXPECT_EQ(stats.quarantined, faulted.quarantine_report().records.size());
    EXPECT_GT(clock.total_slept_ms(), 0);  // backoff consumed simulated time only

    // …and none of it leaked into the measurement.
    EXPECT_EQ(aggregate_fingerprint(faulted), clean_fp);
}

TEST_F(ChaosPipeline, SameSeedYieldsIdenticalStatsAndQuarantine) {
    core::ManualClock clock_a, clock_b;
    faultsim::FaultyCertSource source_a(*corpus_, faultsim::FaultPlan(chaos_plan(555)));
    faultsim::FaultyCertSource source_b(*corpus_, faultsim::FaultPlan(chaos_plan(555)));
    core::CompliancePipeline a(source_a, chaos_options(clock_a));
    core::CompliancePipeline b(source_b, chaos_options(clock_b));

    EXPECT_EQ(a.stats(), b.stats());
    EXPECT_EQ(a.quarantine_report(), b.quarantine_report());
    EXPECT_EQ(clock_a.total_slept_ms(), clock_b.total_slept_ms());
    EXPECT_GT(a.stats().quarantined, 0u);

    // A different seed lands faults elsewhere.
    core::ManualClock clock_c;
    faultsim::FaultyCertSource source_c(*corpus_, faultsim::FaultPlan(chaos_plan(556)));
    core::CompliancePipeline c(source_c, chaos_options(clock_c));
    EXPECT_NE(a.quarantine_report(), c.quarantine_report());
    // …but never into the aggregates.
    EXPECT_EQ(aggregate_fingerprint(a), aggregate_fingerprint(c));
}

TEST_F(ChaosPipeline, QuarantineRecordsCarryParseEvidence) {
    core::ManualClock clock;
    faultsim::FaultyCertSource source(*corpus_, faultsim::FaultPlan(chaos_plan(777)));
    core::CompliancePipeline pipeline(source, chaos_options(clock));
    ASSERT_GT(pipeline.quarantine_report().records.size(), 0u);
    for (const core::QuarantineRecord& record : pipeline.quarantine_report().records) {
        EXPECT_EQ(record.stage, core::QuarantineStage::kParse);
        EXPECT_FALSE(record.error.code.empty());
        EXPECT_LT(record.entry_index, corpus_->size());
    }
    // The rendered report is non-empty and mentions the stage.
    std::string rendered = core::render_quarantine_report(pipeline.quarantine_report());
    EXPECT_NE(rendered.find("parse"), std::string::npos);
    std::string stats = core::render_pipeline_stats(pipeline.stats());
    EXPECT_NE(stats.find("quarantined"), std::string::npos);
}

// A stream that dies permanently mid-way: the ladder's abort rung.
class DyingSource final : public core::CertSource {
public:
    DyingSource(const std::vector<ctlog::CorpusCert>& corpus, size_t die_at)
        : corpus_(&corpus), die_at_(die_at) {}

    Expected<std::optional<core::CertEntry>> next() override {
        if (pos_ >= die_at_) return Error{"source_closed", "stream terminated"};
        core::CertEntry entry;
        entry.index = pos_;
        entry.meta = &(*corpus_)[pos_];
        ++pos_;
        return std::optional<core::CertEntry>(std::move(entry));
    }

private:
    const std::vector<ctlog::CorpusCert>* corpus_;
    size_t die_at_;
    size_t pos_ = 0;
};

TEST_F(ChaosPipeline, PermanentStreamFailureAbortsWithPartialStats) {
    core::ManualClock clock;
    DyingSource source(*corpus_, 50);
    core::CompliancePipeline pipeline(source, chaos_options(clock));
    EXPECT_FALSE(pipeline.stats().completed);
    EXPECT_EQ(pipeline.stats().abort_error.code, "source_closed");
    EXPECT_EQ(pipeline.stats().processed, 50u);
    EXPECT_EQ(pipeline.analyzed().size(), 50u);
    std::string rendered = core::render_pipeline_stats(pipeline.stats());
    EXPECT_NE(rendered.find("ABORTED"), std::string::npos);
    EXPECT_NE(rendered.find("source_closed"), std::string::npos);
}

TEST_F(ChaosPipeline, ThrowingLintIsQuarantinedNotFatal) {
    // A hostile registry whose single rule throws on every cert: each
    // entry lands in quarantine at the lint stage and the run completes,
    // whether the slice arrives as corpus records or as wire DER (which
    // is parsed before it is linted).
    lint::Registry hostile;
    lint::Rule rule;
    rule.info.name = "x_always_throws";
    rule.info.severity = lint::Severity::kError;
    rule.check = [](const lint::CertView&) -> std::optional<std::string> {
        throw std::runtime_error("rule exploded");
    };
    hostile.add(std::move(rule));

    std::vector<ctlog::CorpusCert> slice(corpus_->begin(), corpus_->begin() + 20);
    core::ManualClock clock;
    core::PipelineOptions options = chaos_options(clock);
    options.registry = &hostile;
    auto expect_all_quarantined = [&](const core::CompliancePipeline& pipeline,
                                      const std::string& label) {
        EXPECT_TRUE(pipeline.stats().completed) << label;
        EXPECT_EQ(pipeline.stats().processed, 0u) << label;
        EXPECT_EQ(pipeline.stats().quarantined, slice.size()) << label;
        EXPECT_TRUE(pipeline.analyzed().empty()) << label;
        ASSERT_EQ(pipeline.quarantine_report().records.size(), slice.size()) << label;
        for (const core::QuarantineRecord& record : pipeline.quarantine_report().records) {
            EXPECT_EQ(record.stage, core::QuarantineStage::kLint) << label;
            EXPECT_EQ(record.error.code, "lint_exception") << label;
            EXPECT_NE(record.error.message.find("rule exploded"), std::string::npos) << label;
        }
    };

    core::VectorCertSource source(slice);
    expect_all_quarantined(core::CompliancePipeline(source, options), "corpus records");

    Bytes blob;
    for (const ctlog::CorpusCert& c : slice) {
        blob.insert(blob.end(), c.cert.der.begin(), c.cert.der.end());
    }
    for (size_t jobs : {1u, 2u}) {
        core::DerFileCertSource wire(blob);
        expect_all_quarantined(core::ParallelPipeline(wire, options, {.jobs = jobs}),
                               "wire DER, jobs " + std::to_string(jobs));
    }
}

// ---- Monitor chaos -----------------------------------------------------------

namespace oids = asn1::oids;

x509::Certificate make_leaf(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {static_cast<uint8_t>(host.size()), 0x0C};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), host)});
    cert.issuer = x509::make_dn({x509::make_attribute(oids::organization_name(), "Chaos CA")});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(host).public_key();
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Chaos CA");
    x509::sign_certificate(cert, ca);
    return cert;
}

TEST(ChaosMonitor, FaultedSyncIndexesExactlyTheFaultFreeSet) {
    ctlog::CtLog log("chaos-log");
    for (int i = 0; i < 40; ++i) {
        log.submit(make_leaf("host" + std::to_string(i) + ".example"),
                   asn1::make_time(2025, 2, 1));
    }
    ctlog::InMemoryLogSource inner(log);

    ctlog::Monitor clean(ctlog::monitor_profiles()[0]);
    core::ManualClock clean_clock;
    ctlog::SyncReport clean_report = clean.sync(inner, {.jitter_fraction = 0.0}, &clean_clock);
    ASSERT_TRUE(clean_report.completed);

    faultsim::FaultPlanOptions plan;
    plan.seed = 42;
    plan.transient_rate = 0.2;
    plan.duplicate_rate = 0.15;
    plan.poison_rate = 0.1;
    plan.transient_failures = 2;
    faultsim::FaultyLogSource faulty(inner, faultsim::FaultPlan(plan));

    ctlog::Monitor monitor(ctlog::monitor_profiles()[0]);
    core::ManualClock clock;
    ctlog::SyncReport report = monitor.sync(faulty, {.jitter_fraction = 0.0}, &clock);
    ASSERT_TRUE(report.completed);
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(report.quarantined.size(), 0u);
    EXPECT_GT(report.duplicates_skipped, 0u);
    // Every corrupted entry was quarantined; everything else indexed.
    EXPECT_EQ(report.indexed + report.quarantined.size() + report.precerts_skipped, 40u);
    EXPECT_EQ(monitor.indexed_count() + report.quarantined.size(), clean.indexed_count());
    EXPECT_EQ(monitor.checkpoint().next_index, 40u);
    EXPECT_EQ(monitor.checkpoint().tree_size, 40u);

    // The cursor advanced past the quarantined entries deliberately: a
    // second pass re-indexes nothing (no double counting, no re-fetch).
    ctlog::SyncReport second = monitor.sync(faulty, {.jitter_fraction = 0.0}, &clock);
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(second.indexed, 0u);
}

TEST(ChaosMonitor, RegressedHeadIsResyncedOrReportedAsSplitView) {
    ctlog::CtLog log("regress-log");
    for (int i = 0; i < 16; ++i) {
        log.submit(make_leaf("r" + std::to_string(i) + ".example"),
                   asn1::make_time(2025, 2, 1));
    }
    ctlog::InMemoryLogSource inner(log);

    // First sync establishes the 16-entry checkpoint.
    ctlog::Monitor monitor(ctlog::monitor_profiles()[0]);
    core::ManualClock clock;
    ASSERT_TRUE(monitor.sync(inner, {.jitter_fraction = 0.0}, &clock).completed);

    // A source that persistently serves a regressed head: split view.
    faultsim::FaultPlanOptions plan;
    plan.seed = 9;
    plan.head_regression_rate = 1.0;
    faultsim::FaultyLogSource equivocating(inner, faultsim::FaultPlan(plan));
    ctlog::SyncReport report =
        monitor.sync(equivocating, {.max_attempts = 3, .jitter_fraction = 0.0}, &clock);
    EXPECT_FALSE(report.completed);
    EXPECT_TRUE(report.split_view_detected);
    EXPECT_EQ(report.abort_error.code, "split_view");
    EXPECT_GT(report.resyncs, 0u);
    // The checkpoint is untouched: nothing was double-indexed.
    EXPECT_EQ(monitor.checkpoint().tree_size, 16u);
    EXPECT_EQ(monitor.checkpoint().next_index, 16u);

    // A transiently stale head (exactly one bad read) recovers via
    // re-sync from the last consistent checkpoint.
    class OneShotStaleSource final : public ctlog::LogSource {
    public:
        explicit OneShotStaleSource(ctlog::LogSource& inner) : inner_(&inner) {}
        std::string name() const override { return inner_->name(); }
        Expected<ctlog::SignedTreeHead> latest_tree_head() override {
            auto sth = inner_->latest_tree_head();
            if (sth.ok() && !served_stale_ && sth->tree_size > 1) {
                served_stale_ = true;
                ctlog::SignedTreeHead stale = sth.value();
                stale.tree_size /= 2;
                stale.root_hash = inner_->root_at(stale.tree_size).value();
                return stale;
            }
            return sth;
        }
        Expected<ctlog::RawLogEntry> entry_at(size_t index) override {
            return inner_->entry_at(index);
        }
        Expected<crypto::Digest> root_at(size_t n) override { return inner_->root_at(n); }

    private:
        ctlog::LogSource* inner_;
        bool served_stale_ = false;
    };
    OneShotStaleSource flaky(inner);
    ctlog::SyncReport recovered =
        monitor.sync(flaky, {.max_attempts = 6, .jitter_fraction = 0.0}, &clock);
    EXPECT_TRUE(recovered.completed);
    EXPECT_EQ(recovered.resyncs, 1u);
    EXPECT_EQ(monitor.checkpoint().tree_size, 16u);
}

}  // namespace
}  // namespace unicert
