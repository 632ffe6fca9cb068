// Parallel/serial parity: the property the whole parallel pipeline is
// built around. For every (corpus seed, lint set, thread count, fault
// plan) the parallel run's per-cert results, aggregate tables, stats,
// and quarantine list must be byte-identical to the serial
// CompliancePipeline's. The fingerprints below serialize everything the
// paper's tables/figures consume plus the full per-cert finding stream,
// so "identical" is one string comparison.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "asn1/time.h"
#include "core/log_ingest.h"
#include "core/parallel_pipeline.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "ctlog/log.h"
#include "faultsim/faulty_cert_source.h"
#include "faultsim/faulty_log_source.h"
#include "lint/lint.h"
#include "x509/builder.h"

namespace unicert {
namespace {

constexpr size_t kJobSweep[] = {1, 2, 4, 8};

// Every aggregate the paper consumes, plus per-cert order and findings:
// if any of this differs the parallel merge is not deterministic.
std::string full_fingerprint(const core::CompliancePipeline& pipeline) {
    std::ostringstream out;
    out << "nc=" << pipeline.noncompliant_count() << "/" << pipeline.analyzed().size() << "\n";
    for (const core::AnalyzedCert& a : pipeline.analyzed()) {
        out << (a.noncompliant ? "N" : "-");
        for (const lint::Finding& f : a.report.findings) {
            out << " " << f.lint->name << "(" << f.detail << ")";
        }
        out << "\n";
    }

    core::TaxonomyReport taxonomy = pipeline.taxonomy_report();  // Table 1
    out << "taxonomy " << taxonomy.total_certs << " " << taxonomy.total_nc << " "
        << taxonomy.total_nc_trusted << "\n";
    for (const core::TaxonomyRow& row : taxonomy.rows) {
        out << lint::nc_type_name(row.type) << " " << row.lints_all << " " << row.nc_lints
            << " " << row.nc_certs << " " << row.error_certs << " " << row.warning_certs
            << " " << row.trusted_certs << "\n";
    }
    for (const core::IssuerRow& row : pipeline.issuer_report(10)) {  // Table 2
        out << row.organization << " " << row.total << " " << row.noncompliant << "\n";
    }
    for (const core::LintRow& row : pipeline.top_lints(15)) {  // Table 11
        out << row.name << " " << row.nc_certs << "\n";
    }
    for (const core::YearRow& row : pipeline.yearly_trend()) {  // Figure 2
        out << row.year << " " << row.all << " " << row.noncompliant << "\n";
    }
    core::ValidityCdf cdf = pipeline.validity_cdf();  // Figure 3
    out << "cdf " << cdf.idn_certs.size() << " " << cdf.other_unicerts.size() << " "
        << cdf.noncompliant.size() << "\n";

    // Stats + quarantine, verbatim.
    out << core::render_pipeline_stats(pipeline.stats());
    out << core::render_quarantine_report(pipeline.quarantine_report());
    return out.str();
}

core::PipelineOptions deterministic_options(core::Clock& clock) {
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

class ParallelParity : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
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

std::vector<ctlog::CorpusCert>* ParallelParity::corpus_ = nullptr;

// ---- CertSource path ---------------------------------------------------------

TEST_F(ParallelParity, CleanStreamMatchesSerialAcrossThreadCounts) {
    core::ManualClock serial_clock;
    core::VectorCertSource serial_source(*corpus_);
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    const std::string expected = full_fingerprint(serial);

    for (size_t jobs : kJobSweep) {
        core::ManualClock clock;
        core::VectorCertSource source(*corpus_);
        core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = jobs});
        EXPECT_EQ(parallel.jobs(), jobs);
        EXPECT_EQ(full_fingerprint(parallel), expected) << "jobs=" << jobs;
        EXPECT_EQ(parallel.stats(), serial.stats()) << "jobs=" << jobs;
        EXPECT_EQ(parallel.quarantine_report(), serial.quarantine_report());
    }
}

TEST_F(ParallelParity, FaultedStreamMatchesSerialByteForByte) {
    for (uint64_t seed : {1234u, 555u, 9001u}) {
        core::ManualClock serial_clock;
        faultsim::FaultyCertSource serial_source(*corpus_, faultsim::FaultPlan(chaos_plan(seed)));
        core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
        ASSERT_GT(serial.stats().quarantined, 0u) << "seed " << seed << " injected nothing";
        ASSERT_GT(serial.stats().duplicates, 0u);
        const std::string expected = full_fingerprint(serial);

        for (size_t jobs : kJobSweep) {
            core::ManualClock clock;
            faultsim::FaultyCertSource source(*corpus_, faultsim::FaultPlan(chaos_plan(seed)));
            core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = jobs});
            // The whole surface: aggregates, per-cert stream, stats
            // (including retry/duplicate/recovered counts), quarantine
            // records in order, and simulated backoff time.
            EXPECT_EQ(full_fingerprint(parallel), expected)
                << "seed=" << seed << " jobs=" << jobs;
            EXPECT_EQ(clock.total_slept_ms(), serial_clock.total_slept_ms());
            EXPECT_EQ(source.injected_faults(), serial_source.injected_faults());
        }
    }
}

TEST_F(ParallelParity, TinyBatchesPreserveParity) {
    // A stream with fewer than 16 entries per worker is dispatched in
    // one-entry batches, which maximizes interleaving; the merge must
    // still emit delivery order, faults included.
    std::vector<ctlog::CorpusCert> slice(corpus_->begin(), corpus_->begin() + 60);
    core::ManualClock serial_clock;
    faultsim::FaultyCertSource serial_source(slice, faultsim::FaultPlan(chaos_plan(42)));
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    ASSERT_GT(serial.stats().quarantined, 0u) << "no poison injected";
    ASSERT_GT(serial.stats().duplicates, 0u) << "no duplicates injected";
    const std::string expected = full_fingerprint(serial);

    core::ManualClock clock;
    faultsim::FaultyCertSource source(slice, faultsim::FaultPlan(chaos_plan(42)));
    core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = 4});
    EXPECT_EQ(full_fingerprint(parallel), expected);
}

TEST_F(ParallelParity, EmptySourceYieldsEmptyCompletedRun) {
    std::vector<ctlog::CorpusCert> empty;
    core::VectorCertSource source(empty);
    core::ParallelPipeline parallel(source, {}, {.jobs = 4});
    EXPECT_TRUE(parallel.stats().completed);
    EXPECT_EQ(parallel.stats().processed, 0u);
    EXPECT_TRUE(parallel.analyzed().empty());
    EXPECT_TRUE(parallel.quarantine_report().records.empty());
}

// A stream that dies permanently mid-way (same shape as the chaos
// test's abort rung).
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

TEST_F(ParallelParity, AbortedStreamMatchesSerialPartialResults) {
    core::ManualClock serial_clock;
    DyingSource serial_source(*corpus_, 50);
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    ASSERT_FALSE(serial.stats().completed);
    const std::string expected = full_fingerprint(serial);

    for (size_t jobs : kJobSweep) {
        core::ManualClock clock;
        DyingSource source(*corpus_, 50);
        core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = jobs});
        EXPECT_FALSE(parallel.stats().completed);
        EXPECT_EQ(parallel.stats().abort_error.code, "source_closed");
        EXPECT_EQ(full_fingerprint(parallel), expected) << "jobs=" << jobs;
    }
}

TEST_F(ParallelParity, ProgressHookFiresSerializedAndMonotonic) {
    std::vector<ctlog::CorpusCert> slice(corpus_->begin(),
                                         corpus_->begin() + std::min<size_t>(200, corpus_->size()));
    core::VectorCertSource source(slice);
    core::ManualClock clock;
    core::PipelineOptions options = deterministic_options(clock);
    std::vector<size_t> reports;
    std::atomic<int> concurrent{0};
    options.progress_interval = 25;
    options.progress = [&](size_t processed, size_t hint) {
        // The pipeline promises serialized invocation.
        EXPECT_EQ(concurrent.fetch_add(1), 0);
        reports.push_back(processed);
        EXPECT_EQ(hint, slice.size());
        concurrent.fetch_sub(1);
    };
    core::ParallelPipeline parallel(source, options, {.jobs = 4});
    ASSERT_EQ(parallel.stats().processed, slice.size());
    // Every interval multiple up to the total, each exactly once, in order.
    ASSERT_EQ(reports.size(), slice.size() / 25);
    for (size_t i = 0; i < reports.size(); ++i) EXPECT_EQ(reports[i], (i + 1) * 25);
}

// ---- LogSource path ----------------------------------------------------------

namespace oids = asn1::oids;

x509::Certificate make_leaf(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {static_cast<uint8_t>(host.size()), 0x0E};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), host)});
    cert.issuer = x509::make_dn({x509::make_attribute(oids::organization_name(), "Parity CA")});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(host).public_key();
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Parity CA");
    x509::sign_certificate(cert, ca);
    return cert;
}

ctlog::CtLog make_parity_log(int entries) {
    ctlog::CtLog log("parity-log");
    for (int i = 0; i < entries; ++i) {
        log.submit(make_leaf("p" + std::to_string(i) + ".example"),
                   asn1::make_time(2025, 2, 1));
    }
    return log;
}

TEST(ParallelLogParity, ShardedIngestionMatchesSerialFullRange) {
    ctlog::CtLog log = make_parity_log(60);
    ctlog::InMemoryLogSource inner(log);

    // Serial reference: the whole log as one stream.
    core::ManualClock serial_clock;
    core::LogCertSource serial_source(inner, 0, 60);
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    ASSERT_TRUE(serial.stats().completed);
    ASSERT_EQ(serial.stats().processed, 60u);
    const std::string expected = full_fingerprint(serial);

    for (size_t jobs : kJobSweep) {
        core::ManualClock clock;
        core::LogCertSource source(inner, 0, 60);
        core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = jobs});
        EXPECT_EQ(full_fingerprint(parallel), expected) << "jobs=" << jobs;
        EXPECT_EQ(source.next_index(), 60u) << "jobs=" << jobs;
    }
}

TEST(ParallelLogParity, FaultedShardsStillMatchSerial) {
    ctlog::CtLog log = make_parity_log(48);
    ctlog::InMemoryLogSource inner(log);

    faultsim::FaultPlanOptions plan;
    plan.seed = 31337;
    plan.transient_rate = 0.15;
    plan.duplicate_rate = 0.1;
    plan.poison_rate = 0.08;
    plan.transient_failures = 2;

    // Serial reference over a fresh fault decorator (per-instance fault
    // state replays identically).
    core::ManualClock serial_clock;
    faultsim::FaultyLogSource serial_faulty(inner, faultsim::FaultPlan(plan));
    core::LogCertSource serial_source(serial_faulty, 0, 48);
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    ASSERT_TRUE(serial.stats().completed);
    ASSERT_GT(serial.stats().retries, 0u);
    ASSERT_GT(serial.stats().quarantined, 0u);
    const std::string expected = full_fingerprint(serial);

    for (size_t jobs : kJobSweep) {
        core::ManualClock clock;
        faultsim::FaultyLogSource faulty(inner, faultsim::FaultPlan(plan));
        core::LogCertSource source(faulty, 0, 48);
        core::ParallelPipeline parallel(source, deterministic_options(clock), {.jobs = jobs});
        // The fault schedule is per-index and one thread fetches, so
        // the job count changes neither which entries fault nor when.
        EXPECT_EQ(full_fingerprint(parallel), expected) << "jobs=" << jobs;
        EXPECT_EQ(faulty.injected_faults(), serial_faulty.injected_faults());
    }
}

TEST(ParallelLogParity, ProgressCountsRunWideAcrossShards) {
    ctlog::CtLog log = make_parity_log(80);
    ctlog::InMemoryLogSource inner(log);
    const std::vector<size_t> every_25 = {25, 50, 75};

    auto progress_options = [](core::Clock& clock, std::vector<size_t>& reports) {
        core::PipelineOptions options = deterministic_options(clock);
        options.progress_interval = 25;
        options.progress = [&reports](size_t processed, size_t hint) {
            reports.push_back(processed);
            EXPECT_EQ(hint, 80u);
        };
        return options;
    };

    std::vector<size_t> serial_reports;
    core::ManualClock serial_clock;
    core::LogCertSource serial_source(inner, 0, 80);
    core::CompliancePipeline serial(serial_source, progress_options(serial_clock, serial_reports));
    EXPECT_EQ(serial_reports, every_25);

    // No batch holds 25 entries (80 / (jobs * 8) is at most 10), so the
    // count is run-wide.
    for (size_t jobs : kJobSweep) {
        std::vector<size_t> reports;
        core::ManualClock clock;
        core::LogCertSource source(inner, 0, 80);
        core::ParallelPipeline parallel(source, progress_options(clock, reports), {.jobs = jobs});
        EXPECT_EQ(reports, every_25) << "jobs=" << jobs;
    }
}

TEST(ParallelLogParity, AbortedShardResumesFromCheckpoint) {
    ctlog::CtLog log = make_parity_log(40);
    ctlog::InMemoryLogSource inner(log);

    // Fails one entry persistently until told to heal.
    class HealableSource final : public ctlog::LogSource {
    public:
        HealableSource(ctlog::LogSource& inner, size_t fail_at)
            : inner_(&inner), fail_at_(fail_at) {}
        void heal() { healed_ = true; }
        std::string name() const override { return inner_->name(); }
        Expected<ctlog::SignedTreeHead> latest_tree_head() override {
            return inner_->latest_tree_head();
        }
        Expected<ctlog::RawLogEntry> entry_at(size_t index) override {
            if (!healed_ && index == fail_at_) {
                return Error{"source_closed", "entry permanently offline"};
            }
            return inner_->entry_at(index);
        }
        Expected<crypto::Digest> root_at(size_t n) override { return inner_->root_at(n); }

    private:
        ctlog::LogSource* inner_;
        size_t fail_at_;
        bool healed_ = false;
    };

    // The serial ladder's fingerprint of the aborted pass: everything
    // before entry 25, then one fetch record at 25, the cursor held there.
    HealableSource serial_log(inner, 25);
    core::ManualClock serial_clock;
    core::LogCertSource serial_source(serial_log, 0, 40);
    core::CompliancePipeline serial(serial_source, deterministic_options(serial_clock));
    ASSERT_FALSE(serial.stats().completed);
    ASSERT_EQ(serial.stats().processed, 25u);
    ASSERT_EQ(serial_source.next_index(), 25u);
    const std::string expected = full_fingerprint(serial);

    // Every job count stops at the same entry with the same records.
    for (size_t jobs : kJobSweep) {
        HealableSource healable(inner, 25);
        core::ManualClock clock;
        core::LogCertSource source(healable, 0, 40);
        core::ParallelPipeline first(source, deterministic_options(clock), {.jobs = jobs});
        EXPECT_EQ(full_fingerprint(first), expected) << "jobs=" << jobs;
        EXPECT_FALSE(first.stats().completed);
        EXPECT_EQ(first.stats().abort_error.code, "source_closed");
        EXPECT_EQ(first.stats().processed, 25u) << "jobs=" << jobs;
        const auto& records = first.quarantine_report().records;
        ASSERT_EQ(records.size(), 1u) << "jobs=" << jobs;
        EXPECT_EQ(records[0].stage, core::QuarantineStage::kFetch);
        EXPECT_EQ(records[0].entry_index, 25u) << "jobs=" << jobs;
        EXPECT_EQ(source.next_index(), 25u) << "jobs=" << jobs;

        // Resume at the cursor after the fault clears: only the
        // remaining entries run, nothing is re-fetched.
        healable.heal();
        core::ManualClock resume_clock;
        core::LogCertSource rest(healable, source.next_index(), 40);
        core::ParallelPipeline resumed(rest, deterministic_options(resume_clock), {.jobs = jobs});
        EXPECT_TRUE(resumed.stats().completed);
        EXPECT_EQ(resumed.stats().processed, 15u) << "jobs=" << jobs;
        EXPECT_EQ(rest.next_index(), 40u);
    }
}

}  // namespace
}  // namespace unicert
