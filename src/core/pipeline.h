// unicert/core/pipeline.h
//
// The paper's measurement pipeline as a public API: run the 95-lint
// registry over a (synthetic) CT corpus and aggregate the Section 4
// results — the noncompliance taxonomy (Table 1), issuer rankings
// (Table 2), top lints (Table 11), the issuance/noncompliance trend
// (Figure 2), validity CDFs (Figure 3) and the field-usage heatmap
// (Figure 4) — plus the Subject-variant detector behind Table 3.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/resilience.h"
#include "ctlog/corpus.h"
#include "lint/lint.h"

namespace unicert::core {

// Per-certificate lint outcome joined with corpus metadata.
struct AnalyzedCert {
    const ctlog::CorpusCert* cert = nullptr;
    lint::CertReport report;
    bool noncompliant = false;
};

// ---- Table 1 ---------------------------------------------------------------

struct TaxonomyRow {
    lint::NcType type;
    size_t lints_all = 0;
    size_t lints_new = 0;
    size_t nc_lints = 0;       // lints of this type that fired at least once
    size_t nc_certs = 0;       // unique noncompliant certs with a finding of this type
    size_t nc_certs_new = 0;   // …only detected by new lints
    size_t error_certs = 0;
    size_t warning_certs = 0;
    size_t trusted_certs = 0;
    size_t recent_certs = 0;   // issued 2024-2025
    size_t alive_certs = 0;    // valid into 2024-2025
};

struct TaxonomyReport {
    std::vector<TaxonomyRow> rows;  // one per NcType, Table 1 order
    size_t total_certs = 0;
    size_t total_nc = 0;
    size_t total_nc_trusted = 0;
};

// ---- Table 2 ----------------------------------------------------------------

struct IssuerRow {
    std::string organization;
    ctlog::TrustStatus trust;
    std::string region;
    size_t total = 0;
    size_t noncompliant = 0;
    size_t recent_nc = 0;  // NC certs issued 2024-2025
};

// ---- Table 11 ---------------------------------------------------------------

struct LintRow {
    std::string name;
    lint::NcType type;
    bool is_new = false;
    lint::Severity severity;
    size_t nc_certs = 0;
};

// ---- Figure 2 ---------------------------------------------------------------

struct YearRow {
    int year = 0;
    size_t all = 0;
    size_t trusted = 0;
    size_t noncompliant = 0;
    size_t alive = 0;  // still valid at the end of that year
};

// ---- Figure 3 ---------------------------------------------------------------

struct ValidityCdf {
    // Sorted lifetime days per class; quantile(q) interpolates.
    std::vector<int64_t> idn_certs;
    std::vector<int64_t> other_unicerts;
    std::vector<int64_t> noncompliant;

    static double quantile(const std::vector<int64_t>& sorted, double q);
    // Fraction of values <= days.
    static double cdf_at(const std::vector<int64_t>& sorted, int64_t days);
};

// ---- Figure 4 ---------------------------------------------------------------

struct FieldUsageCell {
    size_t unicode_count = 0;    // certs with non-ASCII content in the field
    size_t deviation_count = 0;  // …that violate the standard there
};

// issuer organization -> field label -> usage.
using FieldHeatmap = std::map<std::string, std::map<std::string, FieldUsageCell>>;

// ---- Table 3 -----------------------------------------------------------------

enum class VariantStrategy {
    kCaseConversion,
    kWhitespaceVariant,
    kNonPrintableInsertion,
    kSymbolSubstitution,
    kAbbreviationVariant,
    kReplacementCharacter,
};

const char* variant_strategy_name(VariantStrategy s) noexcept;

struct VariantGroup {
    VariantStrategy strategy;
    std::vector<std::string> values;  // the distinct raw Subject O values
};

// ---- Streaming ingestion ------------------------------------------------------

// One certificate as delivered by a (possibly faulty) stream. Intact
// corpus entries carry `meta`; wire-form entries carry raw DER the
// pipeline must parse (and may have to quarantine).
struct CertEntry {
    size_t index = 0;                         // stable identity for dedup
    const ctlog::CorpusCert* meta = nullptr;  // parsed corpus record, if available
    Bytes der;                                // owned wire bytes, parsed when meta == nullptr
    // Borrowed wire bytes, e.g. a slice of an mmap'd corpus file. The
    // backing buffer must outlive the pipeline run; sources that cannot
    // guarantee that fill `der` instead.
    BytesView view;

    BytesView bytes() const noexcept { return view.empty() ? BytesView(der) : view; }
};

// Pull-based certificate stream. next() may fail transiently (the
// pipeline retries per its RetryPolicy) and may deliver duplicates or
// garbage; end-of-stream is a successful nullopt.
class CertSource {
public:
    virtual ~CertSource() = default;

    virtual size_t size_hint() const { return 0; }
    virtual Expected<std::optional<CertEntry>> next() = 0;
};

// Fault-free adapter over an in-memory corpus.
class VectorCertSource final : public CertSource {
public:
    explicit VectorCertSource(const std::vector<ctlog::CorpusCert>& corpus)
        : corpus_(&corpus) {}

    size_t size_hint() const override { return corpus_->size(); }
    Expected<std::optional<CertEntry>> next() override {
        if (pos_ >= corpus_->size()) return std::optional<CertEntry>{};
        CertEntry entry;
        entry.index = pos_;
        entry.meta = &(*corpus_)[pos_];
        ++pos_;
        return std::optional<CertEntry>(std::move(entry));
    }

private:
    const std::vector<ctlog::CorpusCert>* corpus_;
    size_t pos_ = 0;
};

// Wire-form source over one contiguous buffer of back-to-back DER
// certificates (the layout of an mmap'd corpus segment; see
// core::Fs::map_readonly). Entries borrow from the buffer — the stream
// itself never copies a certificate — so the buffer must outlive the
// pipeline run. A malformed TLV boundary is a permanent stream error
// (the pipeline aborts with the offset into the file); garbage *inside*
// a well-delimited certificate is quarantined per cert as usual.
class DerFileCertSource final : public CertSource {
public:
    explicit DerFileCertSource(BytesView data);

    size_t size_hint() const override { return count_; }
    Expected<std::optional<CertEntry>> next() override;

private:
    BytesView data_;
    size_t pos_ = 0;
    size_t index_ = 0;
    size_t count_ = 0;  // prescanned entry count
};

// ---- Quarantine & stats -------------------------------------------------------

// Where in the per-cert ladder an entry failed.
enum class QuarantineStage { kFetch, kParse, kLint };

const char* quarantine_stage_name(QuarantineStage s) noexcept;

// One isolated entry: the stage it failed at plus the recoverable error
// (code, message, byte offset for parse failures).
struct QuarantineRecord {
    size_t entry_index = 0;
    QuarantineStage stage = QuarantineStage::kParse;
    Error error;

    bool operator==(const QuarantineRecord&) const = default;
};

struct QuarantineReport {
    std::vector<QuarantineRecord> records;

    bool operator==(const QuarantineReport&) const = default;
};

// Ingestion accounting surfaced through core::report and unicert_lint.
struct PipelineStats {
    size_t processed = 0;    // entries aggregated into the tables
    size_t recovered = 0;    // faults absorbed: retried fetches + deduped deliveries
    size_t quarantined = 0;  // entries isolated instead of propagating
    size_t retries = 0;      // individual retry attempts
    size_t duplicates = 0;   // redelivered entries suppressed by index dedup
    bool completed = true;   // false when the stream aborted (see abort_error)
    Error abort_error;

    bool operator==(const PipelineStats&) const = default;
};

struct PipelineOptions {
    lint::RunOptions lint_options;
    // Registry override (tests inject hostile rules); default registry
    // when null.
    const lint::Registry* registry = nullptr;
    core::RetryPolicy retry;
    core::Clock* clock = nullptr;  // system clock when null
    // Observability hook: invoked after every `progress_interval`
    // successfully linted certificates (and never concurrently — the
    // pipeline serializes calls, including from parallel runs). Purely
    // observational; it must not mutate pipeline state.
    std::function<void(size_t processed, size_t size_hint)> progress;
    size_t progress_interval = 5000;
};

// ---- Pipeline -----------------------------------------------------------------

namespace internal {

// Everything one ingestion run, or one batch of a run, produces.
// Every path fills these and lands them in the pipeline through
// CompliancePipeline::absorb, in input order.
struct StreamState {
    std::vector<AnalyzedCert> analyzed;
    // Wire-parsed certs. A list so absorb can splice it without moving
    // an element: AnalyzedCert::cert points into it.
    std::list<ctlog::CorpusCert> owned;
    size_t nc_count = 0;
    PipelineStats stats;
    QuarantineReport quarantine;

    // Bottom of the ladder: the stream itself failed past the retry
    // budget, so the run ends with its partial results kept. The fetch
    // record names `entry_index`, one past the highest entry index
    // delivered before the failure (0 if none): over a LogCertSource,
    // its next_index().
    void abort(size_t entry_index, Error error);
};

// The one progress counter of a run, shared by all its batches: each
// linted certificate counts once run-wide, and every multiple of
// progress_interval reaches the hook exactly once, in order, under a
// mutex so calls never overlap.
class ProgressCounter {
public:
    ProgressCounter(const PipelineOptions& options, size_t size_hint)
        : options_(options), size_hint_(size_hint) {}

    void count_one();

private:
    const PipelineOptions& options_;
    size_t size_hint_;
    std::mutex mu_;
    size_t linted_ = 0;
};

// One fetch through options.retry, with its retries and recovery
// counted into `state`.
template <typename T>
Expected<T> fetch(const PipelineOptions& options, StreamState& state,
                  const std::function<Expected<T>()>& op) {
    RetryOutcome outcome;
    Expected<T> result = core::retry<T>(
        options.retry, options.clock != nullptr ? *options.clock : system_clock(), op, &outcome);
    state.stats.retries += outcome.retries;
    if (result.ok() && outcome.retries > 0) ++state.stats.recovered;
    return result;
}

// The per-entry step of every ingestion path. A wire entry is indexed
// zero-copy, linted, and materialized only if linting succeeds; a
// corpus entry is linted as it is. Records either an AnalyzedCert or a
// parse/lint quarantine record into `state`; returns true for the
// former.
bool analyze_entry(const CertEntry& entry, const PipelineOptions& options,
                   ProgressCounter& progress, StreamState& state);

// The streaming ladder — retry transient fetch faults, dedup
// redeliveries by entry index, analyze each new entry, abort on
// permanent stream failure. Both constructors of CompliancePipeline run
// it; it is the serial reference ParallelPipeline's results must equal.
void run_stream(CertSource& source, const PipelineOptions& options, ProgressCounter& progress,
                StreamState& state);

}  // namespace internal

class CompliancePipeline {
public:
    // In-memory corpus: runs a VectorCertSource through the streaming
    // ladder with the default registry.
    explicit CompliancePipeline(const std::vector<ctlog::CorpusCert>& corpus,
                                lint::RunOptions options = {});

    // Streaming constructor with per-cert isolation: transient stream
    // faults are retried, unparseable or lint-crashing entries land in
    // the quarantine report, duplicate deliveries are deduped by entry
    // index, and a permanent stream failure aborts with the partial
    // stats preserved (stats().completed == false). Resilience never
    // changes measured results: a recoverable fault schedule yields
    // aggregates identical to the fault-free run.
    explicit CompliancePipeline(CertSource& source, PipelineOptions options = {});

    const std::vector<AnalyzedCert>& analyzed() const noexcept { return analyzed_; }

    size_t noncompliant_count() const noexcept { return nc_count_; }
    double noncompliance_rate() const noexcept;

    const PipelineStats& stats() const noexcept { return stats_; }
    const QuarantineReport& quarantine_report() const noexcept { return quarantine_; }

    TaxonomyReport taxonomy_report() const;                  // Table 1
    std::vector<IssuerRow> issuer_report(size_t top_n) const;  // Table 2
    std::vector<LintRow> top_lints(size_t top_n) const;      // Table 11
    std::vector<YearRow> yearly_trend() const;               // Figure 2
    ValidityCdf validity_cdf() const;                        // Figure 3
    FieldHeatmap field_heatmap() const;                      // Figure 4
    std::vector<VariantGroup> subject_variants() const;      // Table 3

protected:
    // For ParallelPipeline: construct empty, then absorb each batch in
    // input order.
    CompliancePipeline() = default;

    // The one way results enter the pipeline: append `state` after
    // everything absorbed so far.
    void absorb(internal::StreamState&& state);

private:
    std::vector<AnalyzedCert> analyzed_;
    std::list<ctlog::CorpusCert> owned_;  // wire-parsed certs (stable addresses)
    size_t nc_count_ = 0;
    PipelineStats stats_;
    QuarantineReport quarantine_;
};

}  // namespace unicert::core
