// unicert/core/parallel_pipeline.h
//
// The parallel compliance pipeline: fan a certificate stream out across
// the work-stealing Executor and absorb batch results in input order,
// so that for every (corpus, lint set, thread count, fault plan) the
// emitted report, stats, and quarantine list are byte-identical to the
// serial CompliancePipeline. It runs the same per-entry step
// (internal::analyze_entry) as the serial ladder and shares one
// progress counter across its batches.
//
// A generic pull stream is inherently serial, so the constructor
// thread runs the serial fetch/retry/dedup ladder and fans the
// per-entry step (the hot path) out in batches sized from the stream's
// size hint. Batches are absorbed in submission order, then the fetch
// thread's own counts, so an abort record comes last. Because dedup
// decisions depend on whether an earlier delivery of the same index
// succeeded (a poison copy fails parse; the intact original must then
// be processed), the fetch thread stalls on the rare in-flight-index
// collision until that entry's outcome is known — the serial decision,
// reproduced. A CT log enters as a core::LogCertSource, fetched by the
// one fetch thread, so an aborted pass stops at the same entry with
// the same records at every job count.
//
// See DESIGN.md §8 for the concurrency model and the reentrancy
// contract lint rules must satisfy.
#pragma once

#include "core/pipeline.h"

namespace unicert::core {

struct ParallelOptions {
    // Worker threads. 0 = Executor::default_concurrency().
    size_t jobs = 0;
};

class ParallelPipeline : public CompliancePipeline {
public:
    // Serial fetch ladder + parallel parse/lint.
    explicit ParallelPipeline(CertSource& source, PipelineOptions options = {},
                              ParallelOptions parallel = {});

    size_t jobs() const noexcept { return jobs_; }

private:
    size_t jobs_ = 1;
};

}  // namespace unicert::core
