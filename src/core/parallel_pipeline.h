// unicert/core/parallel_pipeline.h
//
// The parallel compliance pipeline: shard a certificate stream across
// the work-stealing Executor and absorb shard results in input order,
// so that for every (corpus, lint set, thread count, fault plan) the
// emitted report, stats, and quarantine list are byte-identical to the
// serial CompliancePipeline. Every path runs the same per-entry step
// (internal::analyze_entry) and shares one progress counter. Two
// ingestion shapes:
//
//  * CertSource: a generic pull stream is inherently serial, so the
//    constructor thread runs the serial fetch/retry/dedup ladder and
//    fans the per-entry step (the hot path) out in batches sized from
//    the stream's size hint. Batches are absorbed in submission order,
//    then the fetch thread's own counts, so an abort record comes last.
//    Because dedup decisions depend on whether an earlier delivery of
//    the same index succeeded (a poison copy fails parse; the intact
//    original must then be processed), the fetch thread stalls on the
//    rare in-flight-index collision until that entry's outcome is
//    known — the serial decision, reproduced.
//
//  * ctlog::LogSource: entry fetches are random-access, so the log
//    splits into one contiguous range per job (ctlog::shard_ranges) and
//    each shard runs the serial ladder, internal::run_stream, over its
//    own LogCertSource. Shards are absorbed in range order (= log
//    order), and each exposes a ShardCheckpoint so an aborted pass
//    resumes per shard. Requires the LogSource to tolerate concurrent
//    reads when jobs > 1 (InMemoryLogSource and FaultyLogSource both
//    do).
//
// See DESIGN.md §8 for the concurrency model and the reentrancy
// contract lint rules must satisfy.
#pragma once

#include <vector>

#include "core/pipeline.h"
#include "ctlog/log_source.h"
#include "ctlog/shard.h"

namespace unicert::core {

struct ParallelOptions {
    // Worker threads, and shards on the LogSource path.
    // 0 = Executor::default_concurrency().
    size_t jobs = 0;
};

class ParallelPipeline : public CompliancePipeline {
public:
    // Generic stream: serial fetch ladder + parallel parse/lint.
    explicit ParallelPipeline(CertSource& source, PipelineOptions options = {},
                              ParallelOptions parallel = {});

    // Sharded CT-log ingestion over [0, latest_tree_head().tree_size).
    explicit ParallelPipeline(ctlog::LogSource& log, PipelineOptions options = {},
                              ParallelOptions parallel = {});

    // Resume a previous sharded ingestion: completed shards are
    // skipped, aborted shards continue from their cursor. The merged
    // result covers only entries processed by THIS pass.
    ParallelPipeline(ctlog::LogSource& log, std::vector<ctlog::ShardCheckpoint> resume,
                     PipelineOptions options = {}, ParallelOptions parallel = {});

    size_t jobs() const noexcept { return jobs_; }

    // LogSource path only: one checkpoint per shard, in range order.
    // Empty for CertSource runs.
    const std::vector<ctlog::ShardCheckpoint>& shard_checkpoints() const noexcept {
        return shard_checkpoints_;
    }

private:
    void run_batched(CertSource& source, const PipelineOptions& options);
    void run_sharded(ctlog::LogSource& log, std::vector<ctlog::ShardCheckpoint> shards,
                     const PipelineOptions& options);

    size_t jobs_ = 1;
    std::vector<ctlog::ShardCheckpoint> shard_checkpoints_;
};

}  // namespace unicert::core
