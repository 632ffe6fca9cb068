#include "core/parallel_pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "core/executor.h"
#include "core/log_ingest.h"

namespace unicert::core {
namespace {

// Dedup state per entry index. Serial semantics: an index is only
// suppressed as a duplicate once an earlier delivery of it SUCCEEDED;
// failed deliveries (poison copies, throwing lints) are retried by the
// stream and must be re-processed.
enum class EntryOutcome { kInFlight, kSucceeded, kFailed };

struct DedupState {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<size_t, EntryOutcome> outcome;
};

size_t resolve_jobs(const ParallelOptions& parallel) {
    return parallel.jobs != 0 ? parallel.jobs : Executor::default_concurrency();
}

size_t auto_batch_size(size_t size_hint, size_t jobs) {
    if (size_hint == 0) return 64;
    // Several batches per worker so stealing can balance skew.
    return std::clamp<size_t>(size_hint / (jobs * 8), 1, 1024);
}

}  // namespace

ParallelPipeline::ParallelPipeline(CertSource& source, PipelineOptions options,
                                   ParallelOptions parallel)
    : jobs_(resolve_jobs(parallel)) {
    run_batched(source, options);
}

ParallelPipeline::ParallelPipeline(ctlog::LogSource& log, PipelineOptions options,
                                   ParallelOptions parallel)
    : jobs_(resolve_jobs(parallel)) {
    run_sharded(log, {}, options);
}

ParallelPipeline::ParallelPipeline(ctlog::LogSource& log,
                                   std::vector<ctlog::ShardCheckpoint> resume,
                                   PipelineOptions options, ParallelOptions parallel)
    : jobs_(resolve_jobs(parallel)) {
    run_sharded(log, std::move(resume), options);
}

void ParallelPipeline::run_batched(CertSource& source, const PipelineOptions& options) {
    const size_t size_hint = source.size_hint();
    const size_t batch_size = auto_batch_size(size_hint, jobs_);
    internal::ProgressCounter progress(options, size_hint);

    DedupState dedup;
    // One state per batch, in submission (= delivery) order. A deque so
    // the fetch thread appends while workers hold references to their
    // own slots; only this thread touches the container itself.
    std::deque<internal::StreamState> batches;
    std::vector<CertEntry> current;
    current.reserve(batch_size);
    // Declared after what its tasks use, so that even on an exception
    // its destructor drains them before that state goes away.
    Executor pool(jobs_);

    auto flush = [&] {
        if (current.empty()) return;
        internal::StreamState& slot = batches.emplace_back();
        pool.submit([entries = std::move(current), &slot, &dedup, &options, &progress] {
            std::vector<bool> succeeded;
            succeeded.reserve(entries.size());
            for (const CertEntry& entry : entries) {
                succeeded.push_back(internal::analyze_entry(entry, options, progress, slot));
            }
            std::lock_guard<std::mutex> lk(dedup.mu);
            for (size_t i = 0; i < entries.size(); ++i) {
                dedup.outcome[entries[i].index] =
                    succeeded[i] ? EntryOutcome::kSucceeded : EntryOutcome::kFailed;
            }
            dedup.cv.notify_all();
        });
        current = {};
        current.reserve(batch_size);
    };

    // Should a delivery of `index` be dispatched (true) or suppressed
    // as a duplicate (false)? Exactly the serial decision: suppress iff
    // an earlier delivery of the index succeeded. When that earlier
    // delivery is still in flight, flush and wait for its outcome.
    auto should_process = [&](size_t index) {
        std::unique_lock<std::mutex> lk(dedup.mu);
        auto it = dedup.outcome.find(index);
        if (it == dedup.outcome.end()) return true;
        if (it->second == EntryOutcome::kInFlight) {
            lk.unlock();
            flush();  // the in-flight copy may still sit in the open batch
            lk.lock();
            dedup.cv.wait(lk, [&] {
                return dedup.outcome.at(index) != EntryOutcome::kInFlight;
            });
            it = dedup.outcome.find(index);
        }
        return it->second == EntryOutcome::kFailed;
    };

    // The serial fetch ladder; only the per-entry step is deferred to
    // batches. Its own counts land after every batch.
    internal::StreamState fetched;
    std::optional<Error> abort_error;
    for (;;) {
        auto item = internal::fetch<std::optional<CertEntry>>(options, fetched,
                                                             [&] { return source.next(); });
        if (!item.ok()) {
            abort_error = item.error();
            break;
        }
        if (!item->has_value()) break;  // end of stream
        CertEntry& entry = **item;

        if (!should_process(entry.index)) {
            ++fetched.stats.duplicates;
            ++fetched.stats.recovered;
            continue;
        }
        {
            std::lock_guard<std::mutex> lk(dedup.mu);
            dedup.outcome[entry.index] = EntryOutcome::kInFlight;
        }
        current.push_back(std::move(entry));
        if (current.size() >= batch_size) flush();
    }
    flush();
    pool.wait_idle();

    for (internal::StreamState& batch : batches) absorb(std::move(batch));
    // Like the serial ladder, the abort record follows everything
    // delivered before it; its index is the unique-success count.
    if (abort_error) fetched.abort(stats().processed, std::move(*abort_error));
    absorb(std::move(fetched));
}

void ParallelPipeline::run_sharded(ctlog::LogSource& log,
                                   std::vector<ctlog::ShardCheckpoint> shards,
                                   const PipelineOptions& options) {
    if (shards.empty()) {
        internal::StreamState head;
        auto sth = internal::fetch<ctlog::SignedTreeHead>(options, head,
                                                          [&] { return log.latest_tree_head(); });
        if (!sth.ok()) head.abort(0, sth.error());
        absorb(std::move(head));
        if (!sth.ok()) return;
        for (const ctlog::ShardRange& range : ctlog::shard_ranges(sth->tree_size, jobs_)) {
            shards.push_back({range, range.begin, false});
        }
    }
    shard_checkpoints_ = std::move(shards);

    size_t remaining = 0;
    for (const ctlog::ShardCheckpoint& cp : shard_checkpoints_) remaining += cp.remaining();
    internal::ProgressCounter progress(options, remaining);

    std::vector<internal::StreamState> states(shard_checkpoints_.size());
    {
        Executor pool(jobs_);
        for (size_t i = 0; i < shard_checkpoints_.size(); ++i) {
            if (shard_checkpoints_[i].completed) continue;
            pool.submit([this, i, &log, &states, &options, &progress] {
                LogCertSource source(log, shard_checkpoints_[i]);
                internal::run_stream(source, options, progress, states[i]);
                // An aborted stream leaves the cursor at the failing
                // entry, so completed stays false and resume retries it.
                shard_checkpoints_[i] = source.checkpoint();
            });
        }
        pool.wait_idle();
    }

    // Shards are contiguous index ranges, so absorbing them in range
    // order reproduces global log order.
    for (internal::StreamState& state : states) absorb(std::move(state));
}

}  // namespace unicert::core
