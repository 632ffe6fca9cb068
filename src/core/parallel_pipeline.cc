#include "core/parallel_pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "core/executor.h"

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
    size_t delivered_end = 0;  // one past the highest entry index delivered
    for (;;) {
        auto item = internal::fetch<std::optional<CertEntry>>(options, fetched,
                                                             [&] { return source.next(); });
        if (!item.ok()) {
            abort_error = item.error();
            break;
        }
        if (!item->has_value()) break;  // end of stream
        CertEntry& entry = **item;
        delivered_end = std::max(delivered_end, entry.index + 1);

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
    // delivered before it and names the entry after the last of them.
    if (abort_error) fetched.abort(delivered_end, std::move(*abort_error));
    absorb(std::move(fetched));
}

}  // namespace unicert::core
