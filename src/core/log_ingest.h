// unicert/core/log_ingest.h
//
// Adapter that turns one shard of a ctlog::LogSource into a
// core::CertSource so the compliance pipeline (serial or parallel)
// ingests CT logs directly. Entries are delivered as wire DER in log
// order; the cursor only advances on a delivery the pipeline received,
// so a transient fetch failure retries the same entry and the exposed
// ShardCheckpoint makes an aborted pass resumable without re-fetching
// or double-counting (the shard-level analogue of Monitor::sync's
// checkpoint).
#pragma once

#include "core/pipeline.h"
#include "ctlog/log_source.h"
#include "ctlog/shard.h"

namespace unicert::core {

class LogCertSource final : public CertSource {
public:
    // Consume [range.begin, range.end) of `log`. `resume_at` rewinds or
    // fast-forwards the cursor inside the range (clamped), for resuming
    // from a prior checkpoint.
    LogCertSource(ctlog::LogSource& log, ctlog::ShardRange range);
    LogCertSource(ctlog::LogSource& log, const ctlog::ShardCheckpoint& resume);

    size_t size_hint() const override { return cursor_ >= range_.end ? 0 : range_.end - cursor_; }

    // Delivers the entry at the cursor as CertEntry{index, der}. A
    // response carrying a different index than requested is a stale
    // delivery, surfaced as the transient "stale_read" error so the
    // pipeline's retry ladder re-fetches; the cursor never advances on
    // an error.
    Expected<std::optional<CertEntry>> next() override;

    // Current durable position. `completed` is true once the cursor
    // reached range.end.
    ctlog::ShardCheckpoint checkpoint() const noexcept;

private:
    ctlog::LogSource* log_;
    ctlog::ShardRange range_;
    size_t cursor_;
};

}  // namespace unicert::core
