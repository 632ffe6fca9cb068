// unicert/core/log_ingest.h
//
// The one way a CT log enters the compliance pipeline: a cursor over
// [begin, end) of a ctlog::LogSource, read through the ordinary
// CertSource constructors (serial or parallel). Entries are delivered
// as wire DER in log order, each tagged with its log index. The cursor
// only advances on a delivery the pipeline received, so a transient
// fetch failure retries the same entry, and after an aborted pass
// next_index() is the failing entry: a new LogCertSource starting
// there resumes without re-fetching or double-counting. That is the
// pipeline's analogue of Monitor::sync's checkpoint, and the way to
// keep reading a log that grows.
#pragma once

#include "core/pipeline.h"
#include "ctlog/log_source.h"

namespace unicert::core {

class LogCertSource final : public CertSource {
public:
    LogCertSource(ctlog::LogSource& log, size_t begin, size_t end)
        : log_(&log), cursor_(begin), end_(end) {}

    size_t size_hint() const override { return cursor_ >= end_ ? 0 : end_ - cursor_; }

    // Delivers the entry at the cursor as CertEntry{index, der}. A
    // response carrying a different index than requested is a stale
    // delivery, surfaced as the transient "stale_read" error so the
    // pipeline's retry ladder re-fetches; the cursor never advances on
    // an error.
    Expected<std::optional<CertEntry>> next() override;

    // The next entry to deliver: where a resumed pass starts. Reaches
    // `end` once the range is consumed.
    size_t next_index() const noexcept { return cursor_; }

private:
    ctlog::LogSource* log_;
    size_t cursor_;
    size_t end_;
};

}  // namespace unicert::core
