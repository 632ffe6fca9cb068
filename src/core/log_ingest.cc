#include "core/log_ingest.h"

namespace unicert::core {

Expected<std::optional<CertEntry>> LogCertSource::next() {
    if (cursor_ >= end_) return std::optional<CertEntry>{};
    auto fetched = log_->entry_at(cursor_);
    if (!fetched.ok()) return fetched.error();
    if (fetched->index != cursor_) {
        // Stale/duplicate delivery: transient by the resilience
        // taxonomy, so the pipeline retries this cursor position.
        return Error{"stale_read", "requested entry " + std::to_string(cursor_) +
                                       ", log served " + std::to_string(fetched->index)};
    }
    CertEntry entry;
    entry.index = cursor_;
    entry.der = std::move(fetched->leaf_der);
    ++cursor_;
    return std::optional<CertEntry>(std::move(entry));
}

}  // namespace unicert::core
