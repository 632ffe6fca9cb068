// Shard substrate tests: range partitioning laws and LogCertSource's
// cursor/checkpoint discipline — the pieces the parallel pipeline's
// deterministic merge and per-shard resume are built on.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "asn1/time.h"
#include "core/log_ingest.h"
#include "ctlog/log.h"
#include "ctlog/log_source.h"
#include "ctlog/shard.h"
#include "x509/builder.h"

namespace unicert {
namespace {

namespace oids = asn1::oids;

x509::Certificate make_leaf(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {static_cast<uint8_t>(host.size()), 0x0D};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), host)});
    cert.issuer = x509::make_dn({x509::make_attribute(oids::organization_name(), "Shard CA")});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(host).public_key();
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Shard CA");
    x509::sign_certificate(cert, ca);
    return cert;
}

ctlog::CtLog make_log(const std::string& name, int entries) {
    ctlog::CtLog log(name);
    for (int i = 0; i < entries; ++i) {
        log.submit(make_leaf("s" + std::to_string(i) + ".example"),
                   asn1::make_time(2025, 2, 1));
    }
    return log;
}

// ---- shard_ranges ------------------------------------------------------------

TEST(ShardRanges, PartitionLaws) {
    // For every (total, shards) pair: ranges are contiguous, disjoint,
    // cover [0, total), are balanced to within one entry, and larger
    // shards come first.
    for (size_t total : {0u, 1u, 2u, 7u, 8u, 9u, 100u, 101u, 1000u}) {
        for (size_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
            auto ranges = ctlog::shard_ranges(total, shards);
            if (total == 0) {
                EXPECT_TRUE(ranges.empty());
                continue;
            }
            ASSERT_EQ(ranges.size(), std::min(shards, total));
            EXPECT_EQ(ranges.front().begin, 0u);
            EXPECT_EQ(ranges.back().end, total);
            size_t covered = 0;
            for (size_t i = 0; i < ranges.size(); ++i) {
                EXPECT_FALSE(ranges[i].empty());
                covered += ranges[i].size();
                if (i > 0) {
                    EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);  // contiguous
                    EXPECT_LE(ranges[i].size(), ranges[i - 1].size());  // larger first
                    EXPECT_GE(ranges[i - 1].size(), ranges[i].size());
                }
                EXPECT_LE(ranges.front().size() - ranges.back().size(), 1u);  // balanced
            }
            EXPECT_EQ(covered, total);
        }
    }
}

TEST(ShardRanges, MoreShardsThanEntriesCollapses) {
    auto ranges = ctlog::shard_ranges(3, 8);
    ASSERT_EQ(ranges.size(), 3u);
    for (const ctlog::ShardRange& r : ranges) EXPECT_EQ(r.size(), 1u);
}

// ---- LogCertSource -----------------------------------------------------------

TEST(LogCertSource, WalksExactlyItsRangeInOrder) {
    ctlog::CtLog log = make_log("walk-log", 15);
    ctlog::InMemoryLogSource inner(log);
    core::LogCertSource source(inner, ctlog::ShardRange{4, 11});
    EXPECT_EQ(source.size_hint(), 7u);

    size_t expect = 4;
    for (;;) {
        auto item = source.next();
        ASSERT_TRUE(item.ok());
        if (!item->has_value()) break;
        EXPECT_EQ((*item)->index, expect);
        EXPECT_EQ((*item)->meta, nullptr);  // wire-form delivery
        EXPECT_FALSE((*item)->der.empty());
        ++expect;
    }
    EXPECT_EQ(expect, 11u);
    EXPECT_EQ(source.size_hint(), 0u);

    ctlog::ShardCheckpoint cp = source.checkpoint();
    EXPECT_TRUE(cp.completed);
    EXPECT_EQ(cp.next_index, 11u);
    EXPECT_EQ(cp.remaining(), 0u);

    // Exhausted source stays exhausted.
    auto again = source.next();
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->has_value());
}

TEST(LogCertSource, CursorHoldsOnFetchFailureAndResumes) {
    ctlog::CtLog log = make_log("resume-log", 10);
    ctlog::InMemoryLogSource inner(log);

    // A source that fails entry 6 forever: the cursor must stick there.
    class FailAtSource final : public ctlog::LogSource {
    public:
        FailAtSource(ctlog::LogSource& inner, size_t fail_at)
            : inner_(&inner), fail_at_(fail_at) {}
        std::string name() const override { return inner_->name(); }
        Expected<ctlog::SignedTreeHead> latest_tree_head() override {
            return inner_->latest_tree_head();
        }
        Expected<ctlog::RawLogEntry> entry_at(size_t index) override {
            if (index == fail_at_) return Error{"unavailable", "entry offline"};
            return inner_->entry_at(index);
        }
        Expected<crypto::Digest> root_at(size_t n) override { return inner_->root_at(n); }

    private:
        ctlog::LogSource* inner_;
        size_t fail_at_;
    };

    FailAtSource flaky(inner, 6);
    core::LogCertSource source(flaky, ctlog::ShardRange{0, 10});
    for (int i = 0; i < 6; ++i) {
        auto item = source.next();
        ASSERT_TRUE(item.ok());
        ASSERT_TRUE(item->has_value());
    }
    // Entry 6 fails; the cursor must not advance however often we poll.
    for (int attempt = 0; attempt < 3; ++attempt) {
        auto item = source.next();
        EXPECT_FALSE(item.ok());
        EXPECT_EQ(item.error().code, "unavailable");
    }
    ctlog::ShardCheckpoint cp = source.checkpoint();
    EXPECT_FALSE(cp.completed);
    EXPECT_EQ(cp.next_index, 6u);
    EXPECT_EQ(cp.remaining(), 4u);

    // Resume against a healthy source finishes the range.
    core::LogCertSource resumed(inner, cp);
    size_t expect = 6;
    for (;;) {
        auto item = resumed.next();
        ASSERT_TRUE(item.ok());
        if (!item->has_value()) break;
        EXPECT_EQ((*item)->index, expect++);
    }
    EXPECT_EQ(expect, 10u);
    EXPECT_TRUE(resumed.checkpoint().completed);
}

TEST(LogCertSource, StaleDeliverySurfacesAsTransientError) {
    ctlog::CtLog log = make_log("stale-log", 5);
    ctlog::InMemoryLogSource inner(log);

    // A source that serves entry index-1 the first time each index is
    // asked for — the stale-read shape FaultyLogSource injects.
    class StaleOnceSource final : public ctlog::LogSource {
    public:
        explicit StaleOnceSource(ctlog::LogSource& inner) : inner_(&inner) {}
        std::string name() const override { return inner_->name(); }
        Expected<ctlog::SignedTreeHead> latest_tree_head() override {
            return inner_->latest_tree_head();
        }
        Expected<ctlog::RawLogEntry> entry_at(size_t index) override {
            if (index > 0 && !served_[index]) {
                served_[index] = true;
                return inner_->entry_at(index - 1);
            }
            return inner_->entry_at(index);
        }
        Expected<crypto::Digest> root_at(size_t n) override { return inner_->root_at(n); }

    private:
        ctlog::LogSource* inner_;
        std::map<size_t, bool> served_;
    };

    StaleOnceSource stale(inner);
    core::LogCertSource source(stale, ctlog::ShardRange{2, 4});
    auto first = source.next();
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, "stale_read");
    EXPECT_EQ(source.checkpoint().next_index, 2u);  // cursor held
    // The retry succeeds and delivers the requested index.
    auto retried = source.next();
    ASSERT_TRUE(retried.ok());
    ASSERT_TRUE(retried->has_value());
    EXPECT_EQ((*retried)->index, 2u);
}

TEST(LogCertSource, ResumeCheckpointClampsIntoRange) {
    ctlog::CtLog log = make_log("clamp-log", 8);
    ctlog::InMemoryLogSource inner(log);
    ctlog::ShardCheckpoint cp{{2, 6}, 1, false};  // cursor below range.begin
    core::LogCertSource source(inner, cp);
    auto item = source.next();
    ASSERT_TRUE(item.ok());
    ASSERT_TRUE(item->has_value());
    EXPECT_EQ((*item)->index, 2u);  // clamped up to range.begin
}

}  // namespace
}  // namespace unicert
