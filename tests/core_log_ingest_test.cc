// LogCertSource, the one way a CT log enters the compliance pipeline:
// it walks exactly its range in log order, and its cursor only moves on
// a delivery, so next_index() is where a resumed pass starts.
#include <gtest/gtest.h>

#include <string>

#include "asn1/time.h"
#include "core/log_ingest.h"
#include "ctlog/log.h"
#include "ctlog/log_source.h"
#include "x509/builder.h"

namespace unicert {
namespace {

namespace oids = asn1::oids;

x509::Certificate make_leaf(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {static_cast<uint8_t>(host.size()), 0x0D};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), host)});
    cert.issuer = x509::make_dn({x509::make_attribute(oids::organization_name(), "Ingest CA")});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(host).public_key();
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Ingest CA");
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

TEST(LogCertSource, WalksExactlyItsRangeInOrder) {
    ctlog::CtLog log = make_log("walk-log", 15);
    ctlog::InMemoryLogSource inner(log);
    core::LogCertSource source(inner, 4, 11);
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
    EXPECT_EQ(source.next_index(), 11u);

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
    core::LogCertSource source(flaky, 0, 10);
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
    EXPECT_EQ(source.next_index(), 6u);
    EXPECT_EQ(source.size_hint(), 4u);

    // Resume against a healthy source finishes the range.
    core::LogCertSource resumed(inner, source.next_index(), 10);
    size_t expect = 6;
    for (;;) {
        auto item = resumed.next();
        ASSERT_TRUE(item.ok());
        if (!item->has_value()) break;
        EXPECT_EQ((*item)->index, expect++);
    }
    EXPECT_EQ(expect, 10u);
    EXPECT_EQ(resumed.next_index(), 10u);
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
    core::LogCertSource source(stale, 2, 4);
    auto first = source.next();
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, "stale_read");
    EXPECT_EQ(source.next_index(), 2u);  // cursor held
    // The retry succeeds and delivers the requested index.
    auto retried = source.next();
    ASSERT_TRUE(retried.ok());
    ASSERT_TRUE(retried->has_value());
    EXPECT_EQ((*retried)->index, 2u);
}

}  // namespace
}  // namespace unicert
