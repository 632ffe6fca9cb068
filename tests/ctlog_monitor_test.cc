// Tests for the CT monitor behaviour profiles (Table 6) and the
// monitor-misleading mechanics of Section 6.1.
#include "ctlog/monitor.h"

#include <gtest/gtest.h>

#include "asn1/time.h"
#include "ctlog/log.h"
#include "x509/builder.h"

namespace unicert::ctlog {
namespace {

namespace oids = asn1::oids;

x509::Certificate cert_with_cn_san(const std::string& cn, const std::string& san) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x07};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), cn),
        x509::make_attribute(oids::organization_name(), "Monitor Test Org"),
    });
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    if (!san.empty()) cert.extensions.push_back(x509::make_san({x509::dns_name(san)}));
    return cert;
}

const MonitorProfile& profile(std::string_view name) {
    for (const MonitorProfile& p : monitor_profiles()) {
        if (p.name == name) return p;
    }
    ADD_FAILURE() << "no profile " << name;
    return monitor_profiles()[0];
}

TEST(Profiles, FiveMonitorsFromTable6) {
    EXPECT_EQ(monitor_profiles().size(), 5u);
    EXPECT_EQ(profile("Crt.sh").caps.fuzzy_search, true);
    EXPECT_EQ(profile("SSLMate Spotter").caps.fuzzy_search, false);
    EXPECT_EQ(profile("SSLMate Spotter").caps.ulabel_check, true);
    EXPECT_EQ(profile("Facebook Monitor").caps.ulabel_check, true);
    EXPECT_EQ(profile("Entrust Search").caps.punycode_idn_cctld, false);
    EXPECT_EQ(profile("MerkleMap").caps.ulabel_check, false);
}

TEST(Query, CaseInsensitiveAcrossAllMonitors) {
    // P1.1: case-insensitive querying is universal.
    for (const MonitorProfile& p : monitor_profiles()) {
        Monitor m(p);
        size_t id = m.index(cert_with_cn_san("Example.COM", "Example.COM"));
        EXPECT_TRUE(m.would_find("example.com", id)) << p.name;
        EXPECT_TRUE(m.would_find("EXAMPLE.COM", id)) << p.name;
    }
}

TEST(Query, UnicodeQueriesRejectedEverywhere) {
    for (const MonitorProfile& p : monitor_profiles()) {
        Monitor m(p);
        m.index(cert_with_cn_san("münchen.example", "xn--mnchen-3ya.example"));
        QueryResult r = m.query("münchen.example");
        EXPECT_FALSE(r.query_accepted) << p.name;
    }
}

TEST(Query, PunycodeAcceptedEverywhere) {
    for (const MonitorProfile& p : monitor_profiles()) {
        Monitor m(p);
        size_t id = m.index(cert_with_cn_san("xn--mnchen-3ya.example",
                                             "xn--mnchen-3ya.example"));
        EXPECT_TRUE(m.would_find("xn--mnchen-3ya.example", id)) << p.name;
    }
}

TEST(Query, EntrustRejectsPunycodeCcTld) {
    Monitor entrust(profile("Entrust Search"));
    entrust.index(cert_with_cn_san("site.xn--fiq228c", "site.xn--fiq228c"));
    QueryResult r = entrust.query("site.xn--fiq228c");
    EXPECT_FALSE(r.query_accepted);

    Monitor crtsh(profile("Crt.sh"));
    size_t id = crtsh.index(cert_with_cn_san("site.xn--fiq228c", "site.xn--fiq228c"));
    EXPECT_TRUE(crtsh.would_find("site.xn--fiq228c", id));
}

TEST(Query, UlabelCheckRefusesDeceptiveIdn) {
    // P1.3: SSLMate/Facebook refuse xn--www-hn0a (LRM+www); others accept.
    QueryResult sslmate = Monitor(profile("SSLMate Spotter")).query("xn--www-hn0a.phish.com");
    EXPECT_FALSE(sslmate.query_accepted);
    QueryResult facebook = Monitor(profile("Facebook Monitor")).query("xn--www-hn0a.phish.com");
    EXPECT_FALSE(facebook.query_accepted);
    QueryResult crtsh = Monitor(profile("Crt.sh")).query("xn--www-hn0a.phish.com");
    EXPECT_TRUE(crtsh.query_accepted);
    QueryResult merkle = Monitor(profile("MerkleMap")).query("xn--www-hn0a.phish.com");
    EXPECT_TRUE(merkle.query_accepted);
}

TEST(Query, FuzzySearchFindsVariants) {
    // P1.2: fuzzy monitors catch variants; exact-match ones miss them.
    x509::Certificate variant = cert_with_cn_san("example.com.evil.test", "");

    Monitor fuzzy(profile("Crt.sh"));
    size_t fid = fuzzy.index(variant);
    EXPECT_TRUE(fuzzy.would_find("example.com", fid));

    Monitor exact(profile("Facebook Monitor"));
    size_t eid = exact.index(variant);
    EXPECT_FALSE(exact.would_find("example.com", eid));
}

TEST(Misleading, NulByteConcealsFromExactMatchMonitors) {
    // Section 6.1's core scenario: CN "victim.com\x00.evil" is logged
    // but invisible to an exact query for victim.com.
    x509::Certificate forged =
        cert_with_cn_san(std::string("victim.com\x00.evil", 16), "");
    for (const MonitorProfile& p : monitor_profiles()) {
        Monitor m(p);
        size_t id = m.index(forged);
        if (!p.caps.fuzzy_search) {
            EXPECT_FALSE(m.would_find("victim.com", id)) << p.name;
        } else {
            // Fuzzy monitors still substring-match into the poisoned key.
            EXPECT_TRUE(m.would_find("victim.com", id)) << p.name;
        }
    }
}

TEST(Misleading, SslmateDropsCnWithSpace) {
    // P1.4: a CN containing a space is ignored entirely by SSLMate.
    Monitor m(profile("SSLMate Spotter"));
    size_t id = m.index(cert_with_cn_san("victim.com extra", ""));
    EXPECT_FALSE(m.would_find("victim.com extra", id));
}

TEST(Misleading, SslmateMatchesSubstringBeforeSlash) {
    Monitor m(profile("SSLMate Spotter"));
    size_t id = m.index(cert_with_cn_san("victim.com/evil-path", ""));
    // Indexed key is "victim.com": the full value is NOT findable…
    EXPECT_FALSE(m.would_find("victim.com/evil-path", id));
    // …but the prefix is.
    EXPECT_TRUE(m.would_find("victim.com", id));
}

TEST(Misleading, SpecialUnicodeHidesCertOnSslmate) {
    // "Fail to return certs with special Unicode" = ✓ for SSLMate only.
    x509::Certificate special = cert_with_cn_san("victim\xE2\x80\x8B.com", "");  // ZWSP
    Monitor sslmate(profile("SSLMate Spotter"));
    size_t sid = sslmate.index(special);
    QueryResult q = sslmate.query("victim\xE2\x80\x8B.com");
    EXPECT_FALSE(q.query_accepted);  // unicode query refused anyway
    EXPECT_FALSE(sslmate.would_find("victim.com", sid));
}

TEST(Monitor, CrtShSearchesSubjectAttributes) {
    Monitor crtsh(profile("Crt.sh"));
    size_t id = crtsh.index(cert_with_cn_san("host.example", ""));
    EXPECT_TRUE(crtsh.would_find("Monitor Test Org", id));

    Monitor facebook(profile("Facebook Monitor"));
    size_t fid = facebook.index(cert_with_cn_san("host.example", ""));
    EXPECT_FALSE(facebook.would_find("Monitor Test Org", fid));
}

TEST(Monitor, SyncConsumesLogIncrementally) {
    CtLog log("sync-log");
    crypto::SimSigner ca = crypto::SimSigner::from_name("Sync CA");
    auto submit = [&](const std::string& host, bool precert) {
        x509::Certificate cert = cert_with_cn_san(host, host);
        if (precert) cert.extensions.push_back(x509::make_ct_poison());
        x509::sign_certificate(cert, ca);
        log.submit(cert, asn1::make_time(2025, 2, 1));
    };
    submit("a.example", false);
    submit("poisoned.example", true);

    InMemoryLogSource source(log);
    core::ManualClock clock;
    Monitor m(profile("Crt.sh"));
    EXPECT_EQ(m.sync(source, {}, &clock).indexed, 1u);  // precert skipped
    EXPECT_EQ(m.indexed_count(), 1u);

    submit("b.example", false);
    EXPECT_EQ(m.sync(source, {}, &clock).indexed, 1u);  // only the new entry
    EXPECT_EQ(m.sync(source, {}, &clock).indexed, 0u);  // idempotent
    EXPECT_EQ(m.indexed_count(), 2u);
    EXPECT_FALSE(m.query("b.example").cert_ids.empty());
}

TEST(Watch, AlertsFireForMatchingCerts) {
    Monitor m(profile("Crt.sh"));
    m.watch("victim.example");
    m.index(cert_with_cn_san("victim.example", "victim.example"));
    m.index(cert_with_cn_san("unrelated.example", "unrelated.example"));
    auto alerts = m.drain_alerts();
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_EQ(alerts[0].domain, "victim.example");
    EXPECT_EQ(alerts[0].cert_id, 0u);
    EXPECT_TRUE(m.drain_alerts().empty());  // drained
}

TEST(Watch, NulPoisonedForgeryNeverAlertsExactMatchMonitor) {
    // The §6.1 consequence in the owner's actual workflow: the watch
    // stays silent while the forged cert sits in the log.
    Monitor exact(profile("Facebook Monitor"));
    exact.watch("victim.example");
    exact.index(cert_with_cn_san(std::string("victim.example\0.evil", 20), ""));
    EXPECT_TRUE(exact.drain_alerts().empty());

    // A fuzzy monitor's watch still fires (substring into the key).
    Monitor fuzzy(profile("Crt.sh"));
    fuzzy.watch("victim.example");
    fuzzy.index(cert_with_cn_san(std::string("victim.example\0.evil", 20), ""));
    EXPECT_EQ(fuzzy.drain_alerts().size(), 1u);
}

TEST(Watch, SyncRaisesAlertsFromLogEntries) {
    CtLog log("watch-log");
    crypto::SimSigner ca = crypto::SimSigner::from_name("Watch CA");
    x509::Certificate cert = cert_with_cn_san("watched.example", "watched.example");
    x509::sign_certificate(cert, ca);
    log.submit(cert, asn1::make_time(2025, 2, 1));

    InMemoryLogSource source(log);
    core::ManualClock clock;
    Monitor m(profile("SSLMate Spotter"));
    m.watch("watched.example");
    EXPECT_EQ(m.sync(source, {}, &clock).indexed, 1u);
    EXPECT_EQ(m.drain_alerts().size(), 1u);
}

// A LogSource whose entry fetch fails permanently at one index until
// heal() is called — drives the abort-and-resume path.
class BreakableSource final : public LogSource {
public:
    BreakableSource(LogSource& inner, size_t broken_index)
        : inner_(&inner), broken_index_(broken_index) {}

    void heal() { healed_ = true; }

    std::string name() const override { return inner_->name(); }
    Expected<SignedTreeHead> latest_tree_head() override { return inner_->latest_tree_head(); }
    Expected<RawLogEntry> entry_at(size_t index) override {
        if (index == broken_index_ && !healed_) {
            return Error{"unavailable", "entry " + std::to_string(index) + " is down"};
        }
        return inner_->entry_at(index);
    }
    Expected<Digest> root_at(size_t n) override { return inner_->root_at(n); }

private:
    LogSource* inner_;
    size_t broken_index_;
    bool healed_ = false;
};

TEST(Watch, CheckpointedResyncAlertsExactlyOncePerCert) {
    // Satellite of the resilience work: a watch must fire exactly once
    // per certificate even when sync aborts mid-stream and restarts.
    CtLog log("resync-log");
    crypto::SimSigner ca = crypto::SimSigner::from_name("Resync CA");
    for (int i = 0; i < 6; ++i) {
        x509::Certificate cert = cert_with_cn_san("victim.example",
                                                  "victim.example");
        cert.serial = {static_cast<uint8_t>(i + 1)};
        x509::sign_certificate(cert, ca);
        log.submit(cert, asn1::make_time(2025, 2, 1));
    }
    InMemoryLogSource inner(log);
    BreakableSource source(inner, 3);  // entry 3 is down past the retry budget

    Monitor m(profile("Crt.sh"));
    m.watch("victim.example");
    core::ManualClock clock;
    core::RetryPolicy policy;
    policy.max_attempts = 2;
    policy.jitter_fraction = 0.0;

    SyncReport first = m.sync(source, policy, &clock);
    EXPECT_FALSE(first.completed);
    EXPECT_EQ(first.abort_error.code, "unavailable");
    EXPECT_EQ(first.indexed, 3u);  // entries 0..2 made it in
    EXPECT_EQ(m.checkpoint().next_index, 3u);  // cursor parked on the bad entry
    auto alerts = m.drain_alerts();
    EXPECT_EQ(alerts.size(), 3u);

    // Nothing heals: the pass resumes at the same entry, alerts nothing.
    SyncReport stuck = m.sync(source, policy, &clock);
    EXPECT_FALSE(stuck.completed);
    EXPECT_EQ(stuck.indexed, 0u);
    EXPECT_TRUE(m.drain_alerts().empty());

    // After healing, only the remaining entries are indexed and alerted:
    // 6 certs, 6 alerts total, no duplicates from the restarts.
    source.heal();
    SyncReport resumed = m.sync(source, policy, &clock);
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.indexed, 3u);
    EXPECT_EQ(m.indexed_count(), 6u);
    alerts = m.drain_alerts();
    EXPECT_EQ(alerts.size(), 3u);
    EXPECT_EQ(m.checkpoint().next_index, 6u);
    EXPECT_EQ(m.checkpoint().tree_size, 6u);
}

TEST(Monitor, CheckpointRestoreResumesWithoutDoubleIndexing) {
    CtLog log("restore-log");
    crypto::SimSigner ca = crypto::SimSigner::from_name("Restore CA");
    auto submit = [&](const std::string& host) {
        x509::Certificate cert = cert_with_cn_san(host, host);
        x509::sign_certificate(cert, ca);
        log.submit(cert, asn1::make_time(2025, 2, 1));
    };
    submit("a.example");
    submit("b.example");

    InMemoryLogSource source(log);
    Monitor m(profile("Crt.sh"));
    core::ManualClock clock;
    ASSERT_TRUE(m.sync(source, {}, &clock).completed);
    MonitorCheckpoint saved = m.checkpoint();
    EXPECT_EQ(saved.next_index, 2u);
    EXPECT_TRUE(saved.has_head);

    // A "restarted" monitor restored from the persisted checkpoint picks
    // up only what the log grew by.
    submit("c.example");
    Monitor restarted(profile("Crt.sh"));
    restarted.restore_checkpoint(saved);
    SyncReport report = restarted.sync(source, {}, &clock);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.indexed, 1u);
    EXPECT_EQ(restarted.indexed_count(), 1u);
}

TEST(Monitor, IndexedCountTracksSubmissions) {
    Monitor m(profile("Crt.sh"));
    EXPECT_EQ(m.indexed_count(), 0u);
    m.index(cert_with_cn_san("a.example", "a.example"));
    m.index(cert_with_cn_san("b.example", "b.example"));
    EXPECT_EQ(m.indexed_count(), 2u);
}

}  // namespace
}  // namespace unicert::ctlog
