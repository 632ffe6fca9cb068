// Tests for the log-injection scenario (Section 5.1 "field information
// misrecognition" in log auditing) and the JSON report emitter.
#include <gtest/gtest.h>

#include "asn1/time.h"
#include "common/json_escape.h"
#include "core/json.h"
#include "threat/log_audit.h"
#include "x509/builder.h"

namespace unicert {
namespace {

namespace oids = asn1::oids;

x509::Certificate cert_with_cn(const std::string& cn) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x01};
    cert.subject = x509::make_dn({x509::make_attribute(oids::common_name(), cn)});
    cert.issuer = cert.subject;
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    return cert;
}

TEST(LogWriter, CleanTrafficIsWellFormedEitherWay) {
    for (bool hardened : {false, true}) {
        threat::TlsLogWriter writer(hardened);
        writer.log_connection(1000, "192.0.2.1", threat::Middlebox::kSnort,
                              cert_with_cn("a.example"));
        writer.log_connection(1001, "192.0.2.2", threat::Middlebox::kSnort,
                              cert_with_cn("b.example"));
        auto view = writer.audit();
        EXPECT_EQ(view.lines, 2u);
        EXPECT_EQ(view.well_formed, 2u);
        EXPECT_EQ(view.malformed, 0u);
    }
}

TEST(LogWriter, NewlineInjectionForgesEntryInNaiveWriter) {
    threat::TlsLogWriter naive(/*escape_fields=*/false);
    naive.log_connection(1000, "192.0.2.1", threat::Middlebox::kSnort,
                         cert_with_cn("evil.example\nforged\tline\there\tx\ty"));
    auto view = naive.audit();
    EXPECT_EQ(naive.records_written(), 1u);
    EXPECT_EQ(view.lines, 2u);  // one record became two lines

    threat::TlsLogWriter hardened(/*escape_fields=*/true);
    hardened.log_connection(1000, "192.0.2.1", threat::Middlebox::kSnort,
                            cert_with_cn("evil.example\nforged\tline\there\tx\ty"));
    auto hview = hardened.audit();
    EXPECT_EQ(hview.lines, 1u);
    EXPECT_EQ(hview.well_formed, 1u);
}

TEST(LogWriter, TabInjectionBreaksColumnsOnlyWhenNaive) {
    threat::TlsLogWriter naive(false);
    naive.log_connection(1000, "192.0.2.1", threat::Middlebox::kSnort,
                         cert_with_cn("a\tb.example"));
    EXPECT_EQ(naive.audit().malformed, 1u);

    threat::TlsLogWriter hardened(true);
    hardened.log_connection(1000, "192.0.2.1", threat::Middlebox::kSnort,
                            cert_with_cn("a\tb.example"));
    EXPECT_EQ(hardened.audit().malformed, 0u);
}

TEST(Scenario, NaiveCorruptedHardenedClean) {
    auto results = threat::run_log_injection();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].hardened_writer);
    EXPECT_TRUE(results[0].log_corrupted);
    EXPECT_GT(results[0].lines, results[0].records);
    EXPECT_TRUE(results[1].hardened_writer);
    EXPECT_FALSE(results[1].log_corrupted);
    EXPECT_EQ(results[1].lines, results[1].records);
}

// ---- JSON emitter ------------------------------------------------------------

TEST(Json, Escaping) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape(std::string("nl\n nul\0", 8)), "nl\\n nul\\u0000");
    EXPECT_EQ(json_escape("tëst"), "tëst");  // UTF-8 untouched
}

TEST(Json, LintReportShape) {
    x509::Certificate cert = cert_with_cn(std::string("ev\0il", 5));
    lint::CertReport report = lint::run_lints(cert);
    std::string json = core::lint_report_to_json(report);
    EXPECT_NE(json.find("\"noncompliant\":true"), std::string::npos);
    EXPECT_NE(json.find("e_subject_dn_nul_character"), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
    // No raw control characters may survive into the JSON text.
    for (char c : json) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20);
    }
}

TEST(Json, TaxonomyShape) {
    ctlog::CorpusGenerator gen({.seed = 77, .scale = 40000.0});
    auto corpus = gen.generate();
    core::CompliancePipeline pipeline(corpus);
    std::string json = core::taxonomy_to_json(pipeline.taxonomy_report());
    EXPECT_NE(json.find("\"total_certs\":"), std::string::npos);
    EXPECT_NE(json.find("\"Invalid Encoding\""), std::string::npos);
    // Six taxonomy rows.
    size_t count = 0;
    for (size_t pos = json.find("\"type\":\""); pos != std::string::npos;
         pos = json.find("\"type\":\"", pos + 1)) {
        ++count;
    }
    EXPECT_EQ(count, 6u);
}

}  // namespace
}  // namespace unicert
