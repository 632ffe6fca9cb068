// Tests for the rule-set analyzer (lint::analysis): access tracing,
// the violation-class detectors on deliberately bad rules, baseline
// handling and the JSON/exit-code surface the CI gate consumes.
#include <gtest/gtest.h>

#include "asn1/time.h"
#include "idna/labels.h"
#include "lint/analysis/analyzer.h"
#include "lint/helpers.h"
#include "lint/lint.h"
#include "x509/extensions.h"
#include "x509/general_name.h"
#include "x509/name.h"

namespace unicert::lint::analysis {
namespace {

namespace oids = asn1::oids;

x509::Certificate sample_cert() {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x01, 0x23};
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::country_name(), "US", asn1::StringType::kPrintableString),
        x509::make_attribute(oids::common_name(), "analysis.example"),
    });
    cert.extensions.push_back(x509::make_san({x509::dns_name("analysis.example")}));
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2025, 1, 1)};
    return cert;
}

// Small, fast analyzer configuration for the bad-rule tests: the
// corpus itself is irrelevant, the probes just have to exercise the
// rules.
AnalyzerOptions fast_options() {
    AnalyzerOptions opts;
    opts.corpus_scale = 500000.0;  // ~70 corpus certs
    opts.showcase_per_kind = 1;
    opts.mutant_probes = 8;
    opts.check_relations = false;
    return opts;
}

bool has_finding(const AnalysisReport& report, CheckClass cls, std::string_view rule) {
    for (const AnalysisFinding& f : report.findings) {
        if (f.cls == cls && f.rule == rule) return true;
    }
    return false;
}

Rule good_rule(std::string name) {
    Rule rule;
    rule.info.name = std::move(name);
    rule.info.description = "well-behaved rule";
    rule.info.severity = Severity::kError;
    rule.info.source = Source::kCommunity;
    rule.info.effective_date = dates::kCommunity;
    rule.info.footprint = footprint({x509::CertField::kSerial});
    rule.check = [](const CertView& cert) -> std::optional<std::string> {
        if (cert.serial().empty()) return "empty serial";
        return std::nullopt;
    };
    return rule;
}

TEST(TracingCertView, RecordsFieldReads) {
    x509::Certificate cert = sample_cert();
    TracingCertView view(cert);
    EXPECT_EQ(view.trace().fields, 0u);

    (void)view.serial();
    (void)view.subject();
    EXPECT_TRUE(view.trace().saw_field(x509::CertField::kSerial));
    EXPECT_TRUE(view.trace().saw_field(x509::CertField::kSubject));
    EXPECT_FALSE(view.trace().saw_field(x509::CertField::kValidity));
    EXPECT_FALSE(view.trace().saw_field(x509::CertField::kExtensions));
}

TEST(TracingCertView, RecordsPerOidExtensionProbes) {
    x509::Certificate cert = sample_cert();
    TracingCertView view(cert);

    EXPECT_NE(view.find_extension(oids::subject_alt_name()), nullptr);
    EXPECT_TRUE(view.trace().saw_extension(oids::subject_alt_name()));
    EXPECT_FALSE(view.trace().saw_extension(oids::certificate_policies()));
    // A per-OID probe is NOT a read of the whole extension list.
    EXPECT_FALSE(view.trace().saw_field(x509::CertField::kExtensions));

    (void)view.extensions();
    EXPECT_TRUE(view.trace().saw_field(x509::CertField::kExtensions));
}

TEST(TracingCertView, TypedLookupsNoteTheirSurface) {
    x509::Certificate cert = sample_cert();
    TracingCertView view(cert);
    (void)view.subject_alt_names();
    EXPECT_TRUE(view.trace().saw_extension(oids::subject_alt_name()));
    (void)view.subject_common_names();
    EXPECT_TRUE(view.trace().saw_field(x509::CertField::kSubject));
    (void)view.whole_cert();
    EXPECT_TRUE(view.trace().saw_field(x509::CertField::kWholeCert));
}

// A memoized fact must trace the same fields whether it is built or
// served from the memo, or a rule's footprint check would depend on
// which rule asked first.
TEST(TracingCertView, MemoHitsNoteTheSameFieldsAsTheBuild) {
    x509::Certificate cert = sample_cert();
    TracingCertView view(cert);

    const std::vector<DnsName>& names = view.dns_names();
    const AccessTrace dns_build = view.trace();
    EXPECT_TRUE(dns_build.saw_field(x509::CertField::kSubject));
    EXPECT_TRUE(dns_build.saw_extension(oids::subject_alt_name()));
    view.reset();
    EXPECT_EQ(&view.dns_names(), &names);
    EXPECT_EQ(view.trace().fields, dns_build.fields);
    EXPECT_EQ(view.trace().extensions, dns_build.extensions);

    view.reset();
    const std::vector<SubjectValue>& values = view.subject_values();
    const AccessTrace values_build = view.trace();
    EXPECT_EQ(values_build.fields, x509::field_bit(x509::CertField::kSubject));
    EXPECT_TRUE(values_build.extensions.empty());
    view.reset();
    EXPECT_EQ(&view.subject_values(), &values);
    EXPECT_EQ(view.trace().fields, values_build.fields);
    EXPECT_TRUE(view.trace().extensions.empty());
}

TEST(CertViewFacts, DnsNamesAreSanNamesThenHostnameCnsSplitIntoLabels) {
    x509::Certificate cert = sample_cert();
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::common_name(), "Not A Hostname"),
        x509::make_attribute(oids::common_name(), "xn--nxasmq6b.example."),
    });
    cert.extensions = {x509::make_san({x509::dns_name("a..b"), x509::dns_name("*.example")})};
    CertView view(cert);

    const std::vector<DnsName>& names = view.dns_names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0].value, "a..b");
    EXPECT_TRUE(names[0].from_san);
    ASSERT_EQ(names[0].labels.size(), 3u);
    EXPECT_EQ(names[0].labels[1].text, "");
    EXPECT_EQ(names[1].value, "*.example");
    EXPECT_EQ(names[1].labels[0].text, "*");

    const DnsName& cn = names[2];
    EXPECT_FALSE(cn.from_san);
    EXPECT_EQ(cn.value, "xn--nxasmq6b.example.");
    EXPECT_EQ(cn.raw.data(), cert.subject.rdns[1].attributes[0].value_bytes.data());
    ASSERT_EQ(cn.labels.size(), 3u);  // the trailing dot leaves an empty label
    EXPECT_EQ(cn.labels[2].text, "");
    // Only the A-label carries an IDNA check, run once at build time.
    ASSERT_TRUE(cn.labels[0].idn.has_value());
    EXPECT_EQ(cn.labels[0].idn->issue, idna::check_label("xn--nxasmq6b").issue);
    EXPECT_FALSE(cn.labels[1].idn.has_value());
    for (const DnsName& name : names) {
        for (const DnsLabel& label : name.labels) {
            EXPECT_GE(label.text.data(), name.value.data());
            EXPECT_LE(label.text.data() + label.text.size(),
                      name.value.data() + name.value.size());
        }
    }
}

TEST(CertViewFacts, SubjectValuesDecodeEveryAttributeInDnOrder) {
    x509::Certificate cert = sample_cert();
    cert.subject.rdns.push_back(
        {{x509::AttributeValue{oids::organization_name(), asn1::StringType::kUtf8String,
                               Bytes{'O', 0xC3}}}});
    CertView view(cert);

    const std::vector<SubjectValue>& values = view.subject_values();
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[0].attribute, &cert.subject.rdns[0].attributes[0]);
    EXPECT_EQ(values[0].code_points, unicode::CodePoints({'U', 'S'}));
    EXPECT_EQ(values[1].attribute->type, oids::common_name());
    ASSERT_TRUE(values[1].code_points.has_value());
    EXPECT_EQ(values[1].code_points->size(), std::string("analysis.example").size());
    EXPECT_FALSE(values[2].code_points.has_value());  // ill-formed UTF-8
}

TEST(TracingCertView, ResetClearsTheTrace) {
    x509::Certificate cert = sample_cert();
    TracingCertView view(cert);
    (void)view.serial();
    (void)view.find_extension(oids::subject_alt_name());
    view.reset();
    EXPECT_EQ(view.trace().fields, 0u);
    EXPECT_TRUE(view.trace().extensions.empty());
}

TEST(Analyzer, CleanRegistryProducesNoFindings) {
    Registry reg;
    reg.add(good_rule("e_well_behaved"));
    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(report.clean()) << analysis_report_to_json(report);
    EXPECT_EQ(exit_code(report), 0);
    EXPECT_EQ(report.rules_checked, 1u);
    EXPECT_GT(report.probe_count, 0u);
}

TEST(Analyzer, DetectsUndeclaredFieldRead) {
    Registry reg;
    Rule rule = good_rule("e_reads_subject_secretly");
    rule.check = [](const CertView& cert) -> std::optional<std::string> {
        if (cert.subject().all_attributes().empty()) return std::nullopt;
        return "has a subject";
    };
    reg.add(std::move(rule));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(
        has_finding(report, CheckClass::kFootprintViolation, "e_reads_subject_secretly"));
    EXPECT_EQ(exit_code(report), 1);
}

TEST(Analyzer, DetectsUndeclaredExtensionProbe) {
    Registry reg;
    Rule rule = good_rule("e_probes_san_secretly");
    rule.check = [](const CertView& cert) -> std::optional<std::string> {
        if (cert.has_extension(asn1::oids::subject_alt_name())) return "has a SAN";
        return std::nullopt;
    };
    reg.add(std::move(rule));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(has_finding(report, CheckClass::kFootprintViolation, "e_probes_san_secretly"));
}

TEST(Analyzer, WholeCertFootprintAllowsEverything) {
    Registry reg;
    Rule rule = good_rule("e_cross_field");
    rule.info.footprint = footprint({x509::CertField::kWholeCert});
    rule.check = [](const CertView& cert) -> std::optional<std::string> {
        (void)cert.subject();
        (void)cert.validity();
        (void)cert.find_extension(asn1::oids::certificate_policies());
        return std::nullopt;
    };
    reg.add(std::move(rule));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(report.clean()) << analysis_report_to_json(report);
}

TEST(Analyzer, DetectsNondeterministicVerdicts) {
    Registry reg;
    Rule rule = good_rule("w_flaky");
    rule.info.severity = Severity::kWarning;
    rule.check = [](const CertView& cert) -> std::optional<std::string> {
        static unsigned calls = 0;
        (void)cert.serial();
        if (++calls % 2 == 0) return "sometimes fires";
        return std::nullopt;
    };
    reg.add(std::move(rule));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(has_finding(report, CheckClass::kNondeterminism, "w_flaky"));
    EXPECT_EQ(exit_code(report), 1);
}

TEST(Analyzer, DetectsThrowingCheck) {
    Registry reg;
    Rule rule = good_rule("e_throws");
    rule.check = [](const CertView&) -> std::optional<std::string> {
        throw std::runtime_error("boom");
    };
    reg.add(std::move(rule));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(has_finding(report, CheckClass::kCheckThrew, "e_throws"));
}

TEST(Analyzer, DetectsMetadataViolations) {
    Registry reg;

    Rule bad_name = good_rule("NotALintName");
    reg.add(std::move(bad_name));

    Rule bad_severity = good_rule("w_claims_warning");
    bad_severity.info.severity = Severity::kError;
    reg.add(std::move(bad_severity));

    Rule bad_namespace = good_rule("e_cab_wrong_source");
    bad_namespace.info.source = Source::kRfc5280;
    bad_namespace.info.effective_date = dates::kRfc5280;
    reg.add(std::move(bad_namespace));

    Rule anachronistic = good_rule("e_rfc9598_too_early");
    anachronistic.info.source = Source::kRfc9598;
    anachronistic.info.effective_date = dates::kAlways;
    reg.add(std::move(anachronistic));

    Rule no_footprint = good_rule("e_no_footprint");
    no_footprint.info.footprint = RuleFootprint{};
    no_footprint.check = [](const CertView&) -> std::optional<std::string> {
        return std::nullopt;
    };
    reg.add(std::move(no_footprint));

    AnalysisReport report = Analyzer(fast_options()).analyze(reg);
    EXPECT_TRUE(has_finding(report, CheckClass::kMalformedName, "NotALintName"));
    EXPECT_TRUE(has_finding(report, CheckClass::kPrefixSeverityMismatch, "w_claims_warning"));
    EXPECT_TRUE(has_finding(report, CheckClass::kNamespaceSourceMismatch, "e_cab_wrong_source"));
    EXPECT_TRUE(has_finding(report, CheckClass::kAnachronisticDate, "e_rfc9598_too_early"));
    EXPECT_TRUE(has_finding(report, CheckClass::kMissingFootprint, "e_no_footprint"));
}

TEST(Analyzer, DetectsEquivalentRules) {
    AnalyzerOptions opts = fast_options();
    opts.check_relations = true;
    opts.min_support = 4;

    auto fires_on_empty_serial = [](const CertView& cert) -> std::optional<std::string> {
        if (cert.serial().empty()) return "empty serial";
        return std::nullopt;
    };
    Registry reg;
    Rule a = good_rule("e_twin_alpha");
    a.check = fires_on_empty_serial;
    Rule b = good_rule("e_twin_beta");
    b.check = fires_on_empty_serial;
    reg.add(std::move(a));
    reg.add(std::move(b));

    AnalysisReport report = Analyzer(opts).analyze(reg);
    // Equivalence needs min_support firings; the corpus has no
    // empty-serial certs but the handcrafted + mutant probes may. Only
    // assert when support exists, and never a footprint violation.
    bool equiv = has_finding(report, CheckClass::kEquivalence, "e_twin_alpha");
    bool any_footprint = false;
    for (const AnalysisFinding& f : report.findings) {
        if (f.cls == CheckClass::kFootprintViolation) any_footprint = true;
    }
    EXPECT_FALSE(any_footprint);
    (void)equiv;  // presence depends on probe support; exercised via default registry
}

TEST(Baseline, AcknowledgesListedFindings) {
    AnalysisReport report;
    report.findings.push_back(
        {CheckClass::kPrefixSeverityMismatch, "w_known_mismatch", "", "detail"});
    report.findings.push_back({CheckClass::kSubsumption, "e_narrow", "w_broad", "detail"});
    report.findings.push_back({CheckClass::kNondeterminism, "e_new_bug", "", "detail"});

    std::string baseline =
        "# comment line\n"
        "\n"
        "prefix_severity_mismatch w_known_mismatch -\n"
        "subsumption e_narrow w_broad\n";
    size_t moved = apply_baseline(report, baseline);
    EXPECT_EQ(moved, 2u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "e_new_bug");
    EXPECT_EQ(report.baselined.size(), 2u);
    EXPECT_EQ(exit_code(report), 1);

    // Baselining the last finding makes the report clean.
    size_t more = apply_baseline(report, "nondeterminism e_new_bug -\n");
    EXPECT_EQ(more, 1u);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(exit_code(report), 0);
}

TEST(Baseline, RoundTripsThroughBaselineLine) {
    AnalysisFinding with_other{CheckClass::kEquivalence, "e_a", "e_b", "x"};
    AnalysisFinding without_other{CheckClass::kMalformedName, "Bad", "", "x"};
    EXPECT_EQ(baseline_line(with_other), "equivalence e_a e_b");
    EXPECT_EQ(baseline_line(without_other), "malformed_name Bad -");

    AnalysisReport report;
    report.findings.push_back(with_other);
    report.findings.push_back(without_other);
    std::string baseline = baseline_line(with_other) + "\n" + baseline_line(without_other);
    EXPECT_EQ(apply_baseline(report, baseline), 2u);
    EXPECT_TRUE(report.clean());
}

TEST(Report, JsonShape) {
    AnalysisReport report;
    report.rules_checked = 2;
    report.probe_count = 10;
    report.findings.push_back({CheckClass::kNondeterminism, "e_bad", "", "detail \"quoted\""});
    report.baselined.push_back({CheckClass::kSubsumption, "e_narrow", "w_broad", "d"});

    std::string json = analysis_report_to_json(report);
    EXPECT_NE(json.find("\"rules_checked\":2"), std::string::npos);
    EXPECT_NE(json.find("\"probes\":10"), std::string::npos);
    EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
    EXPECT_NE(json.find("\"class\":\"nondeterminism\",\"rule\":\"e_bad\""), std::string::npos);
    EXPECT_NE(json.find("detail \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"other\":\"w_broad\""), std::string::npos);
}

TEST(Report, CheckClassNamesAreStable) {
    // Baseline files depend on these strings; renaming one invalidates
    // every checked-in baseline.
    EXPECT_STREQ(check_class_name(CheckClass::kMalformedName), "malformed_name");
    EXPECT_STREQ(check_class_name(CheckClass::kFootprintViolation), "footprint_violation");
    EXPECT_STREQ(check_class_name(CheckClass::kNondeterminism), "nondeterminism");
    EXPECT_STREQ(check_class_name(CheckClass::kOrderDependence), "order_dependence");
    EXPECT_STREQ(check_class_name(CheckClass::kSubsumption), "subsumption");
    EXPECT_STREQ(check_class_name(CheckClass::kEquivalence), "equivalence");
    EXPECT_STREQ(check_class_name(CheckClass::kMutualExclusion), "mutual_exclusion");
}

}  // namespace
}  // namespace unicert::lint::analysis
