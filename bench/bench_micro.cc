// Micro-benchmarks (google-benchmark) for the performance-relevant
// primitives: DER parsing, Punycode, NFC, SHA-256, lint throughput,
// and the differential inference step.
#include <benchmark/benchmark.h>

#include "asn1/time.h"
#include "crypto/sha256.h"
#include "idna/labels.h"
#include "idna/punycode.h"
#include "lint/lint.h"
#include "tlslib/differential.h"
#include "core/arena.h"
#include "unicode/normalize.h"
#include "x509/builder.h"
#include "x509/lazy.h"
#include "x509/parser.h"

namespace {

using namespace unicert;
namespace oids = asn1::oids;

x509::Certificate sample_cert() {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x01, 0x02, 0x03, 0x04};
    cert.issuer = x509::make_dn({
        x509::make_attribute(oids::country_name(), "US", asn1::StringType::kPrintableString),
        x509::make_attribute(oids::organization_name(), "Benchmark CA"),
        x509::make_attribute(oids::common_name(), "Benchmark CA R1"),
    });
    cert.subject = x509::make_dn({
        x509::make_attribute(oids::organization_name(), "Škoda Díly s.r.o."),
        x509::make_attribute(oids::common_name(), "example.com"),
    });
    cert.validity = {asn1::make_time(2024, 1, 1), asn1::make_time(2024, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name("bench").public_key();
    cert.extensions.push_back(x509::make_san({
        x509::dns_name("example.com"),
        x509::dns_name("xn--mnchen-3ya.example"),
    }));
    crypto::SimSigner ca = crypto::SimSigner::from_name("Benchmark CA");
    x509::sign_certificate(cert, ca);
    return cert;
}

void BM_CertificateParse(benchmark::State& state) {
    Bytes der = sample_cert().der;
    for (auto _ : state) {
        auto parsed = x509::parse_certificate(der);
        benchmark::DoNotOptimize(parsed.ok());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(der.size()));
}
BENCHMARK(BM_CertificateParse);

void BM_CertificateIndex(benchmark::State& state) {
    Bytes der = sample_cert().der;
    for (auto _ : state) {
        auto lazy = x509::LazyCertificate::index(der);
        benchmark::DoNotOptimize(lazy.ok());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(der.size()));
}
BENCHMARK(BM_CertificateIndex);

void BM_CertificateIndexArena(benchmark::State& state) {
    Bytes der = sample_cert().der;
    core::Arena arena;
    for (auto _ : state) {
        core::ArenaScope scope(arena);
        auto lazy = x509::LazyCertificate::index(der, &arena);
        benchmark::DoNotOptimize(lazy.ok());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(der.size()));
}
BENCHMARK(BM_CertificateIndexArena);

void BM_CertificateBuildAndSign(benchmark::State& state) {
    crypto::SimSigner ca = crypto::SimSigner::from_name("Benchmark CA");
    for (auto _ : state) {
        x509::Certificate cert = sample_cert();
        Bytes der = x509::sign_certificate(cert, ca);
        benchmark::DoNotOptimize(der.size());
    }
}
BENCHMARK(BM_CertificateBuildAndSign);

void BM_Sha256_1K(benchmark::State& state) {
    Bytes data(1024, 0xAB);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sha256(data));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1K);

void BM_PunycodeRoundTrip(benchmark::State& state) {
    auto cps = unicode::utf8_to_codepoints("bücher-und-zeitschriften").value();
    for (auto _ : state) {
        auto enc = idna::punycode_encode(cps);
        auto dec = idna::punycode_decode(enc.value());
        benchmark::DoNotOptimize(dec.ok());
    }
}
BENCHMARK(BM_PunycodeRoundTrip);

void BM_HostnameCheck(benchmark::State& state) {
    for (auto _ : state) {
        auto hc = idna::check_hostname("xn--mnchen-3ya.shop.example.com");
        benchmark::DoNotOptimize(hc.ok);
    }
}
BENCHMARK(BM_HostnameCheck);

void BM_NfcNormalize(benchmark::State& state) {
    auto cps = unicode::utf8_to_codepoints("I\xCC\x82le-de-France Ḡ\xCC\x81").value();
    for (auto _ : state) {
        benchmark::DoNotOptimize(unicode::nfc(cps));
    }
}
BENCHMARK(BM_NfcNormalize);

void BM_LintFullRegistry(benchmark::State& state) {
    x509::Certificate cert = sample_cert();
    for (auto _ : state) {
        lint::CertReport report = lint::run_lints(cert);
        benchmark::DoNotOptimize(report.findings.size());
    }
    state.counters["lints"] = static_cast<double>(lint::default_registry().size());
}
BENCHMARK(BM_LintFullRegistry);

void BM_DifferentialInferOneScenario(benchmark::State& state) {
    tlslib::DifferentialRunner runner;
    for (auto _ : state) {
        auto inferred = runner.infer(tlslib::Library::kGnuTls,
                                     {asn1::StringType::kPrintableString,
                                      tlslib::FieldContext::kDnName});
        benchmark::DoNotOptimize(inferred.modified);
    }
}
BENCHMARK(BM_DifferentialInferOneScenario);

void BM_DnFormatRfc4514(benchmark::State& state) {
    x509::DistinguishedName dn = sample_cert().subject;
    for (auto _ : state) {
        benchmark::DoNotOptimize(x509::format_dn(dn, x509::DnDialect::kRfc4514));
    }
}
BENCHMARK(BM_DnFormatRfc4514);

}  // namespace

BENCHMARK_MAIN();
