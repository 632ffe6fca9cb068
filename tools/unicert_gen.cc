// unicert_gen: the Section 3.2 test-Unicert generator as a CLI — craft
// certificates with a chosen defect (or a whole synthetic corpus) and
// emit PEM for feeding into unicert_lint or external tooling.
//
//   unicert_gen --defect <lint-name-or-index> [--host example.com]
//   unicert_gen --corpus <count> [--seed N]
//   unicert_gen --hosts FILE
//   unicert_gen --list-defects
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "asn1/time.h"
#include "core/fs.h"
#include "ctlog/corpus.h"
#include "x509/builder.h"
#include "x509/pem.h"

using namespace unicert;

namespace {

constexpr const char* kUsage = R"(unicert_gen - synthetic Unicert generator

usage: unicert_gen [mode] [options]

modes (default: emit one compliant certificate for --host):
  --defect NAME|INDEX   emit one certificate carrying exactly this defect
                        (names and indexes per --list-defects)
  --corpus N            emit N certificates from the seeded corpus
                        generator (Table 2 marginals)
  --hosts FILE          emit one compliant certificate per hostname in
                        FILE (one per line, '#' comments skipped)
  --list-defects        print the defect table and exit

options:
  --host H              subject hostname for the compliant baseline
                        (default test.example.com)
  --seed N              corpus/defect stream seed (default 42)
  --help                this text

exit codes:
  0   success: certificate(s) emitted
  64  usage error (unknown flag, missing argument, bad number)
  65  refused: the --hosts file contains no usable hostnames
  66  --hosts file missing or unreadable
)";

void list_defects() {
    std::printf("index  weight   idn  expected lint\n");
    size_t i = 0;
    for (const ctlog::DefectSpec& spec : ctlog::defect_specs()) {
        std::printf("%5zu  %7.0f  %-3s  %s\n", i++, spec.weight, spec.idn_defect ? "yes" : "",
                    spec.expected_lint);
    }
}

const ctlog::DefectSpec* find_defect(const std::string& key) {
    auto specs = ctlog::defect_specs();
    char* end = nullptr;
    long index = std::strtol(key.c_str(), &end, 10);
    if (end != key.c_str() && *end == '\0' && index >= 0 &&
        static_cast<size_t>(index) < specs.size()) {
        return &specs[static_cast<size_t>(index)];
    }
    for (const ctlog::DefectSpec& spec : specs) {
        if (key == spec.expected_lint) return &spec;
    }
    return nullptr;
}

void emit_compliant(const std::string& host) {
    x509::Certificate cert;
    cert.version = 2;
    cert.serial = {0x01, 0x23};
    cert.subject = x509::make_dn({x509::make_attribute(asn1::oids::common_name(), host)});
    cert.issuer = x509::make_dn(
        {x509::make_attribute(asn1::oids::organization_name(), "unicert_gen CA")});
    cert.validity = {asn1::make_time(2025, 1, 1), asn1::make_time(2025, 4, 1)};
    cert.subject_public_key = crypto::SimSigner::from_name(host).public_key();
    cert.extensions.push_back(x509::make_san({x509::dns_name(host)}));
    crypto::SimSigner ca = crypto::SimSigner::from_name("unicert_gen CA");
    x509::sign_certificate(cert, ca);
    std::fputs(x509::pem_encode("CERTIFICATE", cert.der).c_str(), stdout);
}

// One hostname per line; blank lines and '#' comments are skipped. A
// readable file with nothing usable is a refusal (65), not a success
// that silently emitted zero certificates.
int run_hosts(const std::string& path) {
    auto bytes = core::real_fs().read_file(path);
    if (!bytes.ok()) {
        std::fprintf(stderr, "unicert_gen: cannot read hosts file %s: %s\n", path.c_str(),
                     bytes.error().message.c_str());
        return 66;
    }
    std::string text(reinterpret_cast<const char*>(bytes->data()), bytes->size());
    std::vector<std::string> hosts;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) nl = text.size();
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
        size_t start = line.find_first_not_of(' ');
        if (start == std::string::npos || line[start] == '#') continue;
        hosts.push_back(line.substr(start));
    }
    if (hosts.empty()) {
        std::fprintf(stderr, "unicert_gen: no usable hostnames in %s\n", path.c_str());
        return 65;
    }
    for (const std::string& host : hosts) emit_compliant(host);
    std::fprintf(stderr, "emitted %zu certificates\n", hosts.size());
    return 0;
}

bool parse_u64(const char* s, uint64_t* out) {
    char* end = nullptr;
    *out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
    std::string defect_key;
    std::string host = "test.example.com";
    std::string hosts_file;
    size_t corpus_count = 0;
    bool corpus_mode = false;
    uint64_t seed = 42;

    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "unicert_gen: %s requires a value\n", argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (arg == "--defect") {
            const char* v = need_value();
            if (!v) return 64;
            defect_key = v;
        } else if (arg == "--host") {
            const char* v = need_value();
            if (!v) return 64;
            host = v;
        } else if (arg == "--hosts") {
            const char* v = need_value();
            if (!v) return 64;
            hosts_file = v;
        } else if (arg == "--corpus") {
            const char* v = need_value();
            uint64_t n = 0;
            if (!v || !parse_u64(v, &n) || n == 0) return 64;
            corpus_count = static_cast<size_t>(n);
            corpus_mode = true;
        } else if (arg == "--seed") {
            const char* v = need_value();
            if (!v || !parse_u64(v, &seed)) return 64;
        } else if (arg == "--list-defects") {
            list_defects();
            return 0;
        } else {
            std::fprintf(stderr, "unicert_gen: unknown argument %s (try --help)\n", argv[i]);
            return 64;
        }
    }

    if (!hosts_file.empty()) return run_hosts(hosts_file);

    if (corpus_mode) {
        // Scale chosen so the generator emits roughly `corpus_count`.
        double scale = 36000.0 * 1000.0 / static_cast<double>(corpus_count) / 1000.0 * 1000.0;
        ctlog::CorpusGenerator gen({.seed = seed, .scale = scale, .sign_certificates = true});
        auto corpus = gen.generate();
        size_t emitted = 0;
        for (const ctlog::CorpusCert& c : corpus) {
            if (emitted >= corpus_count) break;
            std::fputs(x509::pem_encode("CERTIFICATE", c.cert.der).c_str(), stdout);
            ++emitted;
        }
        std::fprintf(stderr, "emitted %zu certificates (seed %llu)\n", emitted,
                     static_cast<unsigned long long>(seed));
        return 0;
    }

    if (defect_key.empty()) {
        emit_compliant(host);
        return 0;
    }

    const ctlog::DefectSpec* spec = find_defect(defect_key);
    if (spec == nullptr) {
        std::fprintf(stderr, "unicert_gen: unknown defect '%s' (try --list-defects)\n",
                     defect_key.c_str());
        return 64;
    }

    // The defect showcase holds one certificate per defect kind, each
    // carrying exactly that defect, drawn from the --seed stream.
    ctlog::CorpusGenerator gen({.seed = seed});
    std::vector<ctlog::CorpusCert> showcase = gen.generate_defect_showcase(1);
    ctlog::CorpusCert& c = *std::find_if(showcase.begin(), showcase.end(),
                                         [&](const ctlog::CorpusCert& cc) {
                                             return cc.defect == spec->kind;
                                         });
    x509::sign_certificate(c.cert, crypto::SimSigner::from_name(c.issuer_org));
    std::fputs(x509::pem_encode("CERTIFICATE", c.cert.der).c_str(), stdout);
    std::fprintf(stderr, "defect: %s (issuer %s, %d)\n", spec->expected_lint,
                 c.issuer_org.c_str(), c.year);
    return 0;
}
