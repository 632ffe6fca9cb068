// unicert_lint: the community-facing linter CLI the paper commits to
// releasing — read PEM certificates from files or stdin, run the
// 95-rule registry, print findings.
//
//   unicert_lint [options] [file.pem ...]
//     --ignore-effective-dates   apply every rule regardless of issuance date
//     --list                     list the registry instead of linting
//     --summary                  one line per certificate instead of findings
//     --json                     machine-readable JSON, one object per cert
//     --stats                    append ingestion stats + quarantine report,
//                                with incremental progress on stderr
//     --jobs N                   lint with N worker threads (default: all
//                                hardware threads; output is identical for
//                                every N — the parallel pipeline merges
//                                results in input order)
//     --store DIR                lint the entries of a durable CT-log store
//                                (see unicert_store) instead of PEM input
//     --der-file FILE            lint a file of back-to-back DER certificates,
//                                mmap'd and linted zero-copy (no per-cert
//                                buffer is ever allocated)
//
// Exit code: 0 = compliant, 1 = warnings only, 2 = errors, 64 = usage,
// 66 = input file or store unreadable / partially read.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "core/fs.h"
#include "core/json.h"
#include "core/log_ingest.h"
#include "core/parallel_pipeline.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "ctlog/store/store.h"
#include "lint/lint.h"
#include "x509/parser.h"
#include "x509/pem.h"

using namespace unicert;

namespace {

std::string read_stream(std::istream& in) {
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void list_registry() {
    const lint::Registry& reg = lint::default_registry();
    std::printf("%zu lints (%zu new to the Unicert study)\n\n", reg.size(), reg.count_new());
    for (const lint::Rule& rule : reg.rules()) {
        std::printf("%-55s %-8s %-18s %-9s %s\n", rule.info.name.c_str(),
                    lint::severity_name(rule.info.severity),
                    lint::nc_type_name(rule.info.type), lint::source_name(rule.info.source),
                    rule.info.is_new ? "[new]" : "");
    }
}

void print_usage() {
    std::printf(
        "usage: unicert_lint [options] [file.pem ...]\n"
        "  --ignore-effective-dates  apply every rule regardless of issuance date\n"
        "  --list                    list the registry instead of linting\n"
        "  --summary                 one line per certificate instead of findings\n"
        "  --json                    machine-readable JSON, one object per cert\n"
        "  --stats                   append ingestion stats + quarantine report,\n"
        "                            with incremental progress on stderr\n"
        "  --jobs N                  lint with N worker threads (default: all\n"
        "                            hardware threads; output is byte-identical\n"
        "                            for every N)\n"
        "  --store DIR               lint the entries of a durable CT-log store\n"
        "                            (see unicert_store) instead of PEM input\n"
        "  --der-file FILE           lint a file of back-to-back DER certificates,\n"
        "                            mmap'd and linted zero-copy\n");
}

// CertSource over the decoded PEM blocks: wire DER in file order, so
// the pipeline's parse/quarantine ladder handles malformed blocks.
class DerListSource final : public core::CertSource {
public:
    explicit DerListSource(const std::vector<Bytes>& ders) : ders_(&ders) {}

    size_t size_hint() const override { return ders_->size(); }
    Expected<std::optional<core::CertEntry>> next() override {
        if (pos_ >= ders_->size()) return std::optional<core::CertEntry>{};
        core::CertEntry entry;
        entry.index = pos_;
        entry.der = (*ders_)[pos_];
        ++pos_;
        return std::optional<core::CertEntry>(std::move(entry));
    }

private:
    const std::vector<Bytes>* ders_;
    size_t pos_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
    lint::RunOptions options;
    bool summary = false;
    bool json = false;
    bool stats = false;
    size_t jobs = 0;  // 0 = hardware concurrency
    std::string store_dir;
    std::string der_file;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--ignore-effective-dates") {
            options.respect_effective_dates = false;
        } else if (arg == "--list") {
            list_registry();
            return 0;
        } else if (arg == "--summary") {
            summary = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--jobs" || arg.starts_with("--jobs=")) {
            std::string_view value;
            if (arg == "--jobs") {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "--jobs requires a thread count\n");
                    return 64;
                }
                value = argv[++i];
            } else {
                value = arg.substr(strlen("--jobs="));
            }
            size_t parsed = 0;
            auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
            if (ec != std::errc() || ptr != value.data() + value.size() || parsed == 0) {
                std::fprintf(stderr, "invalid --jobs value: %.*s\n",
                             static_cast<int>(value.size()), value.data());
                return 64;
            }
            jobs = parsed;
        } else if (arg == "--store") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--store requires a store directory\n");
                return 64;
            }
            store_dir = argv[++i];
        } else if (arg == "--der-file") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--der-file requires a file path\n");
                return 64;
            }
            der_file = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            print_usage();
            return 0;
        } else if (arg.starts_with("-")) {
            std::fprintf(stderr, "unknown option: %s\n", argv[i]);
            return 64;
        } else {
            files.emplace_back(arg);
        }
    }

    std::vector<Bytes> ders;
    core::MappedPtr mapped;  // backs the zero-copy views for the whole run
    std::unique_ptr<ctlog::store::Store> store;  // backs the store log for the whole run
    if (!der_file.empty()) {
        if (!store_dir.empty() || !files.empty()) {
            std::fprintf(stderr,
                         "--der-file is mutually exclusive with --store and PEM arguments\n");
            return 64;
        }
        auto buffer = core::real_fs().map_readonly(der_file);
        if (!buffer.ok()) {
            std::fprintf(stderr, "cannot map %s: %s\n", der_file.c_str(),
                         buffer.error().message.c_str());
            return 66;
        }
        mapped = std::move(buffer).value();
        if (mapped->view().empty()) {
            std::fprintf(stderr, "%s holds no certificates\n", der_file.c_str());
            return 0;
        }
    } else if (!store_dir.empty()) {
        // Ingest straight from a durable on-disk store: recovery has
        // already verified each entry against the Merkle root.
        if (!files.empty()) {
            std::fprintf(stderr, "--store and PEM file arguments are mutually exclusive\n");
            return 64;
        }
        auto opened = ctlog::store::Store::open(core::real_fs(), store_dir);
        if (!opened.ok()) {
            std::fprintf(stderr, "cannot open store %s: %s\n", store_dir.c_str(),
                         opened.error().message.c_str());
            return 66;
        }
        store = std::move(opened).value();
        if (store->size() == 0) {
            std::fprintf(stderr, "store %s holds no entries\n", store_dir.c_str());
            return 0;
        }
    } else {
        std::string input;
        if (files.empty()) {
            input = read_stream(std::cin);
        } else {
            for (const std::string& path : files) {
                std::ifstream in(path, std::ios::binary);
                if (!in) {
                    std::fprintf(stderr, "cannot open %s\n", path.c_str());
                    return 66;
                }
                input += read_stream(in);
                if (in.bad()) {
                    std::fprintf(stderr, "read error on %s\n", path.c_str());
                    return 66;
                }
            }
        }

        auto blocks = x509::pem_decode_all(input);
        if (!blocks.ok()) {
            std::fprintf(stderr, "PEM error: %s\n", blocks.error().message.c_str());
            return 64;
        }
        for (const x509::PemBlock& block : blocks.value()) {
            if (block.label == "CERTIFICATE") ders.push_back(block.der);
        }
        if (ders.empty()) {
            std::fprintf(stderr, "no CERTIFICATE blocks found\n");
            return 64;
        }
    }

    // Lint everything through the parallel pipeline; the deterministic
    // merge hands results back in input order, so the printed output is
    // byte-identical for every --jobs value.
    core::PipelineOptions pipeline_options;
    pipeline_options.lint_options = options;
    if (stats) {
        pipeline_options.progress_interval = 2500;
        pipeline_options.progress = [](size_t processed, size_t size_hint) {
            std::fprintf(stderr, "linted %zu/%zu certificates...\n", processed, size_hint);
        };
    }
    std::optional<ctlog::store::StoreLogSource> store_log;
    std::unique_ptr<core::CertSource> source;
    if (mapped != nullptr) {
        source = std::make_unique<core::DerFileCertSource>(mapped->view());
    } else if (store != nullptr) {
        store_log.emplace(*store);
        source = std::make_unique<core::LogCertSource>(*store_log, 0, store->size());
    } else {
        source = std::make_unique<DerListSource>(ders);
    }
    core::ParallelPipeline pipeline(*source, pipeline_options, {.jobs = jobs});

    // Reconstruct the per-cert stream: quarantined indices interleave
    // with analyzed certs, which arrive in input order.
    std::map<size_t, const core::QuarantineRecord*> quarantined;
    for (const core::QuarantineRecord& record : pipeline.quarantine_report().records) {
        quarantined[record.entry_index] = &record;
    }
    // In --der-file mode the entry count comes from the pipeline itself
    // (every delivered entry was either analyzed or quarantined).
    const size_t total_entries =
        mapped != nullptr
            ? pipeline.analyzed().size() + pipeline.quarantine_report().records.size()
            : (store != nullptr ? store->size() : ders.size());
    bool any_error = false, any_warning = false;
    size_t next_analyzed = 0;
    for (size_t index = 0; index < total_entries; ++index) {
        auto quarantine_it = quarantined.find(index);
        if (quarantine_it != quarantined.end()) {
            std::printf("certificate #%zu: PARSE ERROR: %s\n", index,
                        quarantine_it->second->error.message.c_str());
            any_error = true;
            continue;
        }
        const core::AnalyzedCert& analyzed = pipeline.analyzed()[next_analyzed++];
        const lint::CertReport& report = analyzed.report;
        if (report.has_error()) any_error = true;
        if (report.has_warning()) any_warning = true;

        std::string subject;
        if (auto* cn = analyzed.cert->cert.subject.find_first(asn1::oids::common_name())) {
            subject = cn->to_utf8_lossy();
        }
        if (json) {
            std::printf("%s\n", core::lint_report_to_json(report).c_str());
        } else if (summary) {
            std::printf("certificate #%zu (%s): %zu findings%s\n", index, subject.c_str(),
                        report.findings.size(),
                        report.has_error() ? " [ERROR]"
                                           : (report.has_warning() ? " [warning]" : ""));
        } else {
            std::printf("certificate #%zu (%s):\n", index, subject.c_str());
            if (report.findings.empty()) {
                std::printf("  compliant\n");
            }
            for (const lint::Finding& f : report.findings) {
                std::printf("  %-8s %-52s %s\n", lint::severity_name(f.lint->severity),
                            f.lint->name.c_str(), f.detail.c_str());
            }
        }
    }
    if (stats) {
        std::printf("\n%s", core::render_pipeline_stats(pipeline.stats()).c_str());
        std::printf("%s", core::render_quarantine_report(pipeline.quarantine_report()).c_str());
    }
    if (!pipeline.stats().completed) {
        std::fprintf(stderr, "input stream aborted: %s\n",
                     pipeline.stats().abort_error.message.c_str());
        return 66;
    }
    return any_error ? 2 : (any_warning ? 1 : 0);
}
