// unicert_diff: the supervised differential-parsing engine as a CLI.
//
//   unicert_diff                        supervised Table 4/5 sweep (default)
//   unicert_diff --fuzz                 structure-aware DER fuzz loop
//   unicert_diff --replay               re-run every crash-corpus bucket
//   unicert_diff --triage               summarize the crash corpus
//   unicert_diff --campaign             start a checkpointed fuzzing campaign
//   unicert_diff --resume               continue a campaign after a crash
//   unicert_diff --status               print the last committed generation
//
// Fault-injection flags wrap the built-in library models in a
// deterministic misbehaving double, which is how the containment path
// is exercised without a real crashing parser. Fuzz runs record their
// seed and injection rates in <corpus>/corpus.meta so --replay
// reconstructs the identical engine.
//
// Campaign runs persist their full state (seed corpus, bucket map,
// energy table, input cursor) as checksummed checkpoint generations in
// --state DIR; kill -9 at any point and `--resume` continues
// byte-equivalently to an uninterrupted run (DESIGN.md section 11).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fs.h"
#include "difffuzz/campaign/campaign.h"
#include "difffuzz/faulty_model.h"
#include "difffuzz/fuzzer.h"
#include "tlslib/supervisor.h"

using namespace unicert;

namespace {

constexpr const char* kUsage = R"(unicert_diff - supervised differential-parsing engine

usage: unicert_diff [mode] [options]

modes (default --sweep):
  --sweep               run the supervised Table 4/5 sweep over all nine
                        library models and print the grids
  --fuzz                mutate DER seeds and run each input through every
                        library model under containment; failures are
                        bucketed into the crash corpus
  --replay              re-run every corpus bucket and verify the same
                        (library, outcome, signature) reproduces
  --triage              print a per-bucket summary of the crash corpus
  --campaign            start a fresh feedback-guided campaign in --state
                        DIR (refuses to clobber an existing one)
  --resume              continue a campaign from its newest valid
                        checkpoint generation
  --status              print the last committed campaign generation

options:
  --corpus DIR          crash-corpus directory (--fuzz/--campaign persist
                        to it; --replay/--triage read it; campaigns
                        default to <state>/corpus; in-memory when omitted)
  --state DIR           campaign state directory (checkpoint generations)
  --seed N              fuzz/mutation seed (default 1)
  --iterations N        fuzz inputs to generate (default 256)
  --jobs N              campaign evaluation workers (default 1)
  --batch N             campaign inputs per scheduling round (default 16)
  --checkpoint-every N  batches per committed generation (default 4)
  --max-evals N         stop the campaign after N cumulative inputs
  --max-wall-ms N       stop the campaign after N wall milliseconds
  --inject-crash R      probability [0,1] that a model call throws
  --inject-hang R       probability [0,1] that a model call hangs
  --inject-oversize R   probability [0,1] that a model call floods output
  --no-minimize         skip delta-debug minimization of new buckets
  --help                this text

exit codes:
  0   success: sweep clean / fuzz ran / every replayed bucket reproduced /
      campaign ran to its stop condition
  1   failures: sweep had failure cells, fuzz found new buckets, or a
      replayed bucket did not reproduce
  64  usage error (unknown flag, missing argument, bad number, campaign
      without a stop condition)
  65  --campaign refused: --state DIR already holds a campaign (use
      --resume to continue it)
  66  corpus/state directory missing, unreadable, or no valid checkpoint
  74  I/O error writing the corpus, corpus.meta, or a checkpoint
)";

struct Options {
    enum class Mode { kSweep, kFuzz, kReplay, kTriage, kCampaign, kResume, kStatus };
    Mode mode = Mode::kSweep;
    std::string corpus_dir;
    std::string state_dir;
    uint64_t seed = 1;
    size_t iterations = 256;
    size_t jobs = 1;
    size_t batch = 16;
    uint64_t checkpoint_every = 4;
    uint64_t max_evals = 0;
    uint64_t max_wall_ms = 0;
    double crash_rate = 0.0;
    double hang_rate = 0.0;
    double oversize_rate = 0.0;
    bool minimize = true;
};

bool parse_double(const char* s, double* out) {
    char* end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0' && *out >= 0.0 && *out <= 1.0;
}

bool parse_u64(const char* s, uint64_t* out) {
    char* end = nullptr;
    *out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

int parse_args(int argc, char** argv, Options* opts) {
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto need_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "unicert_diff: %s requires a value\n", argv[i]);
                return nullptr;
            }
            return argv[++i];
        };
        auto need_u64 = [&](uint64_t* out) {
            const char* v = need_value();
            return v != nullptr && parse_u64(v, out);
        };
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--sweep") {
            opts->mode = Options::Mode::kSweep;
        } else if (arg == "--fuzz") {
            opts->mode = Options::Mode::kFuzz;
        } else if (arg == "--replay") {
            opts->mode = Options::Mode::kReplay;
        } else if (arg == "--triage") {
            opts->mode = Options::Mode::kTriage;
        } else if (arg == "--campaign") {
            opts->mode = Options::Mode::kCampaign;
        } else if (arg == "--resume") {
            opts->mode = Options::Mode::kResume;
        } else if (arg == "--status") {
            opts->mode = Options::Mode::kStatus;
        } else if (arg == "--corpus") {
            const char* v = need_value();
            if (!v) return 64;
            opts->corpus_dir = v;
        } else if (arg == "--state") {
            const char* v = need_value();
            if (!v) return 64;
            opts->state_dir = v;
        } else if (arg == "--seed") {
            if (!need_u64(&opts->seed)) return 64;
        } else if (arg == "--iterations") {
            uint64_t n = 0;
            if (!need_u64(&n)) return 64;
            opts->iterations = static_cast<size_t>(n);
        } else if (arg == "--jobs") {
            uint64_t n = 0;
            if (!need_u64(&n) || n == 0) return 64;
            opts->jobs = static_cast<size_t>(n);
        } else if (arg == "--batch") {
            uint64_t n = 0;
            if (!need_u64(&n) || n == 0) return 64;
            opts->batch = static_cast<size_t>(n);
        } else if (arg == "--checkpoint-every") {
            if (!need_u64(&opts->checkpoint_every)) return 64;
        } else if (arg == "--max-evals") {
            if (!need_u64(&opts->max_evals)) return 64;
        } else if (arg == "--max-wall-ms") {
            if (!need_u64(&opts->max_wall_ms)) return 64;
        } else if (arg == "--inject-crash") {
            const char* v = need_value();
            if (!v || !parse_double(v, &opts->crash_rate)) return 64;
        } else if (arg == "--inject-hang") {
            const char* v = need_value();
            if (!v || !parse_double(v, &opts->hang_rate)) return 64;
        } else if (arg == "--inject-oversize") {
            const char* v = need_value();
            if (!v || !parse_double(v, &opts->oversize_rate)) return 64;
        } else if (arg == "--no-minimize") {
            opts->minimize = false;
        } else {
            std::fprintf(stderr, "unicert_diff: unknown argument %s (try --help)\n", argv[i]);
            return 64;
        }
    }
    return 0;
}

bool has_injection(const Options& o) {
    return o.crash_rate > 0.0 || o.hang_rate > 0.0 || o.oversize_rate > 0.0;
}

// ---- corpus.meta: reproduce the engine that filled the corpus ------------

// Temp + rename, and loud on failure: a truncated or missing
// corpus.meta silently replays with the wrong engine parameters.
Status save_meta(const Options& o) {
    if (o.corpus_dir.empty()) return Status::success();
    difffuzz::CorpusMeta meta;
    meta.seed = o.seed;
    meta.crash_rate = o.crash_rate;
    meta.hang_rate = o.hang_rate;
    meta.oversize_rate = o.oversize_rate;
    std::string text = difffuzz::serialize_meta(meta);
    return core::atomic_write_file(core::real_fs(), o.corpus_dir + "/corpus.meta",
                                   std::string_view(text), o.corpus_dir);
}

void load_meta(Options* o) {
    if (o->corpus_dir.empty()) return;
    auto bytes = core::real_fs().read_file(o->corpus_dir + "/corpus.meta");
    if (!bytes.ok()) return;  // no meta: replay with CLI-provided parameters
    difffuzz::MetaParseResult parsed = difffuzz::parse_meta(
        std::string_view(reinterpret_cast<const char*>(bytes->data()), bytes->size()));
    if (!parsed.ok) {
        std::fprintf(stderr, "unicert_diff: warning: %s\n", parsed.note.c_str());
        return;
    }
    if (parsed.truncated) {
        // A crashed writer left a torn tail: every complete line still
        // applies, the cut-off remainder is reported, not fatal.
        std::fprintf(stderr, "unicert_diff: warning: corpus.meta partially written (%s)\n",
                     parsed.note.c_str());
    }
    o->seed = parsed.meta.seed;
    o->crash_rate = parsed.meta.crash_rate;
    o->hang_rate = parsed.meta.hang_rate;
    o->oversize_rate = parsed.meta.oversize_rate;
}

// Lenient corpus load: print what was salvaged and what was skipped.
int load_corpus_lenient(difffuzz::CrashCorpus& corpus) {
    difffuzz::LoadReport report;
    if (Status st = corpus.load(&report); !st.ok()) {
        std::fprintf(stderr, "unicert_diff: %s\n", st.error().message.c_str());
        return 66;
    }
    for (const std::string& note : report.notes) {
        std::fprintf(stderr, "unicert_diff: warning: skipped %s\n", note.c_str());
    }
    if (report.skipped > 0) {
        std::fprintf(stderr, "unicert_diff: %zu damaged entr%s skipped, %zu loaded\n",
                     report.skipped, report.skipped == 1 ? "y" : "ies", report.loaded);
    }
    return 0;
}

// ---- engine assembly -----------------------------------------------------

// Owns the optional fault-injecting double and the clock that makes
// injected hangs terminate instantly.
struct Engine {
    core::ManualClock manual_clock;
    std::unique_ptr<difffuzz::FaultyModel> faulty;

    tlslib::LibraryModel& model() {
        return faulty ? static_cast<tlslib::LibraryModel&>(*faulty) : tlslib::builtin_model();
    }
    core::Clock& clock() {
        return faulty ? static_cast<core::Clock&>(manual_clock) : core::system_clock();
    }
};

Engine make_engine(const Options& o) {
    Engine e;
    if (has_injection(o)) {
        difffuzz::FaultyModelOptions fo;
        fo.seed = o.seed;
        fo.crash_rate = o.crash_rate;
        fo.hang_rate = o.hang_rate;
        fo.oversize_rate = o.oversize_rate;
        e.faulty = std::make_unique<difffuzz::FaultyModel>(tlslib::builtin_model(), fo,
                                                           e.manual_clock);
    }
    return e;
}

difffuzz::DiffFuzzer make_fuzzer(Engine& e, difffuzz::CrashCorpus& corpus, const Options& o) {
    difffuzz::FuzzOptions fo;
    fo.seed = o.seed;
    fo.iterations = o.iterations;
    fo.minimize = o.minimize;
    return difffuzz::DiffFuzzer(corpus, fo, e.model(), e.clock());
}

// ---- modes ---------------------------------------------------------------

const char* cell_symbol(const tlslib::SupervisedEval& cell) {
    switch (cell.outcome) {
        case tlslib::EvalOutcome::kCrash: return "C!";
        case tlslib::EvalOutcome::kHang: return "H!";
        case tlslib::EvalOutcome::kOversizeOutput: return "F!";
        case tlslib::EvalOutcome::kParseRefusal: return "R";
        default: return tlslib::decode_class_symbol(cell.decode_class);
    }
}

int run_sweep(const Options& o) {
    Engine engine = make_engine(o);
    tlslib::Supervisor supervisor(engine.model(), {}, engine.clock());
    tlslib::SweepReport report = supervisor.sweep();

    std::printf("-- Table 4 (supervised decode inference) --\n");
    std::printf("%-28s", "scenario");
    for (tlslib::Library lib : tlslib::kAllLibraries) {
        std::printf(" %-4.4s", tlslib::library_name(lib));
    }
    std::printf("\n");
    auto scenarios = tlslib::Supervisor::table4_scenarios();
    for (const tlslib::Scenario& s : scenarios) {
        std::string row = std::string(asn1::string_type_name(s.declared)) + "/" +
                          tlslib::field_context_name(s.context);
        std::printf("%-28s", row.c_str());
        for (tlslib::Library lib : tlslib::kAllLibraries) {
            for (const tlslib::SupervisedEval& cell : report.decode_cells) {
                if (cell.lib == lib && cell.scenario.declared == s.declared &&
                    cell.scenario.context == s.context) {
                    std::printf(" %-4s", cell_symbol(cell));
                    break;
                }
            }
        }
        std::printf("\n");
    }

    std::printf("\n-- Table 5 (supervised violation cells) --\n");
    size_t t5_failures = 0;
    for (const tlslib::SupervisedViolation& v : report.violation_cells) {
        if (tlslib::eval_outcome_is_failure(v.outcome)) ++t5_failures;
    }
    std::printf("cells: %zu (%zu failure)\n", report.violation_cells.size(), t5_failures);

    if (!report.quarantined.empty()) {
        std::printf("\nquarantined models:\n");
        for (tlslib::Library lib : report.quarantined) {
            std::printf("  %s\n", tlslib::library_name(lib));
        }
    }
    std::printf("\nsweep cells: %zu   failures: %zu\n",
                report.decode_cells.size() + report.violation_cells.size(), report.failures);
    return report.failures > 0 ? 1 : 0;
}

int run_fuzz(const Options& o) {
    Engine engine = make_engine(o);
    difffuzz::CrashCorpus corpus(o.corpus_dir);
    if (!o.corpus_dir.empty()) {
        // Merge with an existing corpus so repeated runs accumulate.
        if (int rc = load_corpus_lenient(corpus); rc != 0) return rc;
    }
    difffuzz::DiffFuzzer fuzzer = make_fuzzer(engine, corpus, o);
    difffuzz::FuzzStats stats = fuzzer.run();
    if (Status st = save_meta(o); !st.ok()) {
        std::fprintf(stderr, "unicert_diff: cannot write corpus.meta: %s\n",
                     st.error().message.c_str());
        return 74;
    }
    if (const Status& st = corpus.persist_status(); !st.ok()) {
        std::fprintf(stderr, "unicert_diff: corpus persist failed: %s\n",
                     st.error().message.c_str());
        return 74;
    }
    std::printf("fuzz: seed=%llu inputs=%zu evaluations=%zu failures=%zu\n",
                static_cast<unsigned long long>(o.seed), stats.inputs, stats.evaluations,
                stats.failures);
    std::printf("corpus: %zu bucket(s), %zu new, %zu minimized%s%s\n", corpus.size(),
                stats.new_buckets, stats.minimized, o.corpus_dir.empty() ? "" : " -> ",
                o.corpus_dir.c_str());
    return stats.new_buckets > 0 ? 1 : 0;
}

int run_replay(Options o) {
    if (o.corpus_dir.empty()) {
        std::fprintf(stderr, "unicert_diff: --replay requires --corpus DIR\n");
        return 64;
    }
    if (!std::filesystem::is_directory(o.corpus_dir)) {
        std::fprintf(stderr, "unicert_diff: cannot read corpus dir %s\n", o.corpus_dir.c_str());
        return 66;
    }
    load_meta(&o);
    difffuzz::CrashCorpus corpus(o.corpus_dir);
    if (int rc = load_corpus_lenient(corpus); rc != 0) return rc;
    Engine engine = make_engine(o);
    difffuzz::DiffFuzzer fuzzer = make_fuzzer(engine, corpus, o);
    std::vector<std::string> unreproduced;
    size_t reproduced = fuzzer.replay(&unreproduced);
    std::printf("replay: %zu/%zu bucket(s) reproduced\n", reproduced, corpus.size());
    for (const std::string& key : unreproduced) {
        std::printf("  NOT reproduced: %s\n", key.c_str());
    }
    return unreproduced.empty() ? 0 : 1;
}

int run_triage(const Options& o) {
    if (o.corpus_dir.empty()) {
        std::fprintf(stderr, "unicert_diff: --triage requires --corpus DIR\n");
        return 64;
    }
    if (!std::filesystem::is_directory(o.corpus_dir)) {
        std::fprintf(stderr, "unicert_diff: cannot read corpus dir %s\n", o.corpus_dir.c_str());
        return 66;
    }
    difffuzz::CrashCorpus corpus(o.corpus_dir);
    if (int rc = load_corpus_lenient(corpus); rc != 0) return rc;
    std::printf("corpus %s: %zu bucket(s)\n", o.corpus_dir.c_str(), corpus.size());
    for (const auto& [key, entry] : corpus.entries()) {
        std::printf("  %-48s %4zuB  %s/%s  %s\n", key.c_str(), entry.payload.size(),
                    asn1::string_type_name(entry.scenario.declared),
                    tlslib::field_context_name(entry.scenario.context), entry.detail.c_str());
    }
    return 0;
}

// ---- campaign ------------------------------------------------------------

difffuzz::campaign::CampaignOptions campaign_options(const Options& o) {
    difffuzz::campaign::CampaignOptions co;
    co.seed = o.seed;
    co.jobs = o.jobs;
    co.batch_size = o.batch;
    co.checkpoint_every = o.checkpoint_every;
    co.max_evals = o.max_evals;
    co.max_wall_ms = static_cast<int64_t>(o.max_wall_ms);
    return co;
}

// The newest valid checkpoint in --state (its state into `*state` when
// non-null), read through a campaign whose corpus lives in memory: the
// probe creates no directory, and recovery is read-only, so it is safe
// while another process commits to the same directory.
Expected<core::RecoveredGeneration> read_checkpoint(const Options& o,
                                                    difffuzz::campaign::CampaignState* state) {
    difffuzz::CrashCorpus corpus;
    difffuzz::campaign::Campaign campaign(campaign_options(o), corpus, core::real_fs(),
                                          o.state_dir);
    auto recovered = campaign.resume();
    if (recovered.ok() && state != nullptr) *state = campaign.state();
    return recovered;
}

int run_campaign_loop(Options o, bool fresh) {
    if (o.state_dir.empty()) {
        std::fprintf(stderr, "unicert_diff: %s requires --state DIR\n",
                     fresh ? "--campaign" : "--resume");
        return 64;
    }
    if (o.max_evals == 0 && o.max_wall_ms == 0) {
        std::fprintf(stderr,
                     "unicert_diff: set --max-evals and/or --max-wall-ms; unbounded "
                     "campaigns are refused\n");
        return 64;
    }
    if (o.corpus_dir.empty()) o.corpus_dir = o.state_dir + "/corpus";

    if (fresh) {
        auto probe = read_checkpoint(o, nullptr);
        if (probe.ok()) {
            std::fprintf(stderr,
                         "unicert_diff: %s already holds a campaign (gen %llu); use "
                         "--resume to continue it or point --state elsewhere\n",
                         o.state_dir.c_str(),
                         static_cast<unsigned long long>(probe->generation));
            return 65;
        }
        if (probe.error().code != "campaign_no_checkpoint") {
            std::fprintf(stderr, "unicert_diff: %s\n", probe.error().message.c_str());
            return 66;
        }
    }

    difffuzz::CrashCorpus corpus(o.corpus_dir);
    difffuzz::campaign::Campaign campaign(campaign_options(o), corpus, core::real_fs(),
                                          o.state_dir);

    if (fresh) {
        if (Status st = campaign.start_fresh(); !st.ok()) {
            std::fprintf(stderr, "unicert_diff: cannot start campaign: %s\n",
                         st.error().message.c_str());
            return 74;
        }
        if (Status st = save_meta(o); !st.ok()) {
            std::fprintf(stderr, "unicert_diff: cannot write corpus.meta: %s\n",
                         st.error().message.c_str());
            return 74;
        }
        std::printf("campaign: started in %s (seed=%llu)\n", o.state_dir.c_str(),
                    static_cast<unsigned long long>(o.seed));
    } else {
        auto recovered = campaign.resume();
        if (!recovered.ok()) {
            std::fprintf(stderr, "unicert_diff: cannot resume: %s\n",
                         recovered.error().message.c_str());
            return 66;
        }
        // The .crash files written before the crash are durable; load
        // them (leniently) so the corpus dedup map matches the resumed
        // bucket set instead of rewriting every entry.
        if (int rc = load_corpus_lenient(corpus); rc != 0) return rc;
        for (const std::string& note : recovered->notes) {
            std::fprintf(stderr, "unicert_diff: recovery: %s\n", note.c_str());
        }
        std::printf("campaign: resumed %s at %s\n", o.state_dir.c_str(),
                    difffuzz::campaign::describe_state(campaign.state(), recovered->generation)
                        .c_str());
    }

    difffuzz::campaign::CampaignReport report = campaign.run();
    if (!report.io.ok()) {
        std::fprintf(stderr, "unicert_diff: campaign aborted: %s: %s\n",
                     report.io.error().code.c_str(), report.io.error().message.c_str());
        return 74;
    }
    std::printf("campaign: %s\n",
                difffuzz::campaign::describe_state(campaign.state(),
                                                   campaign.state().batches_done)
                    .c_str());
    std::printf("run: inputs=%llu new_buckets=%llu checkpoints=%llu retried=%llu "
                "quarantined=%llu stop=%s\n",
                static_cast<unsigned long long>(report.inputs),
                static_cast<unsigned long long>(report.new_buckets),
                static_cast<unsigned long long>(report.checkpoints),
                static_cast<unsigned long long>(report.retried),
                static_cast<unsigned long long>(report.quarantined),
                report.stopped_by_evals ? "max-evals"
                : report.stopped_by_wall ? "max-wall-ms"
                                         : "none");
    return 0;
}

int run_status(const Options& o) {
    if (o.state_dir.empty()) {
        std::fprintf(stderr, "unicert_diff: --status requires --state DIR\n");
        return 64;
    }
    difffuzz::campaign::CampaignState state;
    auto recovered = read_checkpoint(o, &state);
    if (!recovered.ok()) {
        std::fprintf(stderr, "unicert_diff: %s\n", recovered.error().message.c_str());
        return 66;
    }
    for (const std::string& note : recovered->notes) {
        std::fprintf(stderr, "unicert_diff: recovery: %s\n", note.c_str());
    }
    std::printf("status: %s\n",
                difffuzz::campaign::describe_state(state, recovered->generation).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options opts;
    if (int rc = parse_args(argc, argv, &opts); rc != 0) return rc;
    switch (opts.mode) {
        case Options::Mode::kSweep: return run_sweep(opts);
        case Options::Mode::kFuzz: return run_fuzz(opts);
        case Options::Mode::kReplay: return run_replay(opts);
        case Options::Mode::kTriage: return run_triage(opts);
        case Options::Mode::kCampaign: return run_campaign_loop(opts, /*fresh=*/true);
        case Options::Mode::kResume: return run_campaign_loop(opts, /*fresh=*/false);
        case Options::Mode::kStatus: return run_status(opts);
    }
    return 0;
}
