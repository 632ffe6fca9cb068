#include "difffuzz/campaign/campaign.h"

#include <algorithm>
#include <sstream>

#include "common/splitmix.h"
#include "core/executor.h"
#include "faultsim/der_mutator.h"
#include "faultsim/harness_fence.h"

namespace unicert::difffuzz::campaign {
namespace {

size_t initial_seed_count() {
    static const size_t count = DiffFuzzer::seed_inputs().size();
    return count;
}

FuzzOptions eval_options(const CampaignOptions& options) {
    FuzzOptions fuzz;
    fuzz.seed = options.seed;
    fuzz.context = options.context;
    fuzz.budget = options.budget;
    return fuzz;
}

}  // namespace

// One planned input: filled sequentially, evaluated on a worker,
// merged back in salt order.
struct Campaign::Slot {
    uint64_t salt = 0;
    size_t parent = 0;
    Bytes input;
    std::vector<InputEval> evals;
    bool ok = false;
    uint64_t retries = 0;
};

Campaign::Campaign(CampaignOptions options, CrashCorpus& corpus, core::Fs& fs,
                   std::string state_dir, tlslib::LibraryModel& model, core::Clock& clock)
    : options_(options),
      corpus_(&corpus),
      clock_(&clock),
      store_(fs, std::move(state_dir), "campaign"),
      fuzzer_(corpus, eval_options(options), model, clock) {}

Status Campaign::start_fresh() {
    state_ = CampaignState{};
    state_.seed = options_.seed;
    std::vector<Bytes> seeds = DiffFuzzer::seed_inputs();
    for (size_t i = 0; i < seeds.size(); ++i) {
        SeedEntry entry;
        entry.id = i;
        entry.energy = std::max<uint64_t>(options_.base_energy, 1);
        entry.payload = std::move(seeds[i]);
        state_.corpus.push_back(std::move(entry));
    }
    if (Status st = store_.init(); !st.ok()) return st;
    return store_.commit(serialize_state(state_), 0);
}

Expected<core::RecoveredGeneration> Campaign::resume() {
    CampaignState recovered_state;
    auto recovered = store_.recover([&recovered_state](std::string_view payload) -> Status {
        auto state = parse_state(payload);
        if (!state.ok()) return state.error();
        recovered_state = std::move(state).value();
        return Status::success();
    });
    if (!recovered.ok()) return recovered.error();
    if (!recovered->found) {
        return Error{"campaign_no_checkpoint", "no checkpoint in " + store_.dir()};
    }
    state_ = std::move(recovered_state);
    return recovered;
}

size_t Campaign::pick_parent(uint64_t salt) const {
    uint64_t total = 0;
    for (const SeedEntry& entry : state_.corpus) total += entry.energy;
    uint64_t r = mix64(state_.seed ^ mix64(salt ^ 0x5CA1AB1EULL)) % total;
    for (size_t i = 0; i < state_.corpus.size(); ++i) {
        if (r < state_.corpus[i].energy) return i;
        r -= state_.corpus[i].energy;
    }
    return state_.corpus.size() - 1;
}

void Campaign::evaluate_slot(Slot& slot, const faultsim::HarnessFence& fence) {
    // evaluate_input contains model misbehaviour itself; the fence
    // keeps a harness bug from taking the campaign down.
    auto result = fence.run<std::vector<InputEval>>(
        slot.salt, [&] { return fuzzer_.evaluate_input(slot.input); }, &slot.retries);
    if (result.ok()) {
        slot.evals = std::move(result).value();
        slot.ok = true;
    }
}

void Campaign::merge_slot(const Slot& slot, CampaignReport& report) {
    report.retried += slot.retries;
    SeedEntry& parent = state_.corpus[slot.parent];
    ++parent.trials;
    if (!slot.ok) {
        // The ladder gave up (classify_failure: quarantine, not abort)
        // — the salt is consumed, the schedule moves on undisturbed.
        ++state_.quarantined;
        ++report.quarantined;
        return;
    }
    uint64_t found = 0;
    for (const InputEval& eval : slot.evals) {
        if (eval.outcome != tlslib::EvalOutcome::kUnsupported) ++state_.evals;
        if (!tlslib::eval_outcome_is_failure(eval.outcome)) continue;
        ++state_.failures;
        CrashEntry entry;
        entry.lib = eval.lib;
        entry.scenario = DiffFuzzer::derive_scenario(slot.input, options_.context);
        entry.outcome = eval.outcome;
        entry.signature = eval.signature;
        entry.detail = eval.detail;
        entry.payload = slot.input;
        if (!state_.buckets.insert(bucket_key(entry)).second) continue;
        ++found;
        // add() may report "already present" after a resume reloaded
        // the entry from disk; the content is deterministic, so either
        // way the corpus holds the same bytes.
        (void)corpus_->add(entry);
    }
    report.new_buckets += found;
    if (found > 0) {
        parent.discoveries += found;
        parent.energy = std::min(options_.max_energy, parent.energy + options_.base_energy);
        SeedEntry mutant;
        mutant.id = initial_seed_count() + slot.salt;
        mutant.energy = std::max<uint64_t>(options_.base_energy, 1);
        mutant.payload = slot.input;
        state_.corpus.push_back(std::move(mutant));
    } else {
        parent.energy = std::max<uint64_t>(
            1, parent.energy - std::max<uint64_t>(1, parent.energy / 8));
    }
}

void Campaign::evict_to_cap() {
    const size_t cap = std::max<size_t>(options_.corpus_max, 1);
    while (state_.corpus.size() > cap) {
        size_t victim = 0;
        for (size_t i = 1; i < state_.corpus.size(); ++i) {
            const SeedEntry& a = state_.corpus[i];
            const SeedEntry& b = state_.corpus[victim];
            const bool worse = a.discoveries != b.discoveries ? a.discoveries < b.discoveries
                               : a.energy != b.energy         ? a.energy < b.energy
                                                              : a.id > b.id;
            if (worse) victim = i;
        }
        state_.corpus.erase(state_.corpus.begin() +
                            static_cast<std::ptrdiff_t>(victim));
    }
}

CampaignReport Campaign::run() {
    CampaignReport report;
    if (options_.max_evals == 0 && options_.max_wall_ms == 0) {
        report.io = Error{"campaign_no_stop_condition",
                          "set max_evals and/or max_wall_ms; unbounded runs are refused"};
        return report;
    }
    if (state_.corpus.empty()) {
        report.io = Error{"campaign_not_started", "call start_fresh() or resume() first"};
        return report;
    }

    const int64_t start_ms = clock_->now_ms();
    core::Executor executor(std::max<size_t>(options_.jobs, 1));
    faultsim::DerMutator mutator(state_.seed);
    // Seeded from the checkpoint, salted apart from the mutation stream.
    const faultsim::HarnessFence fence({.seed = state_.seed ^ 0xCA3BA16EULL,
                                        .flake_rate = options_.flake_rate,
                                        .poison_rate = options_.poison_rate},
                                       *clock_);

    for (;;) {
        if (options_.max_evals > 0 && state_.next_salt >= options_.max_evals) {
            report.stopped_by_evals = true;
            break;
        }
        if (options_.max_wall_ms > 0 && clock_->now_ms() - start_ms >= options_.max_wall_ms) {
            report.stopped_by_wall = true;
            break;
        }

        // Plan the batch sequentially against the current state; every
        // decision is a pure hash of (seed, salt).
        size_t batch = std::max<size_t>(options_.batch_size, 1);
        if (options_.max_evals > 0) {
            batch = static_cast<size_t>(std::min<uint64_t>(
                batch, options_.max_evals - state_.next_salt));
        }
        std::vector<Slot> slots(batch);
        for (size_t k = 0; k < batch; ++k) {
            Slot& slot = slots[k];
            slot.salt = state_.next_salt + k;
            slot.parent = pick_parent(slot.salt);
            slot.input = mutator.mutate(state_.corpus[slot.parent].payload, slot.salt);
        }

        // Fan out, then merge in salt order: byte-identical state at
        // any job count.
        for (Slot& slot : slots) {
            executor.submit([this, &slot, &fence] { evaluate_slot(slot, fence); });
        }
        executor.wait_idle();
        for (const Slot& slot : slots) merge_slot(slot, report);
        evict_to_cap();

        state_.next_salt += batch;
        ++state_.batches_done;
        report.inputs += batch;

        if (const Status& st = corpus_->persist_status(); !st.ok()) {
            report.io = st;
            break;
        }
        if (options_.checkpoint_every > 0 &&
            state_.batches_done % options_.checkpoint_every == 0) {
            if (Status st = store_.commit(serialize_state(state_), state_.batches_done);
                !st.ok()) {
                report.io = st;
                break;
            }
            ++report.checkpoints;
        }
    }

    // Commit whatever progress the stop condition left uncheckpointed.
    if (report.io.ok() &&
        (!store_.last_committed() || *store_.last_committed() != state_.batches_done)) {
        if (Status st = store_.commit(serialize_state(state_), state_.batches_done); st.ok()) {
            ++report.checkpoints;
        } else {
            report.io = st;
        }
    }
    return report;
}

std::string describe_state(const CampaignState& state, uint64_t generation) {
    std::ostringstream out;
    out << "gen " << generation << " | inputs " << state.next_salt << " | evals "
        << state.evals << " | buckets " << state.buckets.size() << " | corpus "
        << state.corpus.size() << " | failures " << state.failures << " | quarantined "
        << state.quarantined;
    return out.str();
}

}  // namespace unicert::difffuzz::campaign
