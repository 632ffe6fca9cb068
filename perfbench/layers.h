// Layer probes shared by the workloads. A traced run reports every
// per-layer metric on every workload: the layers a workload's own loop
// calls are measured there, and the others by these probes over the
// same workload's certificates, so each number is one layer's cost on
// that workload's inputs.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "ctlog/corpus.h"

namespace perfbench {

// Back-to-back DER certificates plus where each one starts.
struct DerCorpus {
    unicert::Bytes buffer;
    std::vector<size_t> offsets;  // one per cert, then buffer.size()

    std::vector<unicert::BytesView> views() const;
};

DerCorpus concat_der(const std::vector<unicert::BytesView>& ders);

// Views of each generated certificate's DER, in generator order.
std::vector<unicert::BytesView> corpus_ders(const std::vector<unicert::ctlog::CorpusCert>& corpus);

// The lint a generator-injected defect in certificate `index` must
// fire, or, when the cert predates the lint's effective date, must not.
struct ExpectedLint {
    size_t index = 0;
    std::string lint;
    bool fires = true;
};

struct PassResult {
    double pass_s = 0;       // DER buffer -> seven §4 outputs
    double pipeline_s = 0;   // ParallelPipeline construction (index, lint, materialize)
    double pipeline_cpu_s = 0;  // process CPU time over the same interval
    std::string taxonomy_json;
    size_t analyzed = 0;
    size_t quarantined = 0;
    size_t duplicates = 0;
    size_t findings = 0;       // over every analyzed certificate
    size_t defect_misses = 0;  // injected defects whose lint verdict was wrong
};

// One census pass: DerFileCertSource -> ParallelPipeline(jobs) -> the
// seven §4 outputs, with defects checked against `expected` when given.
PassResult census_pass(const DerCorpus& input, size_t jobs, Tracer& tracer, uint64_t request,
                       const std::vector<ExpectedLint>* expected);

// x509, lint and core metrics over `input`: a per-certificate replay of
// index -> lint -> materialize, one jobs=1 pass and jobs=2 passes for at
// least `seconds`. Returns the jobs=2 pass times.
std::vector<double> cert_path_layers(const DerCorpus& input, double seconds,
                                     const std::string& trace_dir, Outcome& out);

// SHA-256 bulk and node rates and the Merkle leaf hash over `ders`.
void crypto_layers(const std::vector<unicert::BytesView>& ders, Outcome& out);

// Store and index metrics from a small ingest run over `ders`: the
// census's view of the ctlog layers it never calls itself.
void monitor_probe_layers(const std::vector<unicert::BytesView>& ders, const Args& args,
                          Outcome& out);

}  // namespace perfbench
