// unicert/core/json.h
//
// Minimal JSON emission for machine-readable linter output (the
// unicert_lint --json mode) and report export. Writer-only: the
// library never needs to parse JSON.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.h"
#include "lint/lint.h"

namespace unicert::core {

// One certificate's lint report:
// {"noncompliant":true,"findings":[{"lint":...,"severity":...,
//  "type":...,"source":...,"new":...,"detail":...}]}
std::string lint_report_to_json(const lint::CertReport& report);

// The Table 1 taxonomy as JSON (for dashboards / diffing runs).
std::string taxonomy_to_json(const TaxonomyReport& report);

// The Table 2 issuer ranking as JSON, in report order.
std::string issuer_report_to_json(const std::vector<IssuerRow>& rows);

// The Figure 3 validity CDFs as JSON: per-class counts, quantiles and
// the CDF sampled at the lifetime limits the paper discusses (90/365/
// 398/825 days…). Doubles are emitted with fixed precision so the
// output is byte-stable across runs — the golden-file tests diff it.
std::string validity_cdf_to_json(const ValidityCdf& cdf);

}  // namespace unicert::core
