#include "engine/progression_trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace wavebatch {

Result<ProgressionTrace> ProgressionTrace::Run(
    EvalSession& session, std::span<const double> exact,
    std::vector<Measure> measures, uint64_t dense_until, double growth,
    double k_sum_abs, uint64_t domain_cells) {
  WB_CHECK_GT(growth, 1.0);
  ProgressionTrace trace;
  trace.has_bounds_ = k_sum_abs > 0.0;
  trace.has_expected_ = domain_cells > 0;
  trace.has_skipped_ = session.options().fault_policy == FaultPolicy::kSkip;
  for (const Measure& m : measures) {
    WB_CHECK(m.penalty != nullptr);
    WB_CHECK_NE(m.normalizer, 0.0);
    trace.measure_names_.push_back(m.name);
  }

  uint64_t next_checkpoint = 0;  // record the zero-retrievals point too
  while (true) {
    if (session.StepsTaken() >= next_checkpoint || session.Done()) {
      trace.points_.push_back(
          MeasurePoint(session, exact, measures, k_sum_abs, domain_cells));
      if (session.Done()) break;
      const uint64_t taken = session.StepsTaken();
      if (taken < dense_until) {
        next_checkpoint = taken + 1;
      } else {
        next_checkpoint = std::max<uint64_t>(
            taken + 1, static_cast<uint64_t>(
                           std::ceil(static_cast<double>(taken) * growth)));
      }
    }
    // A kFail fetch error leaves the session unchanged, so retrying here
    // would spin forever: hand the failure to the caller instead.
    Result<size_t> step = session.Step();
    if (!step.ok()) return step.status();
  }
  return trace;
}

ProgressionTrace::Point ProgressionTrace::MeasurePoint(
    const EvalSession& session, std::span<const double> exact,
    const std::vector<Measure>& measures, double k_sum_abs,
    uint64_t domain_cells) {
  Point pt;
  pt.retrieved = session.StepsTaken();
  const std::vector<double>& est = session.Estimates();
  WB_CHECK_EQ(est.size(), exact.size());
  std::vector<double> error(est.size());
  for (size_t i = 0; i < est.size(); ++i) error[i] = est[i] - exact[i];

  pt.penalties.reserve(measures.size());
  for (const Measure& m : measures) {
    pt.penalties.push_back(m.penalty->Apply(error) / m.normalizer);
  }

  double sum_rel = 0.0, max_rel = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < est.size(); ++i) {
    if (exact[i] == 0.0) continue;
    const double rel = std::abs(error[i]) / std::abs(exact[i]);
    sum_rel += rel;
    max_rel = std::max(max_rel, rel);
    ++counted;
  }
  pt.mean_relative_error = counted ? sum_rel / counted : 0.0;
  pt.max_relative_error = max_rel;
  pt.worst_case_bound =
      k_sum_abs > 0.0 ? session.WorstCaseBound(k_sum_abs) : 0.0;
  pt.expected_penalty =
      domain_cells > 0 ? session.ExpectedPenalty(domain_cells) : 0.0;
  pt.skipped_importance = session.SkippedImportance();
  return pt;
}

Table ProgressionTrace::ToTable() const {
  std::vector<std::string> headers = {"retrieved"};
  for (const std::string& name : measure_names_) headers.push_back(name);
  headers.push_back("mean_rel_err");
  headers.push_back("max_rel_err");
  if (has_bounds_) headers.push_back("worst_case_bound");
  if (has_expected_) headers.push_back("expected_penalty");
  if (has_skipped_) headers.push_back("skipped_importance");
  Table table(std::move(headers));
  for (const Point& pt : points_) {
    std::vector<std::string> row = {std::to_string(pt.retrieved)};
    for (double p : pt.penalties) row.push_back(FormatDouble(p));
    row.push_back(FormatDouble(pt.mean_relative_error));
    row.push_back(FormatDouble(pt.max_relative_error));
    if (has_bounds_) row.push_back(FormatDouble(pt.worst_case_bound));
    if (has_expected_) row.push_back(FormatDouble(pt.expected_penalty));
    if (has_skipped_) row.push_back(FormatDouble(pt.skipped_importance));
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace wavebatch
