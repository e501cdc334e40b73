// The paper's Q3 scenario: find partition cells that are local minima
// (average temperature below every grid neighbor) from *approximate*
// results. A plain-SSE progression can fabricate or hide extrema; the
// discrete-Laplacian penalty (P3) targets exactly the error structure that
// flips extrema. This example runs both progressions at matched budgets
// and scores the detected minima against the exact answer.
//
//   ./build/examples/local_minima_hunt

#include <cmath>
#include <cstdio>
#include <set>

#include <memory>

#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "penalty/laplacian.h"
#include "penalty/quadratic.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"

using namespace wavebatch;

namespace {

// Cells whose value is strictly below every axis neighbor in the grid.
std::set<size_t> LocalMinima(const GridPartition& grid,
                             const std::vector<double>& values) {
  std::set<size_t> minima;
  for (size_t c = 0; c < grid.num_cells(); ++c) {
    std::vector<size_t> coords = grid.GridCoords(c);
    bool is_min = true;
    for (size_t d = 0; d < coords.size() && is_min; ++d) {
      for (int step : {-1, 1}) {
        if (step < 0 && coords[d] == 0) continue;
        if (step > 0 && coords[d] + 1 >= grid.cells_per_dim()[d]) continue;
        std::vector<size_t> n = coords;
        n[d] += step;
        if (values[grid.CellIndex(n)] <= values[c]) {
          is_min = false;
          break;
        }
      }
    }
    if (is_min) minima.insert(c);
  }
  return minima;
}

void Score(const char* name, const std::set<size_t>& detected,
           const std::set<size_t>& truth) {
  size_t hits = 0;
  for (size_t c : detected) hits += truth.count(c);
  const double precision =
      detected.empty() ? 1.0 : static_cast<double>(hits) / detected.size();
  const double recall =
      truth.empty() ? 1.0 : static_cast<double>(hits) / truth.size();
  std::printf("  %-22s detected %2zu | precision %.2f recall %.2f\n", name,
              detected.size(), precision, recall);
}

}  // namespace

int main() {
  TemperatureDatasetOptions options;
  options.lat_size = 64;
  options.lon_size = 64;
  options.alt_size = 8;
  options.time_size = 16;
  options.temp_size = 32;
  options.num_records = 2000000;
  std::printf("hunting local temperature minima over a 16x16 grid...\n");
  DenseCube cube = MakeTemperatureCube(options);
  const std::vector<size_t> parts = {16, 16, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, /*seed=*/21,
      /*random_cuts=*/true, /*min_width=*/2, /*measure_offset=*/53.33);

  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store = strategy.BuildStore(cube);
  auto list_ptr = std::make_shared<const MasterList>(
      MasterList::Build(w.batch, strategy).value());
  const MasterList& list = *list_ptr;
  std::vector<double> exact;
  {
    EvalSession::Options opts;
    opts.order = ProgressionOrder::kKeyOrder;
    EvalSession session(EvalPlan::FromMasterList(list_ptr, nullptr), store,
                        opts);
    WB_CHECK_OK(session.RunToExact());
    exact = session.Estimates();
  }
  const std::set<size_t> truth = LocalMinima(w.partition, exact);
  std::printf("exact local minima: %zu of %zu cells\n\n", truth.size(),
              w.batch.size());

  auto sse = std::make_shared<SsePenalty>();
  LaplacianPenalty laplacian = LaplacianPenalty::ForGrid(w.partition);
  // The paper suggests mixing penalties; anchoring the Laplacian with a
  // little SSE keeps absolute magnitudes honest while still prioritizing
  // extremum structure.
  auto mixed = std::make_shared<CompositeQuadraticPenalty>();
  mixed->AddTerm(1.0, &laplacian);
  mixed->AddTerm(1.0, sse.get());

  // One shared master list, one plan per penalty (the penalty decides the
  // progression order), one session per plan.
  EvalSession ev_sse(EvalPlan::FromMasterList(list_ptr, sse), store);
  EvalSession ev_mix(EvalPlan::FromMasterList(list_ptr, mixed), store);
  // Remaining guaranteed Laplacian risk (Theorem 2's expected penalty, up
  // to the 1/N^d factor) of each progression's unused coefficient set.
  std::vector<bool> used_sse(list.size(), false);
  std::vector<bool> used_mix(list.size(), false);
  auto remaining_risk = [&](const std::vector<bool>& used) {
    std::vector<double> column(w.batch.size(), 0.0);
    double total = 0.0;
    for (size_t i = 0; i < list.size(); ++i) {
      if (used[i]) continue;
      list.ForEachUse(i, [&](uint32_t q, double c) { column[q] = c; });
      total += laplacian.Apply(column);
      list.ForEachUse(i, [&](uint32_t q, double) { column[q] = 0.0; });
    }
    return total;
  };
  for (size_t budget : {64, 256, 1024, 4096}) {
    if (budget > list.size()) break;
    while (ev_sse.StepsTaken() < budget) {
      used_sse[ev_sse.Step().value()] = true;
    }
    while (ev_mix.StepsTaken() < budget) {
      used_mix[ev_mix.Step().value()] = true;
    }
    std::printf("budget %zu retrievals (%.1f%% of master list):\n", budget,
                100.0 * budget / list.size());
    Score("SSE progression:", LocalMinima(w.partition, ev_sse.Estimates()),
          truth);
    Score("Laplacian+SSE mix:",
          LocalMinima(w.partition, ev_mix.Estimates()), truth);
    std::printf("  guaranteed Laplacian risk remaining: SSE %.3g, mix "
                "%.3g\n",
                remaining_risk(used_sse), remaining_risk(used_mix));
  }
  std::printf(
      "\nnote: the mixed ordering always minimizes the *guaranteed*\n"
      "(worst-case / sphere-average) Laplacian risk — Theorems 1 and 2 —\n"
      "while on one particular smooth dataset the realized detection can\n"
      "favor plain SSE, because importance is data-independent. This is\n"
      "the trade the paper's framework makes explicit.\n");
  return 0;
}
