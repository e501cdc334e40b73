// The paper's Q2 scenario: a dashboard renders 512 range-sums but only a
// "cursor" of 24 neighboring cells is on screen. A cursored SSE penalty
// (on-screen errors weigh 10x) steers the progressive retrieval so the
// visible cells sharpen first while the rest stay reasonable — compare the
// on-screen vs off-screen mean relative error at increasing I/O budgets
// for both the cursored and the plain-SSE progressions.
//
//   ./build/examples/cursored_dashboard

#include <cmath>
#include <cstdio>

#include <memory>

#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"

using namespace wavebatch;

namespace {

struct SplitMre {
  double on_screen;
  double off_screen;
};

SplitMre Measure(const EvalSession& ev,
                 const std::vector<double>& exact,
                 const std::vector<bool>& on_screen) {
  double on = 0.0, off = 0.0;
  size_t n_on = 0, n_off = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] == 0.0) continue;
    const double rel =
        std::abs(ev.Estimates()[i] - exact[i]) / std::abs(exact[i]);
    if (on_screen[i]) {
      on += rel;
      ++n_on;
    } else {
      off += rel;
      ++n_off;
    }
  }
  return {n_on ? on / n_on : 0.0, n_off ? off / n_off : 0.0};
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
  std::printf("building dashboard workload (512 cells, 24 on screen)...\n");
  DenseCube cube = MakeTemperatureCube(options);
  const std::vector<size_t> parts = {32, 16, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, /*seed=*/9,
      /*random_cuts=*/true, /*min_width=*/2, /*measure_offset=*/53.33);

  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store = strategy.BuildStore(cube);
  auto list = std::make_shared<const MasterList>(
      MasterList::Build(w.batch, strategy).value());

  // Exact reference: one key-ordered session over a penalty-free plan.
  std::vector<double> exact;
  {
    EvalSession::Options opts;
    opts.order = ProgressionOrder::kKeyOrder;
    EvalSession session(EvalPlan::FromMasterList(list, nullptr), store, opts);
    session.RunToExact();
    exact = session.Estimates();
  }

  // The on-screen cursor: 24 consecutive cells (a grid-row block).
  std::vector<size_t> cursor;
  std::vector<bool> on_screen(w.batch.size(), false);
  for (size_t i = 0; i < 24; ++i) {
    cursor.push_back(200 + i);
    on_screen[200 + i] = true;
  }
  // One master list, two plans: the penalty decides the progression
  // order, so each penalty gets its own (cheap) plan over the shared list.
  auto sse = std::make_shared<SsePenalty>();
  auto cursored = std::make_shared<WeightedSsePenalty>(
      CursoredSsePenalty(w.batch.size(), cursor, /*priority_weight=*/10.0));

  EvalSession ev_cursored(EvalPlan::FromMasterList(list, cursored), store);
  EvalSession ev_plain(EvalPlan::FromMasterList(list, sse), store);

  std::printf("\n%-10s | %-23s | %-23s\n", "", "cursored progression",
              "plain-SSE progression");
  std::printf("%-10s | %-11s %-11s | %-11s %-11s\n", "retrieved",
              "on-screen", "off-screen", "on-screen", "off-screen");
  for (size_t budget : {64, 256, 1024, 4096, 16384}) {
    if (budget > list->size()) break;
    ev_cursored.StepBatch(budget - ev_cursored.StepsTaken());
    ev_plain.StepBatch(budget - ev_plain.StepsTaken());
    SplitMre c = Measure(ev_cursored, exact, on_screen);
    SplitMre p = Measure(ev_plain, exact, on_screen);
    std::printf("%-10zu | %-11.4g %-11.4g | %-11.4g %-11.4g\n", budget,
                c.on_screen, c.off_screen, p.on_screen, p.off_screen);
  }
  std::printf("\nthe cursored progression drives the on-screen error down "
              "faster, at a modest off-screen cost (paper, Observation "
              "3).\n");
  return 0;
}
