// Ablation: workspace vs I/O (Section 2.2: "it is of practical interest
// to avoid simultaneous materialization of all of the query coefficients
// and reduce workspace requirements"). Sweeping the workspace budget of
// the grouped exact evaluator maps the full trade-off curve between the
// naive (one query at a time, minimal memory, maximal I/O) and the fully
// shared (whole batch in memory, minimal I/O) extremes.

#include "bench_common.h"
#include "engine/bounded.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_ablation_workspace: workspace/I/O trade-off\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  // Moderate scale: the sweep re-runs the exact evaluation per budget.
  options.lat_size = static_cast<uint32_t>(flags.Int("lat", 64));
  options.lon_size = static_cast<uint32_t>(flags.Int("lon", 64));
  options.num_records = static_cast<uint64_t>(flags.Int("records", 4000000));
  const std::vector<size_t> parts = PartsFromFlags(flags);

  Stopwatch total;
  std::cout << "building experiment (domain "
            << TemperatureSchema(options).ToString() << ")..." << std::endl;
  Experiment exp(options, parts, 1234, WaveletKind::kDb4);
  const uint64_t naive = exp.list->TotalQueryCoefficients();
  const uint64_t shared = exp.list->size();

  Table table({"workspace budget", "groups", "retrievals", "vs shared",
               "peak workspace"});
  for (double frac :
       {0.0, 0.01, 0.03, 0.0625, 0.125, 0.25, 0.5, 1.0}) {
    const uint64_t budget = std::max<uint64_t>(
        1, static_cast<uint64_t>(frac * static_cast<double>(naive)));
    // Retrievals are counted per run by the session's own IoStats sink, so
    // back-to-back sweeps don't contaminate each other.
    BoundedRunResult res =
        RunWithBoundedWorkspace(exp.workload.batch, exp.strategy, *exp.store,
                                budget)
            .value();
    // Sanity: results must match the reference.
    double max_rel = 0.0;
    for (size_t i = 0; i < exp.exact.size(); ++i) {
      max_rel = std::max(max_rel,
                         std::abs(res.results[i] - exp.exact[i]) /
                             (1.0 + std::abs(exp.exact[i])));
    }
    if (max_rel > 1e-6) {
      std::cerr << "bounded-workspace result mismatch: " << max_rel
                << std::endl;
      return 1;
    }
    table.AddRow({std::to_string(budget), std::to_string(res.num_groups),
                  std::to_string(res.io.retrievals),
                  FormatDouble(static_cast<double>(res.io.retrievals) /
                                   static_cast<double>(shared),
                               4),
                  std::to_string(res.peak_workspace)});
  }

  std::cout << "\nExact evaluation under a workspace budget ("
            << exp.workload.batch.size() << " queries; naive = " << naive
            << " retrievals, fully shared = " << shared << "):\n";
  table.Print(std::cout);
  std::cout << "expected shape: a few percent of the naive workspace "
               "already recovers most of the I/O sharing.\n";
  std::cout << "elapsed: " << FormatDouble(total.ElapsedSeconds(), 3)
            << "s\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) return 1;
  if (!WriteMetricsOut(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
