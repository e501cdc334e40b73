#ifndef WAVEBATCH_PERFBENCH_PERFBENCH_H_
#define WAVEBATCH_PERFBENCH_PERFBENCH_H_

// Shared vocabulary of the perfbench program: run options, the result line,
// and the small statistics every workload reports with.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "server/query_service.h"

namespace wavebatch::perfbench {

using Clock = std::chrono::steady_clock;

// Shared by every workload: the synthetic temperature data's seed, the
// seed of bench_serving's partition cuts, the binned-Kelvin measure offset
// (the summed measure is 53.33 + x_temp), and the oracle's tolerance for
// exact answers, relative to each query's magnitude.
inline constexpr uint64_t kDataSeed = 42;
inline constexpr uint64_t kPartitionSeed = 1234;
inline constexpr double kMeasureOffset = 53.33;
inline constexpr double kRelativeTolerance = 1e-9;

struct RunOptions {
  std::string workload;
  /// Seeds every generated input (pages, drill-downs). The data set and the
  /// dashboard partition are fixed.
  uint64_t seed = 1;
  /// Sets the timed window: a workload runs a fixed number of ops derived
  /// from it, so per-op counts repeat exactly for one seed.
  double seconds = 10.0;
  /// false: end-to-end metrics, telemetry disabled, bare store/strategy.
  /// true: per-layer metrics from an untraced pass plus a traced pass.
  bool trace = false;
  /// Directory for the traced run's Chrome trace ("" = none).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result line: correctness, op accounting, and the metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome RunDashboard(const RunOptions& options);
Outcome RunExplore(const RunOptions& options);

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// bench_serving's service configuration (quantum 128, 8 live sessions)
/// over `plan_cache`, which set-up warms and the traced run reads.
server::QueryServiceOptions ServingOptions(
    std::shared_ptr<PlanCache> plan_cache);

/// True when `response` is OK, exact, and every estimate is within
/// kRelativeTolerance of `truth` (scaled by the query's magnitude, floor 1).
bool MatchesExactly(const server::QueryResponse& response,
                    const std::vector<double>& truth);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The process's peak resident set (VmHWM), in MB.
double PeakRssMb();

}  // namespace wavebatch::perfbench

#endif  // WAVEBATCH_PERFBENCH_PERFBENCH_H_
