// Helpers shared by the workloads: statistics, the process's peak RSS, the
// serving configuration and the exact-answer oracle check.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace wavebatch::perfbench {

server::QueryServiceOptions ServingOptions(
    std::shared_ptr<PlanCache> plan_cache) {
  server::QueryServiceOptions options;
  options.default_quantum = 128;
  options.max_live_sessions = 8;
  options.plan_cache = std::move(plan_cache);
  return options;
}

bool MatchesExactly(const server::QueryResponse& response,
                    const std::vector<double>& truth) {
  if (!response.status.ok() || !response.exact ||
      response.estimates.size() != truth.size()) {
    return false;
  }
  for (size_t q = 0; q < truth.size(); ++q) {
    const double tolerance =
        kRelativeTolerance * std::max(1.0, std::abs(truth[q]));
    if (std::abs(response.estimates[q] - truth[q]) > tolerance) return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace wavebatch::perfbench
