// perfbench: the repository benchmark program. One run builds one workload's
// inputs from --seed, sets up, measures, checks every answer against a
// brute-force oracle, and prints one JSON result line as the last line of
// stdout (progress and diagnostics go to stderr).
//
//   perfbench --workload dashboard|explore --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced pass (and writes its Chrome trace to --trace-dir).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace wavebatch::perfbench {

namespace {

int Usage(const char* message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload dashboard|explore --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]"
            << std::endl;
  return 2;
}

void PrintResult(const Outcome& outcome) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    return Usage("--seconds must be in (0, 60]");
  }

  Outcome outcome;
  if (options.workload == "dashboard") {
    outcome = RunDashboard(options);
  } else if (options.workload == "explore") {
    outcome = RunExplore(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite"
                << std::endl;
      m.value = 0.0;
      outcome.correct = false;
    }
  }
  if (outcome.attempted == 0) outcome.correct = false;
  PrintResult(outcome);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace wavebatch::perfbench

int main(int argc, char** argv) {
  return wavebatch::perfbench::Main(argc, argv);
}
