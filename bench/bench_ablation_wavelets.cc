// Ablation: filter choice (Section 3.1). Daubechies filters of length
// 2δ+2 are the shortest that keep degree-δ range-sums sparse; shorter
// filters stay exact but lose the sparsity bound, longer filters pay more
// per boundary. This harness sweeps the filter across the standard
// temperature workload (degree 1 in the measure dimension) and reports
// per-query nonzeros, master-list size, exactness residual, and the
// retrievals needed for 1% MRE.

#include <cmath>

#include "bench_common.h"
#include "penalty/sse.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_ablation_wavelets: filter-choice ablation\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  // A smaller default domain: the Haar rewrite of a degree-1 query is
  // dense per dimension, so the naive counts explode at full scale.
  options.lat_size = static_cast<uint32_t>(flags.Int("lat", 32));
  options.lon_size = static_cast<uint32_t>(flags.Int("lon", 32));
  options.time_size = static_cast<uint32_t>(flags.Int("time", 16));
  options.num_records = static_cast<uint64_t>(flags.Int("records", 2000000));
  const std::vector<size_t> parts = {
      static_cast<size_t>(flags.Int("lat_parts", 8)),
      static_cast<size_t>(flags.Int("lon_parts", 8)),
      1, 1, 1};

  Table table({"filter", "supports deg", "avg nnz/query", "master list",
               "sharing", "max |exact err|", "retrievals to 1% MRE"});

  for (WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4,
                           WaveletKind::kDb6, WaveletKind::kDb8}) {
    const WaveletFilter& filter = WaveletFilter::Get(kind);
    std::cout << "running filter " << filter.name() << "..." << std::endl;
    Experiment exp(options, parts, 1234, kind);
    // Residual of the rewrite vs brute force on the cube.
    std::vector<double> brute = exp.workload.batch.BruteForce(exp.cube);
    double max_err = 0.0;
    for (size_t i = 0; i < brute.size(); ++i) {
      max_err = std::max(max_err, std::abs(brute[i] - exp.exact[i]) /
                                      (1.0 + std::abs(brute[i])));
    }
    // Progressive MRE to 1%.
    EvalSession ev(
        EvalPlan::FromMasterList(exp.list, std::make_shared<SsePenalty>()),
        UnownedStore(*exp.store));
    uint64_t to_1pct = 0;
    while (!ev.Done()) {
      WB_CHECK_OK(ev.Step());
      if (ev.StepsTaken() % 64 == 0 || ev.Done()) {
        double mre = 0.0;
        size_t counted = 0;
        for (size_t i = 0; i < exp.exact.size(); ++i) {
          if (exp.exact[i] == 0.0) continue;
          mre += std::abs(ev.Estimates()[i] - exp.exact[i]) /
                 std::abs(exp.exact[i]);
          ++counted;
        }
        if (counted && mre / counted < 0.01) {
          to_1pct = ev.StepsTaken();
          break;
        }
      }
    }
    const double s = static_cast<double>(exp.workload.batch.size());
    table.AddRow(
        {filter.name(), std::to_string(filter.max_degree()),
         FormatDouble(exp.list->TotalQueryCoefficients() / s, 5),
         std::to_string(exp.list->size()),
         FormatDouble(exp.list->TotalQueryCoefficients() /
                          static_cast<double>(exp.list->size()),
                      4),
         FormatDouble(max_err, 3), std::to_string(to_1pct)});
  }

  std::cout << "\nFilter-choice ablation (degree-1 SUM workload):\n";
  table.Print(std::cout);
  std::cout << "expected shape: Haar (0 vanishing moments to spare) is "
               "exact but dense per query; Db4 = the paper's 2δ+2 sweet "
               "spot; Db6/Db8 buy nothing for degree 1 and pay wider "
               "boundaries.\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) return 1;
  if (!WriteMetricsOut(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
