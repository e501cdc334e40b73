// Observation 1 (Section 6): "I/O sharing is considerable."
//
// Paper numbers (JPL dataset, 15.7M records, 512-range batch):
//   per-query ProPolyne:      923,076 wavelet retrievals (~1800/query)
//   Batch-Biggest-B (shared):  57,456 wavelet retrievals (~112/query)
//   prefix-sums, per query:      8,192 retrievals
//   prefix-sums, shared:           512 retrievals
//
// This harness reports the same table on the synthetic temperature cube:
// naive vs shared retrieval counts for the wavelet view, the prefix-sum
// view, and the no-precomputation (identity) baseline, plus the sharing
// factor and workspace (master-list) size. Absolute counts depend on the
// domain scale; the *structure* — shared ≪ naive ≪ scanning the relation —
// is the reproduced result.

#include "bench_common.h"
#include "strategy/prefix_sum_strategy.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_obs1_io_sharing: reproduce Observation 1\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  const std::vector<size_t> parts = PartsFromFlags(flags);
  size_t num_ranges = 1;
  for (size_t p : parts) num_ranges *= p;

  Stopwatch total;
  std::cout << "building experiment (domain "
            << TemperatureSchema(options).ToString() << ", "
            << options.num_records << " records, " << num_ranges
            << " ranges)..." << std::endl;
  Experiment exp(options, parts, /*workload_seed=*/1234, WaveletKind::kDb4);
  const size_t s = exp.workload.batch.size();

  Table table({"view", "method", "retrievals", "per query", "notes"});

  // Wavelet view (the paper's primary rows).
  table.AddRow({"wavelet-db4", "per-query (naive)",
                std::to_string(exp.list->TotalQueryCoefficients()),
                FormatDouble(static_cast<double>(
                                 exp.list->TotalQueryCoefficients()) /
                                 s,
                             4),
                "s independent ProPolyne instances"});
  table.AddRow({"wavelet-db4", "Batch-Biggest-B (shared)",
                std::to_string(exp.list->size()),
                FormatDouble(static_cast<double>(exp.list->size()) / s, 4),
                "master-list size"});
  const double sharing =
      static_cast<double>(exp.list->TotalQueryCoefficients()) /
      static_cast<double>(exp.list->size());
  table.AddRow({"wavelet-db4", "sharing factor", FormatDouble(sharing, 4),
                "", "naive / shared"});
  table.AddRow({"wavelet-db4", "max sharing",
                std::to_string(exp.list->MaxSharing()), "",
                "queries on one coefficient"});

  // Prefix-sum view.
  PrefixSumStrategy prefix(exp.cube.schema(),
                           PrefixSumStrategy::CollectMonomials(
                               exp.workload.batch));
  Result<MasterList> prefix_list =
      MasterList::Build(exp.workload.batch, prefix);
  if (!prefix_list.ok()) {
    std::cerr << prefix_list.status() << std::endl;
    return 1;
  }
  table.AddRow({"prefix-sum", "per-query (naive)",
                std::to_string(prefix_list->TotalQueryCoefficients()),
                FormatDouble(static_cast<double>(
                                 prefix_list->TotalQueryCoefficients()) /
                                 s,
                             4),
                "<= 2^d corners per range"});
  table.AddRow({"prefix-sum", "Batch-Biggest-B (shared)",
                std::to_string(prefix_list->size()),
                FormatDouble(static_cast<double>(prefix_list->size()) / s, 4),
                "grid corners dedup"});

  // No precomputation: one retrieval per cell of each range (computed
  // analytically — the batch partitions the domain, so the naive count is
  // exactly the domain size; materializing that master list would be
  // pointless work).
  uint64_t identity_cost = 0;
  for (const RangeSumQuery& q : exp.workload.batch.queries()) {
    identity_cost += q.range().Volume();
  }
  table.AddRow({"identity", "per-query (naive)",
                std::to_string(identity_cost),
                FormatDouble(static_cast<double>(identity_cost) / s, 4),
                "= Σ range volumes"});
  table.AddRow({"relation scan", "baseline",
                std::to_string(options.num_records), "",
                "records scanned by a table scan"});

  std::cout << "\nObservation 1: I/O sharing across the batch\n";
  table.Print(std::cout);
  std::cout << "elapsed: " << FormatDouble(total.ElapsedSeconds(), 3)
            << "s\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) {
    std::cerr << "failed to write " << csv << std::endl;
    return 1;
  }

  // Machine-readable companion: one record per retrieval-count row. These
  // are I/O counts, not timings, so median_ns carries the whole-experiment
  // wall time (same for every row).
  const double elapsed_ns = total.ElapsedSeconds() * 1e9;
  const std::map<std::string, std::string> common = {
      {"queries", std::to_string(s)},
      {"records", std::to_string(options.num_records)}};
  BenchJson json;
  auto add = [&](const std::string& view, const std::string& method,
                 uint64_t retrievals) {
    std::map<std::string, std::string> params = common;
    params["view"] = view;
    params["method"] = method;
    json.Add("obs1_io_sharing", params, elapsed_ns, retrievals);
  };
  add("wavelet-db4", "per_query_naive", exp.list->TotalQueryCoefficients());
  add("wavelet-db4", "batch_biggest_b_shared", exp.list->size());
  add("prefix-sum", "per_query_naive", prefix_list->TotalQueryCoefficients());
  add("prefix-sum", "batch_biggest_b_shared", prefix_list->size());
  add("identity", "per_query_naive", identity_cost);
  add("relation-scan", "baseline", options.num_records);
  if (!json.Write(flags.Str("json", "BENCH_obs1_io_sharing.json"))) {
    std::cerr << "failed to write json report" << std::endl;
    return 1;
  }
  if (!WriteMetricsOut(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
