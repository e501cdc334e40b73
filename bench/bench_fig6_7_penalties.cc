// Figures 6–7 + Observation 3 (Section 6): "Choosing the right penalty
// function makes a difference." Two progressive runs over the same batch —
// one ordered by plain-SSE importance, one by a cursored SSE that weighs 20
// neighboring high-priority ranges 10× more — measured under BOTH
// penalties:
//   Figure 6: normalized SSE           (the SSE-optimized run wins)
//   Figure 7: normalized cursored SSE  (the cursored-optimized run wins)

#include "bench_common.h"
#include "engine/progression_trace.h"
#include "penalty/sse.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_fig6_7_penalties: reproduce Figures 6 and 7\n"
              "  --cursor_size=20  number of high-priority ranges\n"
              "  --cursor_weight=10\n" +
                  kCommonFlagsHelp);
  TemperatureDatasetOptions options = DataOptionsFromFlags(flags);
  const std::vector<size_t> parts = PartsFromFlags(flags);
  size_t num_ranges = 1;
  for (size_t p : parts) num_ranges *= p;
  const size_t cursor_size =
      static_cast<size_t>(flags.Int("cursor_size", 20));
  const double cursor_weight = flags.Double("cursor_weight", 10.0);

  Stopwatch total;
  std::cout << "building experiment (domain "
            << TemperatureSchema(options).ToString() << ", "
            << options.num_records << " records, " << num_ranges
            << " ranges)..." << std::endl;
  Experiment exp(options, parts, 1234, WaveletKind::kDb4);
  const size_t s = exp.workload.batch.size();

  // The paper's cursor: a set of neighboring ranges "currently on screen".
  // Grid cells are row-major, so a run of consecutive indices in one grid
  // row is a contiguous block of the partition.
  std::vector<size_t> cursor;
  for (size_t i = 0; i < std::min(cursor_size, s); ++i) {
    cursor.push_back(s / 2 + i);  // a block in the middle of the domain
  }
  auto sse = std::make_shared<SsePenalty>();
  auto cursored = std::make_shared<WeightedSsePenalty>(
      CursoredSsePenalty(s, cursor, cursor_weight));

  double sse_norm = 0.0, cursored_norm = 0.0;
  {
    std::vector<double> zero_err = exp.exact;  // error of the zero estimate
    sse_norm = sse->Apply(zero_err);
    cursored_norm = cursored->Apply(zero_err);
  }

  auto run = [&](std::shared_ptr<const PenaltyFunction> optimize_for) {
    EvalSession ev(EvalPlan::FromMasterList(exp.list, std::move(optimize_for)),
                   UnownedStore(*exp.store));
    return ProgressionTrace::Run(
               ev, exp.exact,
               {{"normalized_sse", sse.get(), sse_norm},
                {"normalized_cursored_sse", cursored.get(), cursored_norm}},
               /*dense_until=*/32, /*growth=*/1.4)
        .value();
  };
  std::cout << "running progression optimized for SSE..." << std::endl;
  ProgressionTrace by_sse = run(sse);
  std::cout << "running progression optimized for cursored SSE..."
            << std::endl;
  ProgressionTrace by_cursored = run(cursored);

  std::cout << "\nFigure 6 (normalized SSE) and Figure 7 (normalized "
               "cursored SSE), both progressions:\n";
  Table table({"retrieved", "nsse[opt=sse]", "nsse[opt=cursored]",
               "ncursored[opt=sse]", "ncursored[opt=cursored]"});
  // The two traces share checkpoint positions (same trace parameters and
  // master-list size).
  const size_t rows =
      std::min(by_sse.points().size(), by_cursored.points().size());
  for (size_t i = 0; i < rows; ++i) {
    const auto& a = by_sse.points()[i];
    const auto& b = by_cursored.points()[i];
    table.AddRow({std::to_string(a.retrieved),
                  FormatDouble(a.penalties[0]),
                  FormatDouble(b.penalties[0]),
                  FormatDouble(a.penalties[1]),
                  FormatDouble(b.penalties[1])});
  }
  table.Print(std::cout);
  std::cout << "expected shape (paper Figs 6-7): column 2 < column 3 "
               "(SSE-optimized wins on SSE), column 5 < column 4 "
               "(cursored-optimized wins on cursored SSE).\n";
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
