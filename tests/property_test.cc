// Property-style sweeps over the full pipeline: for every (filter, schema
// shape, polynomial degree) combination, the wavelet strategy must answer
// random range-sums exactly, with query-vector sparsity respecting the
// paper's O((4δ+2)^d log^d N) bound, and progressive evaluation must obey
// the Theorem 1 bound on arbitrary random data after every entry, in every
// progression order — also when faults force a degraded (kSkip) session to
// consume coefficients without their data.

#include <cmath>
#include <memory>
#include <string>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/lp.h"
#include "penalty/sse.h"
#include "storage/fault_injection_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct PipelineParam {
  WaveletKind kind;
  size_t num_dims;
  uint32_t dim_size;
  uint32_t degree;  // per-variable degree of the query polynomial

  friend std::ostream& operator<<(std::ostream& os, const PipelineParam& p) {
    return os << WaveletFilter::Get(p.kind).name() << "_d" << p.num_dims
              << "_n" << p.dim_size << "_deg" << p.degree;
  }
};

class PipelinePropertyTest : public ::testing::TestWithParam<PipelineParam> {
 protected:
  static RangeSumQuery RandomQuery(const Schema& schema, uint32_t degree,
                                   Rng& rng) {
    std::vector<Interval> ivs;
    for (size_t i = 0; i < schema.num_dims(); ++i) {
      const uint32_t n = schema.dim(i).size;
      const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(n));
      const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(n - lo));
      ivs.push_back({lo, hi});
    }
    Range range = Range::Create(schema, ivs).value();
    if (degree == 0) return RangeSumQuery::Count(range);
    const size_t dim = rng.UniformInt(schema.num_dims());
    return RangeSumQuery::SumPower(range, dim, degree);
  }

  /// The Theorem-1 workload: Zipf-skewed data (it stresses the bound more
  /// than uniform), 6 random queries, and their SSE-ranked plan.
  struct Theorem1Setup {
    Relation rel;
    std::unique_ptr<CoefficientStore> store;
    std::shared_ptr<const EvalPlan> plan;
    std::vector<double> exact;
  };
  static Theorem1Setup MakeTheorem1Setup(const PipelineParam& p) {
    Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
    Theorem1Setup s{
        MakeZipfRelation(schema,
                         std::min<uint64_t>(300, schema.cell_count() * 4),
                         1.1, 3000 + p.num_dims),
        nullptr, nullptr, {}};
    WaveletStrategy strategy(schema, p.kind);
    s.store = strategy.BuildStore(s.rel.FrequencyDistribution());
    QueryBatch batch(schema);
    Rng rng(4000 + p.num_dims);
    for (int i = 0; i < 6; ++i) {
      batch.Add(RandomQuery(schema, p.degree, rng));
    }
    s.plan = EvalPlan::Build(batch, strategy, std::make_shared<SsePenalty>())
                 .value();
    s.exact = batch.BruteForce(s.rel);
    return s;
  }

  static constexpr ProgressionOrder kOrders[] = {
      ProgressionOrder::kBiggestB, ProgressionOrder::kRoundRobin,
      ProgressionOrder::kRandom, ProgressionOrder::kKeyOrder};

  /// Asserts Theorem 1 — SSE(exact − estimate) ≤ WorstCaseBound(K) — before
  /// the first entry and after every entry `session` consumes, until it is
  /// done.
  static void ExpectTheorem1Holds(EvalSession& session,
                                  const std::vector<double>& exact,
                                  double k) {
    const SsePenalty sse;
    std::vector<double> err(exact.size());
    while (true) {
      for (size_t i = 0; i < err.size(); ++i) {
        err[i] = session.Estimates()[i] - exact[i];
      }
      ASSERT_LE(sse.Apply(err),
                session.WorstCaseBound(k) * (1.0 + 1e-6) + 1e-4)
          << "after " << session.StepsTaken() << " of "
          << session.TotalSteps() << " entries";
      if (session.Done()) return;
      ASSERT_TRUE(session.StepBatch(1).ok());
    }
  }
};

TEST_P(PipelinePropertyTest, ExactOnRandomData) {
  const PipelineParam& p = GetParam();
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  Relation rel = MakeUniformRelation(
      schema, std::min<uint64_t>(400, schema.cell_count() * 4), 97);
  WaveletStrategy strategy(schema, p.kind);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(1000 + p.num_dims);
  for (int t = 0; t < 10; ++t) {
    RangeSumQuery q = RandomQuery(schema, p.degree, rng);
    Result<SparseVec> qc = strategy.TransformQuery(q);
    ASSERT_TRUE(qc.ok());
    double acc = 0.0;
    for (const SparseEntry& e : *qc) acc += e.value * store->Peek(e.key);
    const double expected = q.BruteForce(rel);
    EXPECT_NEAR(acc, expected, 1e-6 * (1.0 + std::abs(expected)))
        << q.range().ToString() << " " << q.poly().ToString();
  }
}

TEST_P(PipelinePropertyTest, SparsityBoundWhenFilterSufficient) {
  const PipelineParam& p = GetParam();
  const WaveletFilter& filter = WaveletFilter::Get(p.kind);
  if (filter.max_degree() < p.degree) return;  // bound only claimed here
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  WaveletStrategy strategy(schema, p.kind);
  Rng rng(2000 + p.num_dims);
  const double log_n = std::log2(static_cast<double>(p.dim_size));
  // Per-dimension bound: 2 edges × L wavelets per level, plus slack for the
  // coarse levels (≤ 2L).
  const double per_dim = 2.0 * filter.length() * log_n + 2.0 * filter.length();
  const double bound = std::pow(per_dim, static_cast<double>(p.num_dims));
  for (int t = 0; t < 10; ++t) {
    RangeSumQuery q = RandomQuery(schema, p.degree, rng);
    Result<SparseVec> qc = strategy.TransformQuery(q);
    ASSERT_TRUE(qc.ok());
    EXPECT_LE(static_cast<double>(qc->size()), bound)
        << q.range().ToString();
  }
}

TEST_P(PipelinePropertyTest, Theorem1BoundHoldsOnArbitraryData) {
  // In every progression order: the bound is Theorem 1's max over the
  // unread entries, not the next entry's importance.
  Theorem1Setup s = MakeTheorem1Setup(GetParam());
  for (ProgressionOrder order : kOrders) {
    SCOPED_TRACE("order " + std::to_string(static_cast<int>(order)));
    EvalSession::Options opts;
    opts.order = order;
    opts.seed = 17;
    EvalSession session(s.plan, UnownedStore(*s.store), opts);
    ExpectTheorem1Holds(session, s.exact, s.store->SumAbs());
  }
}

TEST_P(PipelinePropertyTest, Theorem1BoundHoldsUnderSkippedFaults) {
  // Every fourth master-list key is unavailable: the kSkip session consumes
  // those coefficients without data, and the bound must widen by their
  // importance enough to stay sound, in every progression order.
  Theorem1Setup s = MakeTheorem1Setup(GetParam());
  FaultInjectionStore faulty(s.store.get());
  for (size_t i = 0; i < s.plan->size(); i += 4) {
    faulty.FailKey(s.plan->list().keys()[i]);
  }
  for (ProgressionOrder order : kOrders) {
    SCOPED_TRACE("order " + std::to_string(static_cast<int>(order)));
    EvalSession::Options opts;
    opts.order = order;
    opts.seed = 17;
    opts.fault_policy = FaultPolicy::kSkip;
    EvalSession session(s.plan, UnownedStore(faulty), opts);
    ExpectTheorem1Holds(session, s.exact, s.store->SumAbs());
    EXPECT_GT(session.SkippedCoefficients(), 0u);
  }
}

TEST_P(PipelinePropertyTest, LinfWorstCaseBoundAlsoHolds) {
  // Corollary 1 with the max norm (homogeneity degree 1).
  const PipelineParam& p = GetParam();
  if (p.degree > 0) return;  // one norm sweep is enough; keep runtime down
  Schema schema = Schema::Uniform(p.num_dims, p.dim_size);
  Relation rel = MakeUniformRelation(
      schema, std::min<uint64_t>(200, schema.cell_count() * 2), 53);
  WaveletStrategy strategy(schema, p.kind);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  QueryBatch batch(schema);
  Rng rng(5000);
  for (int i = 0; i < 5; ++i) batch.Add(RandomQuery(schema, 0, rng));
  auto linf = std::make_shared<LpPenalty>(LpPenalty::Infinity());
  Result<std::shared_ptr<const EvalPlan>> plan =
      EvalPlan::Build(batch, strategy, linf);
  ASSERT_TRUE(plan.ok());
  std::vector<double> exact = batch.BruteForce(rel);
  const double k = store->SumAbs();
  EvalSession ev(*plan, UnownedStore(*store));
  while (!ev.Done()) {
    std::vector<double> err(exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - exact[i];
    }
    EXPECT_LE(linf->Apply(err), ev.WorstCaseBound(k) * (1.0 + 1e-6) + 1e-6);
    ASSERT_TRUE(ev.StepBatch(ev.TotalSteps() / 5 + 1).ok());
  }
}

std::vector<PipelineParam> MakeParams() {
  std::vector<PipelineParam> params;
  for (WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4,
                           WaveletKind::kDb6, WaveletKind::kDb8}) {
    const uint32_t max_deg = WaveletFilter::Get(kind).max_degree();
    for (size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
      const uint32_t size = d == 3 ? 8 : 16;
      for (uint32_t degree = 0; degree <= std::min(max_deg, 2u); ++degree) {
        params.push_back({kind, d, size, degree});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelinePropertyTest,
                         ::testing::ValuesIn(MakeParams()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << info.param;
                           return os.str();
                         });

}  // namespace
}  // namespace wavebatch
