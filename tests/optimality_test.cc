// Empirical verification of Theorems 1 and 2: the biggest-B approximation
// has (a) the smallest worst-case penalty and (b) the smallest expected
// penalty over data vectors drawn uniformly from the unit sphere, among all
// B-term approximations.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "engine/master_list.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

// A tiny workload whose master list we can exhaustively analyze.
struct TinyWorkload {
  Schema schema = Schema::Uniform(2, 4);  // 16 cells
  QueryBatch batch;
  MasterList list;
  std::vector<double> importance;  // SSE importance per entry

  TinyWorkload() : batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{0, 1}, {0, 3}}).value()));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{1, 2}, {1, 2}}).value()));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{0, 3}, {2, 3}}).value()));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{3, 3}, {0, 2}}).value()));
    list = MasterList::Build(batch, strategy).value();
    SsePenalty sse;
    std::vector<double> column(batch.size(), 0.0);
    for (size_t i = 0; i < list.size(); ++i) {
      list.ForEachUse(i, [&](uint32_t q, double c) { column[q] = c; });
      importance.push_back(sse.Apply(column));
      list.ForEachUse(i, [&](uint32_t q, double) { column[q] = 0.0; });
    }
  }

  // SSE of the B-term approximation that uses exactly `subset` (indices into
  // the master list), on transformed data `delta_hat` (values aligned with
  // master-list entries; coefficients outside the master list are irrelevant
  // because every query coefficient there is zero).
  double PenaltyForSubset(const std::vector<bool>& used,
                          const std::vector<double>& delta_hat) const {
    std::vector<double> err(batch.size(), 0.0);
    for (size_t i = 0; i < list.size(); ++i) {
      if (used[i]) continue;
      list.ForEachUse(i, [&](uint32_t q, double c) {
        err[q] += c * delta_hat[i];
      });
    }
    double sse = 0.0;
    for (double e : err) sse += e * e;
    return sse;
  }

  std::vector<bool> BiggestBSet(size_t b) const {
    std::vector<size_t> order(list.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t c) {
      return importance[a] > importance[c];
    });
    std::vector<bool> used(list.size(), false);
    for (size_t i = 0; i < b; ++i) used[order[i]] = true;
    return used;
  }
};

// Uniform unit vector over the master-list coordinates (the relevant
// subspace; the data vector's energy outside it never reaches any query).
std::vector<double> RandomSphereVector(size_t n, Rng& rng) {
  std::vector<double> v(n);
  double norm_sq = 0.0;
  for (double& x : v) {
    x = rng.Gaussian();
    norm_sq += x * x;
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (double& x : v) x *= inv;
  return v;
}

TEST(Theorem1Test, BiggestBMinimizesMaxUnusedImportance) {
  // The worst-case penalty of a B-term approximation is K^α times the
  // largest unused importance; taking the top-B minimizes it vs 200 random
  // subsets at every B.
  TinyWorkload w;
  Rng rng(71);
  for (size_t b : {size_t{1}, w.list.size() / 4, w.list.size() / 2,
                   w.list.size() - 1}) {
    std::vector<bool> best = w.BiggestBSet(b);
    double best_worst = 0.0;
    for (size_t i = 0; i < w.list.size(); ++i) {
      if (!best[i]) best_worst = std::max(best_worst, w.importance[i]);
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<size_t> perm(w.list.size());
      std::iota(perm.begin(), perm.end(), size_t{0});
      rng.Shuffle(perm);
      std::vector<bool> used(w.list.size(), false);
      for (size_t i = 0; i < b; ++i) used[perm[i]] = true;
      double worst = 0.0;
      for (size_t i = 0; i < w.list.size(); ++i) {
        if (!used[i]) worst = std::max(worst, w.importance[i]);
      }
      EXPECT_GE(worst + 1e-12, best_worst) << "B=" << b;
    }
  }
}

TEST(Theorem1Test, ConcentratedDataRealizesWorstCase) {
  // The proof's tightness argument: data concentrated on the most important
  // unused wavelet achieves exactly K²·ι(ξ′).
  TinyWorkload w;
  const size_t b = w.list.size() / 2;
  std::vector<bool> used = w.BiggestBSet(b);
  size_t worst_idx = 0;
  double worst_importance = -1.0;
  for (size_t i = 0; i < w.list.size(); ++i) {
    if (!used[i] && w.importance[i] > worst_importance) {
      worst_importance = w.importance[i];
      worst_idx = i;
    }
  }
  const double k = 2.5;  // any Σ|Δ̂| works; homogeneity scales it
  std::vector<double> delta_hat(w.list.size(), 0.0);
  delta_hat[worst_idx] = k;
  EXPECT_NEAR(w.PenaltyForSubset(used, delta_hat),
              k * k * worst_importance, 1e-9);
}

TEST(Theorem2Test, ExpectedPenaltyMatchesTraceFormula) {
  // E[p] = Σ_{unused} ι(ξ) / n over the unit sphere in the n-dimensional
  // master-list subspace (Monte Carlo check).
  TinyWorkload w;
  const size_t n = w.list.size();
  const size_t b = n / 2;
  std::vector<bool> used = w.BiggestBSet(b);
  double trace_formula = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!used[i]) trace_formula += w.importance[i];
  }
  trace_formula /= static_cast<double>(n);

  Rng rng(77);
  const int kSamples = 20000;
  double mean = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    mean += w.PenaltyForSubset(used, RandomSphereVector(n, rng));
  }
  mean /= kSamples;
  EXPECT_NEAR(mean, trace_formula, 0.05 * trace_formula);
}

TEST(Theorem2Test, BiggestBMinimizesEmpiricalAveragePenalty) {
  TinyWorkload w;
  const size_t n = w.list.size();
  const size_t b = n / 3;
  Rng rng(79);

  // Shared sample of sphere vectors for variance reduction.
  const int kSamples = 3000;
  std::vector<std::vector<double>> samples;
  samples.reserve(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    samples.push_back(RandomSphereVector(n, rng));
  }
  auto mean_penalty = [&](const std::vector<bool>& used) {
    double mean = 0.0;
    for (const auto& v : samples) mean += w.PenaltyForSubset(used, v);
    return mean / kSamples;
  };

  const double best = mean_penalty(w.BiggestBSet(b));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    rng.Shuffle(perm);
    std::vector<bool> used(n, false);
    for (size_t i = 0; i < b; ++i) used[perm[i]] = true;
    // Exact expectations obey the theorem; Monte Carlo needs a little slack.
    EXPECT_GE(mean_penalty(used), best * 0.98);
  }
}

TEST(Theorem2Test, ExactExpectationComparisonViaTraceFormula) {
  // Using the closed-form expectation (no Monte Carlo noise), biggest-B is
  // at least as good as every random subset, at every B.
  TinyWorkload w;
  const size_t n = w.list.size();
  Rng rng(83);
  for (size_t b = 0; b <= n; b += std::max<size_t>(1, n / 7)) {
    std::vector<bool> best = w.BiggestBSet(b);
    double best_expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!best[i]) best_expected += w.importance[i];
    }
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<size_t> perm(n);
      std::iota(perm.begin(), perm.end(), size_t{0});
      rng.Shuffle(perm);
      std::vector<bool> used(n, false);
      for (size_t i = 0; i < b; ++i) used[perm[i]] = true;
      double expected = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (!used[i]) expected += w.importance[i];
      }
      EXPECT_GE(expected + 1e-12, best_expected) << "B=" << b;
    }
  }
}

}  // namespace
}  // namespace wavebatch
