#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "storage/sum_abs.h"
#include "strategy/identity_strategy.h"
#include "strategy/linear_strategy.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "wavelet/dwt_nd.h"
#include "wavelet/impulse.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"

namespace wavebatch {
namespace {

// Evaluates a query through a strategy: ⟨q_T, T·Δ⟩ by direct lookup.
double Evaluate(const LinearStrategy& strategy, const CoefficientStore& store,
                const RangeSumQuery& query) {
  Result<SparseVec> q = strategy.TransformQuery(query);
  EXPECT_TRUE(q.ok()) << q.status();
  double acc = 0.0;
  for (const SparseEntry& e : *q) acc += e.value * store.Peek(e.key);
  return acc;
}

Range RandomRange(const Schema& schema, Rng& rng) {
  std::vector<Interval> ivs;
  for (size_t i = 0; i < schema.num_dims(); ++i) {
    const uint32_t n = schema.dim(i).size;
    const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(n));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(n - lo));
    ivs.push_back({lo, hi});
  }
  Result<Range> r = Range::Create(schema, ivs);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

class WaveletStrategyTest : public ::testing::TestWithParam<WaveletKind> {};

TEST_P(WaveletStrategyTest, CountQueriesExact) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 7);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Rng rng(11);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Count(range);
    EXPECT_NEAR(Evaluate(strategy, *store, q), q.BruteForce(rel),
                1e-6 * (1.0 + std::abs(q.BruteForce(rel))));
  }
}

TEST_P(WaveletStrategyTest, SumQueriesExactWhenFilterSufficient) {
  if (WaveletFilter::Get(GetParam()).max_degree() < 1) return;
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 300, 9);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Rng rng(13);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    for (size_t dim = 0; dim < 2; ++dim) {
      RangeSumQuery q = RangeSumQuery::Sum(range, dim);
      const double expected = q.BruteForce(rel);
      EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
                  1e-6 * (1.0 + std::abs(expected)));
    }
  }
}

TEST_P(WaveletStrategyTest, HaarStillExactForHigherDegree) {
  // With too few vanishing moments the rewrite is dense but still exact.
  Schema schema = Schema::Uniform(2, 8);
  Relation rel = MakeUniformRelation(schema, 100, 21);
  DenseCube delta = rel.FrequencyDistribution();
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(delta);
  Range range = Range::All(schema).Restrict(0, 1, 6);
  RangeSumQuery q = RangeSumQuery::SumProduct(range, 0, 1);
  const double expected = q.BruteForce(rel);
  EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
              1e-6 * (1.0 + std::abs(expected)));
}

TEST_P(WaveletStrategyTest, IncrementalInsertMatchesDenseBuild) {
  Schema schema = Schema::Uniform(3, 8);
  Relation rel = MakeUniformRelation(schema, 60, 33);
  WaveletStrategy strategy(schema, GetParam());
  auto dense_store = strategy.BuildStore(rel.FrequencyDistribution());
  auto streaming_store = strategy.BuildStoreFromRelation(rel);
  // Every coefficient with material magnitude agrees.
  for (uint64_t key = 0; key < schema.cell_count(); ++key) {
    EXPECT_NEAR(streaming_store->Peek(key), dense_store->Peek(key), 1e-8)
        << "key " << key;
  }
}

TEST_P(WaveletStrategyTest, InsertThenQueryReflectsUpdate) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, GetParam());
  Relation rel = MakeUniformRelation(schema, 100, 41);
  auto store = strategy.BuildStoreFromRelation(rel);
  Range range = Range::All(schema).Restrict(0, 2, 9).Restrict(1, 3, 12);
  RangeSumQuery count = RangeSumQuery::Count(range);
  const double before = Evaluate(strategy, *store, count);
  ASSERT_TRUE(strategy.InsertTuple(*store, {5, 5}, 1.0).ok());
  const double after = Evaluate(strategy, *store, count);
  EXPECT_NEAR(after, before + 1.0, 1e-6);
  // Deletion (negative count) restores.
  ASSERT_TRUE(strategy.InsertTuple(*store, {5, 5}, -1.0).ok());
  EXPECT_NEAR(Evaluate(strategy, *store, count), before, 1e-6);
}

TEST_P(WaveletStrategyTest, RejectsOutOfDomainTuple) {
  Schema schema = Schema::Uniform(2, 8);
  WaveletStrategy strategy(schema, GetParam());
  auto store = strategy.BuildStore(DenseCube(schema));
  EXPECT_FALSE(strategy.InsertTuple(*store, {8, 0}, 1.0).ok());
}

TEST_P(WaveletStrategyTest, BuildStoreIsForwardDwtNdOfACopyBitForBit) {
  // 2^17 cells: big enough that ForwardDwtNd runs on the shared pool.
  Result<Schema> schema = Schema::Create({{"a", 64}, {"b", 32}, {"c", 64}});
  ASSERT_TRUE(schema.ok());
  const DenseCube delta =
      MakeUniformRelation(*schema, 5000, 17).FrequencyDistribution();
  const DenseCube before = delta;
  WaveletStrategy strategy(*schema, GetParam());
  auto store = strategy.BuildStore(delta);
  // The caller's cube is read, never written.
  EXPECT_EQ(std::memcmp(delta.values().data(), before.values().data(),
                        delta.size() * sizeof(double)),
            0);
  DenseCube expected = delta;
  ForwardDwtNd(expected, strategy.filter());
  uint64_t differing = 0;
  for (uint64_t key = 0; key < expected.size(); ++key) {
    const double stored = store->Peek(key);
    if (std::memcmp(&stored, &expected[key], sizeof(double)) != 0) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
  // K is the bulk pass over the expected view, bit for bit.
  const double k = store->SumAbs();
  const double expected_k = ChunkedSumAbs(expected.values());
  EXPECT_EQ(std::memcmp(&k, &expected_k, sizeof(double)), 0)
      << k << " vs " << expected_k;
}

INSTANTIATE_TEST_SUITE_P(AllFilters, WaveletStrategyTest,
                         ::testing::Values(WaveletKind::kHaar,
                                           WaveletKind::kDb4,
                                           WaveletKind::kDb6,
                                           WaveletKind::kDb8));

TEST(WaveletStrategySparsity, QueryNnzWithinPaperBound) {
  // O((4δ+2)^d log^d N): check the explicit per-dimension product bound
  // Π_i (2·L·log2(N_i) + 2·L).
  Schema schema = Schema::Uniform(3, 32);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Rng rng(55);
  for (int t = 0; t < 10; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery q = RangeSumQuery::Sum(range, 1);
    Result<SparseVec> coeffs = strategy.TransformQuery(q);
    ASSERT_TRUE(coeffs.ok());
    const double per_dim = 2.0 * 4 * 5 + 2.0 * 4;
    EXPECT_LE(coeffs->size(), per_dim * per_dim * per_dim);
  }
}

TEST(WaveletStrategySparsity, UpdateDeltaNnzWithinPaperBound) {
  // Section 5's update cost: one tuple insertion touches O((2δ+2)^d log^d N)
  // coefficients — per dimension, the impulse DWT has at most L = 2δ+2
  // nonzero taps per level plus the final average. Property-check the
  // explicit product bound Π_i (L·log2(N_i) + 1) over random tuples for
  // d ∈ {1, 2, 3}, Haar (L = 2) and Db4 (L = 4).
  for (const WaveletKind kind : {WaveletKind::kHaar, WaveletKind::kDb4}) {
    const double filter_len =
        static_cast<double>(WaveletFilter::Get(kind).length());
    for (const size_t d : {size_t{1}, size_t{2}, size_t{3}}) {
      const uint32_t n = d == 3 ? 16 : 64;
      Schema schema = Schema::Uniform(d, n);
      WaveletStrategy strategy(schema, kind);
      double bound = 1.0;
      for (size_t i = 0; i < d; ++i) {
        bound *= filter_len * std::log2(static_cast<double>(n)) + 1.0;
      }
      Rng rng(101 + static_cast<uint64_t>(d));
      for (int t = 0; t < 20; ++t) {
        Tuple tuple(d);
        for (size_t i = 0; i < d; ++i) {
          tuple[i] = static_cast<uint32_t>(rng.UniformInt(n));
        }
        Result<SparseVec> delta = strategy.TransformUpdate(tuple, 1.0);
        ASSERT_TRUE(delta.ok());
        EXPECT_LE(static_cast<double>(delta->size()), bound)
            << "d=" << d << " N=" << n << " filter length " << filter_len;
        EXPECT_GT(delta->size(), 0u);
      }
    }
  }
}

// The hash-accumulator tensor expansion WaveletStrategy used before it
// expanded each monomial as a sorted run: every product is added into one
// unordered_map (0.0 + v₀ + v₁ … per key, in term order), and the result is
// sorted and swept afterwards. The reference the sorted-run expansion must
// reproduce bit for bit.
void ReferenceExpand(const Schema& schema,
                     const std::vector<std::vector<SparseEntry>>& factors,
                     double coeff, SparseAccumulator& acc) {
  for (const auto& f : factors) {
    if (f.empty()) return;
  }
  const size_t d = factors.size();
  std::vector<size_t> idx(d, 0);
  for (;;) {
    uint64_t key = 0;
    double value = coeff;
    for (size_t i = 0; i < d; ++i) {
      const SparseEntry& e = factors[i][idx[i]];
      key = (key << schema.bits(i)) | e.key;
      value *= e.value;
    }
    acc.Add(key, value);
    size_t i = d;
    while (i-- > 0) {
      if (++idx[i] < factors[i].size()) break;
      idx[i] = 0;
      if (i == 0) return;
    }
  }
}

SparseVec ReferenceTransformQuery(const Schema& schema,
                                  const WaveletFilter& filter,
                                  const RangeSumQuery& query) {
  SparseAccumulator acc;
  for (const Monomial& term : query.poly().terms()) {
    std::vector<std::vector<SparseEntry>> factors(schema.num_dims());
    for (size_t i = 0; i < schema.num_dims(); ++i) {
      const Interval& iv = query.range().interval(i);
      factors[i] = LazyRangeMonomialDwt1D(schema.dim(i).size, iv.lo, iv.hi,
                                          term.exponents[i], filter);
    }
    ReferenceExpand(schema, factors, term.coeff, acc);
  }
  double max_abs = 0.0;
  for (const auto& [key, value] : acc.map()) {
    max_abs = std::max(max_abs, std::abs(value));
  }
  return acc.ToVec(max_abs * kQueryCoefficientRelEps);
}

SparseVec ReferenceTransformUpdate(const Schema& schema,
                                   const WaveletFilter& filter,
                                   const Tuple& tuple, double count) {
  std::vector<std::vector<SparseEntry>> factors(schema.num_dims());
  for (size_t i = 0; i < schema.num_dims(); ++i) {
    factors[i] = SparseImpulseDwt1D(schema.dim(i).size, tuple[i], 1.0, filter);
  }
  SparseAccumulator acc;
  ReferenceExpand(schema, factors, count, acc);
  return acc.ToVec();
}

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Key for key, value bit for bit; mismatching values print as %a.
void ExpectSameEntries(const SparseVec& got, const SparseVec& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].key != want[i].key ||
        std::bit_cast<uint64_t>(got[i].value) !=
            std::bit_cast<uint64_t>(want[i].value)) {
      ADD_FAILURE() << label << " entry " << i << ": got key " << got[i].key
                    << " = " << Hex(got[i].value) << ", reference key "
                    << want[i].key << " = " << Hex(want[i].value);
      return;
    }
  }
}

/// A d-dimensional schema with random power-of-two sizes, kept small
/// enough that dense-fallback products stay cheap.
Schema RandomSchema(size_t d, Rng& rng) {
  static constexpr uint64_t kMaxBits[] = {8, 5, 4, 3, 3};
  std::vector<Dimension> dims;
  for (size_t i = 0; i < d; ++i) {
    const uint32_t bits =
        1 + static_cast<uint32_t>(rng.UniformInt(kMaxBits[d - 1]));
    std::string name = "x";
    name += std::to_string(i);
    dims.push_back({std::move(name), 1u << bits});
  }
  return Schema::Create(std::move(dims)).value();
}

/// One seeded test query: 1–3 monomials with per-variable degrees up to
/// one above the filter's max_degree() (the dense fallback). Every fourth
/// query is a cancelling polynomial instead: x − x + c, or x − (n−1)/2 over
/// the whole of x's domain, whose scaling coefficients cancel across terms.
RangeSumQuery RandomPolyQuery(const Schema& schema, uint32_t max_degree,
                              size_t t, Rng& rng) {
  const size_t d = schema.num_dims();
  Range range = RandomRange(schema, rng);
  std::vector<Monomial> terms;
  if (t % 4 == 3) {
    const size_t dim = rng.UniformInt(d);
    std::vector<uint32_t> x(d, 0);
    x[dim] = 1;
    const std::vector<uint32_t> one(d, 0);
    if (t % 8 == 3) {
      terms = {{1.0, x}, {-1.0, x}, {2.5, one}};
    } else {
      std::vector<Interval> ivs = range.intervals();
      ivs[dim] = {0, schema.dim(dim).size - 1};
      range = Range::Create(schema, ivs).value();
      terms = {{1.0, x},
               {-0.5 * static_cast<double>(schema.dim(dim).size - 1), one}};
    }
  } else {
    const size_t num_terms = 1 + rng.UniformInt(3);
    for (size_t m = 0; m < num_terms; ++m) {
      Monomial term;
      term.coeff = 4.0 * rng.UniformDouble() - 2.0;
      for (size_t i = 0; i < d; ++i) {
        term.exponents.push_back(
            static_cast<uint32_t>(rng.UniformInt(max_degree + 2)));
      }
      terms.push_back(std::move(term));
    }
  }
  return RangeSumQuery(std::move(range), Polynomial(d, std::move(terms)));
}

TEST(WaveletStrategyExpansion, TransformQueryMatchesHashAccumulatorBitForBit) {
  size_t cases = 0;
  for (const WaveletKind kind :
       {WaveletKind::kHaar, WaveletKind::kDb4, WaveletKind::kDb6}) {
    const WaveletFilter& filter = WaveletFilter::Get(kind);
    for (size_t d = 1; d <= 5; ++d) {
      Rng rng(700 + 10 * static_cast<uint64_t>(kind) + d);
      for (size_t t = 0; t < 40; ++t) {
        Schema schema = RandomSchema(d, rng);
        WaveletStrategy strategy(schema, kind);
        const RangeSumQuery query =
            RandomPolyQuery(schema, filter.max_degree(), t, rng);
        Result<SparseVec> got = strategy.TransformQuery(query);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameEntries(*got, ReferenceTransformQuery(schema, filter, query),
                          std::string(filter.name()) + " d=" +
                              std::to_string(d) + " query " +
                              std::to_string(t) + " p=" +
                              query.poly().ToString());
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 500u);
}

TEST(WaveletStrategyExpansion, TransformUpdateMatchesHashAccumulatorBitForBit) {
  static constexpr double kCounts[] = {1.0, -1.0, 2.5, 0.0};
  for (const WaveletKind kind :
       {WaveletKind::kHaar, WaveletKind::kDb4, WaveletKind::kDb6}) {
    const WaveletFilter& filter = WaveletFilter::Get(kind);
    for (size_t d = 1; d <= 5; ++d) {
      Rng rng(900 + 10 * static_cast<uint64_t>(kind) + d);
      for (size_t t = 0; t < 12; ++t) {
        Schema schema = RandomSchema(d, rng);
        WaveletStrategy strategy(schema, kind);
        Tuple tuple(d);
        for (size_t i = 0; i < d; ++i) {
          tuple[i] =
              static_cast<uint32_t>(rng.UniformInt(schema.dim(i).size));
        }
        const double count = kCounts[t % std::size(kCounts)];
        Result<SparseVec> got = strategy.TransformUpdate(tuple, count);
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectSameEntries(
            *got, ReferenceTransformUpdate(schema, filter, tuple, count),
            std::string(filter.name()) + " d=" + std::to_string(d) +
                " tuple " + std::to_string(t));
      }
    }
  }
}

/// The batch rewrite is the per-query rewrite, slot by slot and bit for
/// bit, serially and on the shared pool: over d = 1..5, every degree from 0
/// to one past the filter's max_degree() (the dense fallback), batches
/// whose queries share their intervals (a drill-down's cut, where the
/// factor table pays) and batches whose queries do not. A query of the
/// wrong dimensionality in mid-batch fails in its own slot only.
TEST_P(WaveletStrategyTest, TransformQueriesMatchesTransformQueryBitForBit) {
  const WaveletKind kind = GetParam();
  const WaveletFilter& filter = WaveletFilter::Get(kind);
  for (size_t d = 1; d <= 5; ++d) {
    Rng rng(1300 + 10 * static_cast<uint64_t>(kind) + d);
    for (size_t round = 0; round < 3; ++round) {
      Schema schema = RandomSchema(d, rng);
      WaveletStrategy strategy(schema, kind);
      std::vector<RangeSumQuery> queries;
      // Independent queries: each draws its own range.
      for (size_t t = 0; t < 8; ++t) {
        queries.push_back(RandomPolyQuery(schema, filter.max_degree(), t, rng));
      }
      // Shared intervals: two per dimension, combined into ranges.
      const Range cut[2] = {RandomRange(schema, rng), RandomRange(schema, rng)};
      for (size_t t = 0; t < 8; ++t) {
        std::vector<Interval> ivs;
        for (size_t i = 0; i < d; ++i) {
          ivs.push_back(cut[(t >> (i % 3)) & 1].interval(i));
        }
        queries.emplace_back(
            Range::Create(schema, ivs).value(),
            RandomPolyQuery(schema, filter.max_degree(), t, rng).poly());
      }
      // Every degree on one range.
      for (uint32_t degree = 0; degree <= filter.max_degree() + 1; ++degree) {
        queries.emplace_back(cut[0], Polynomial::AttributePower(
                                         d, degree % d, degree));
      }
      const size_t bad = queries.size() / 2;
      queries.insert(queries.begin() + static_cast<ptrdiff_t>(bad),
                     RangeSumQuery::Count(
                         RandomRange(Schema::Uniform(d + 1, 8), rng)));

      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr),
                               &ThreadPool::Shared()}) {
        const std::vector<Result<SparseVec>> got =
            strategy.TransformQueries(queries, pool);
        ASSERT_EQ(got.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          const std::string label =
              std::string(filter.name()) + " d=" + std::to_string(d) +
              " round " + std::to_string(round) + " query " +
              std::to_string(i) + (pool != nullptr ? " pool" : " serial");
          const Result<SparseVec> want = strategy.TransformQuery(queries[i]);
          ASSERT_EQ(got[i].ok(), want.ok()) << label;
          if (!want.ok()) {
            EXPECT_EQ(got[i].status().code(), want.status().code()) << label;
            continue;
          }
          ExpectSameEntries(*got[i], *want, label);
        }
        EXPECT_EQ(got[bad].status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(LinearStrategyUpdate, TransformUpdateComposesLikeInsertTuple) {
  // InsertTuple is definitionally "apply TransformUpdate to the store";
  // the delta route and the in-place route must agree bitwise, and a
  // zero-count identity update must be empty.
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Relation rel = MakeUniformRelation(schema, 80, 23);
  auto direct = strategy.BuildStoreFromRelation(rel);
  auto via_delta = strategy.BuildStoreFromRelation(rel);
  const Tuple tuple{7, 11};
  ASSERT_TRUE(strategy.InsertTuple(*direct, tuple, 2.0).ok());
  Result<SparseVec> delta = strategy.TransformUpdate(tuple, 2.0);
  ASSERT_TRUE(delta.ok());
  for (const SparseEntry& e : *delta) via_delta->Add(e.key, e.value);
  for (uint64_t key = 0; key < schema.cell_count(); ++key) {
    EXPECT_EQ(direct->Peek(key), via_delta->Peek(key)) << "key " << key;
  }

  IdentityStrategy identity(schema);
  const Tuple cell{1, 2};
  EXPECT_EQ(identity.TransformUpdate(cell, 0.0).value().size(), 0u);
  Result<SparseVec> one = identity.TransformUpdate(cell, 3.0);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(one->entries()[0].key, schema.Pack(cell));
  EXPECT_EQ(one->entries()[0].value, 3.0);
  EXPECT_FALSE(identity.TransformUpdate({16, 0}, 1.0).ok());
}

TEST(PrefixSumStrategyTest, CountAndSumExact) {
  Schema schema = Schema::Uniform(3, 8);
  Relation rel = MakeUniformRelation(schema, 200, 17);
  DenseCube delta = rel.FrequencyDistribution();
  PrefixSumStrategy strategy(
      schema, {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  auto store = strategy.BuildStore(delta);
  Rng rng(19);
  for (int t = 0; t < 25; ++t) {
    Range range = RandomRange(schema, rng);
    for (const RangeSumQuery& q :
         {RangeSumQuery::Count(range), RangeSumQuery::Sum(range, 0),
          RangeSumQuery::Sum(range, 2)}) {
      const double expected = q.BruteForce(rel);
      EXPECT_NEAR(Evaluate(strategy, *store, q), expected,
                  1e-6 * (1.0 + std::abs(expected)));
    }
  }
}

TEST(PrefixSumStrategyTest, QueryCostAtMostTwoToTheD) {
  Schema schema = Schema::Uniform(4, 8);
  PrefixSumStrategy strategy(schema, {{0, 0, 0, 0}});
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    Range range = RandomRange(schema, rng);
    Result<SparseVec> q =
        strategy.TransformQuery(RangeSumQuery::Count(range));
    ASSERT_TRUE(q.ok());
    EXPECT_LE(q->size(), 16u);
  }
}

TEST(PrefixSumStrategyTest, RejectsUnsupportedMonomial) {
  Schema schema = Schema::Uniform(2, 8);
  PrefixSumStrategy strategy(schema, {{0, 0}});
  Result<SparseVec> q = strategy.TransformQuery(
      RangeSumQuery::Sum(Range::All(schema), 0));
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST(PrefixSumStrategyTest, CollectMonomialsFromBatch) {
  Schema schema = Schema::Uniform(2, 8);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema)));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));  // duplicate
  auto monomials = PrefixSumStrategy::CollectMonomials(batch);
  EXPECT_EQ(monomials.size(), 2u);
}

TEST(PrefixSumStrategyTest, IncrementalInsertMatchesRebuild) {
  Schema schema = Schema::Uniform(2, 8);
  Relation rel = MakeUniformRelation(schema, 40, 29);
  PrefixSumStrategy strategy(schema, {{0, 0}, {1, 0}});
  auto built = strategy.BuildStore(rel.FrequencyDistribution());
  auto streamed = strategy.BuildStoreFromRelation(rel);
  for (uint64_t key = 0; key < 2 * schema.cell_count(); ++key) {
    EXPECT_NEAR(streamed->Peek(key), built->Peek(key), 1e-9) << key;
  }
}

TEST(IdentityStrategyTest, ExactAndCostEqualsVolume) {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 150, 37);
  IdentityStrategy strategy(schema);
  auto store = strategy.BuildStore(rel.FrequencyDistribution());
  Rng rng(41);
  for (int t = 0; t < 20; ++t) {
    Range range = RandomRange(schema, rng);
    RangeSumQuery count = RangeSumQuery::Count(range);
    EXPECT_NEAR(Evaluate(strategy, *store, count), count.BruteForce(rel),
                1e-9);
    Result<SparseVec> q = strategy.TransformQuery(count);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->size(), range.Volume());
    RangeSumQuery sum = RangeSumQuery::Sum(range, 0);
    EXPECT_NEAR(Evaluate(strategy, *store, sum), sum.BruteForce(rel), 1e-9);
  }
}

TEST(IdentityStrategyTest, InsertIsSingleCell) {
  Schema schema = Schema::Uniform(2, 8);
  IdentityStrategy strategy(schema);
  auto store = strategy.BuildStore(DenseCube(schema));
  ASSERT_TRUE(strategy.InsertTuple(*store, {3, 4}, 2.0).ok());
  EXPECT_EQ(store->NumNonZero(), 1u);
  EXPECT_DOUBLE_EQ(store->Peek(schema.Pack(std::vector<uint32_t>{3, 4})),
                   2.0);
}

TEST(StrategyNamesTest, Names) {
  Schema schema = Schema::Uniform(1, 4);
  EXPECT_EQ(WaveletStrategy(schema, WaveletKind::kDb4).name(),
            "wavelet-db4");
  EXPECT_EQ(PrefixSumStrategy(schema, {{0}}).name(), "prefix-sum");
  EXPECT_EQ(IdentityStrategy(schema).name(), "identity");
}

}  // namespace
}  // namespace wavebatch
