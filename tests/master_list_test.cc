#include "engine/master_list.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

/// The CSR image a plain sort of every use gives: each (key, query, value)
/// triple, sorted by (key, query), with equal keys folded into one entry.
struct SortedUses {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> uses_offsets;
  std::vector<uint32_t> uses_query;
  std::vector<double> uses_coeff;
};

SortedUses SortEveryUse(const std::vector<SparseVec>& qs) {
  struct Use {
    uint64_t key;
    uint32_t query;
    double value;
  };
  std::vector<Use> uses;
  for (size_t q = 0; q < qs.size(); ++q) {
    for (const SparseEntry& e : qs[q]) {
      uses.push_back({e.key, static_cast<uint32_t>(q), e.value});
    }
  }
  std::sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
    return a.key != b.key ? a.key < b.key : a.query < b.query;
  });
  SortedUses out;
  for (size_t i = 0; i < uses.size(); ++i) {
    if (i == 0 || uses[i].key != uses[i - 1].key) {
      out.keys.push_back(uses[i].key);
      out.uses_offsets.push_back(i);
    }
    out.uses_query.push_back(uses[i].query);
    out.uses_coeff.push_back(uses[i].value);
  }
  out.uses_offsets.push_back(uses.size());
  return out;
}

/// Runs of the given sizes, keys drawn without replacement from [0, domain).
std::vector<SparseVec> RunsOfSizes(const std::vector<size_t>& sizes,
                                   uint64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseVec> qs;
  for (size_t nnz : sizes) {
    std::vector<SparseEntry> entries;
    for (uint64_t key : rng.SampleWithoutReplacement(domain, nnz)) {
      entries.push_back({key, rng.Gaussian()});
    }
    qs.push_back(SparseVec::FromUnsorted(entries));
  }
  return qs;
}

/// Random per-query sparse vectors with heavy cross-query key sharing.
/// total coefficients ≈ num_queries * nnz; sized by callers to land above
/// or below the master list's parallel-build threshold.
std::vector<SparseVec> RandomQueryVectors(size_t num_queries, size_t nnz,
                                          uint64_t domain, uint64_t seed) {
  return RunsOfSizes(std::vector<size_t>(num_queries, nnz), domain, seed);
}

TEST(MasterListTest, FromQueryVectorsMergesByKey) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{1, 1.0}, {5, 2.0}}),
      SparseVec::FromUnsorted({{5, 3.0}, {9, -1.0}}),
      SparseVec::FromUnsorted({{1, 0.5}, {5, 0.5}, {9, 0.5}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  EXPECT_EQ(list.num_queries(), 3u);
  EXPECT_EQ(list.size(), 3u);  // keys 1, 5, 9
  EXPECT_EQ(list.TotalQueryCoefficients(), 7u);
  EXPECT_EQ(list.MaxSharing(), 3u);

  EXPECT_EQ(list.keys()[0], 1u);
  std::vector<std::pair<uint32_t, double>> uses;
  list.ForEachUse(0, [&](uint32_t q, double c) { uses.emplace_back(q, c); });
  ASSERT_EQ(uses.size(), 2u);
  EXPECT_EQ(uses[0].first, 0u);
  EXPECT_DOUBLE_EQ(uses[0].second, 1.0);
  EXPECT_EQ(uses[1].first, 2u);

  EXPECT_EQ(list.keys()[1], 5u);
  EXPECT_EQ(list.uses_offsets()[2] - list.uses_offsets()[1], 3u);
}

TEST(MasterListTest, EntriesSortedAndUsesAscending) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{100, 1.0}, {2, 1.0}, {50, 1.0}}),
      SparseVec::FromUnsorted({{50, 1.0}, {2, 1.0}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  for (size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list.keys()[i - 1], list.keys()[i]);
  }
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<uint32_t> queries;
    list.ForEachUse(i, [&](uint32_t q, double) { queries.push_back(q); });
    for (size_t j = 1; j < queries.size(); ++j) {
      EXPECT_LT(queries[j - 1], queries[j]);
    }
  }
}

TEST(MasterListTest, PerQueryCoefficients) {
  std::vector<SparseVec> qs = {
      SparseVec::FromUnsorted({{1, 1.0}}),
      SparseVec::FromUnsorted({{1, 1.0}, {2, 1.0}, {3, 1.0}}),
  };
  MasterList list = MasterList::FromQueryVectors(qs);
  ASSERT_EQ(list.PerQueryCoefficients().size(), 2u);
  EXPECT_EQ(list.PerQueryCoefficients()[0], 1u);
  EXPECT_EQ(list.PerQueryCoefficients()[1], 3u);
}

TEST(MasterListTest, EmptyBatch) {
  MasterList list = MasterList::FromQueryVectors({});
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.num_queries(), 0u);
  EXPECT_EQ(list.MaxSharing(), 0u);
}

TEST(MasterListTest, BuildFromBatchSharesAcrossAdjacentRanges) {
  // Two adjacent ranges share boundary wavelets: the master list must be
  // strictly smaller than the sum of the parts.
  Schema schema = Schema::Uniform(2, 32);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 0, 15)));
  batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 16, 31)));
  Result<MasterList> list = MasterList::Build(batch, strategy);
  ASSERT_TRUE(list.ok()) << list.status();
  EXPECT_LT(list->size(), list->TotalQueryCoefficients());
  EXPECT_GE(list->MaxSharing(), 2u);
}

TEST(MasterListTest, CsrImageIsWellFormed) {
  // Offsets run from 0 to the uses length, one row range per entry, and
  // every use of the batch lands in exactly one row.
  std::vector<SparseVec> qs =
      RandomQueryVectors(/*num_queries=*/12, /*nnz=*/200, /*domain=*/1024, 3);
  MasterList list = MasterList::FromQueryVectors(qs);
  ASSERT_EQ(list.keys().size(), list.size());
  ASSERT_EQ(list.uses_offsets().size(), list.size() + 1);
  EXPECT_EQ(list.uses_offsets().front(), 0u);
  EXPECT_EQ(list.uses_offsets().back(), list.uses_query().size());
  EXPECT_EQ(list.uses_query().size(), list.TotalQueryCoefficients());
  EXPECT_EQ(list.uses_query().size(), list.uses_coeff().size());
  for (size_t e = 0; e < list.size(); ++e) {
    EXPECT_LT(list.uses_offsets()[e], list.uses_offsets()[e + 1])
        << "entry " << e << " has no uses";
  }
}

TEST(MasterListTest, SerialAndParallelBuildsBitIdentical) {
  // Large enough to clear the parallel-build threshold (2^14 merged
  // coefficients), so the merge's ~6 key-range slices run on the pool: the
  // two settings must produce byte-for-byte identical CSR images — that is
  // the whole determinism contract of the parallel merge (slices cut by the
  // input alone, each writing only its own rows).
  std::vector<SparseVec> qs = RandomQueryVectors(
      /*num_queries=*/36, /*nnz=*/600, /*domain=*/8192, 11);
  MasterList serial =
      MasterList::FromQueryVectors(qs, BuildParallelism::kSerial);
  MasterList parallel =
      MasterList::FromQueryVectors(qs, BuildParallelism::kParallel);
  ASSERT_GE(serial.TotalQueryCoefficients(), 1u << 14);
  EXPECT_GE(serial.MaxSharing(), 2u);  // keys genuinely collide
  EXPECT_EQ(serial.keys(), parallel.keys());
  EXPECT_EQ(serial.uses_offsets(), parallel.uses_offsets());
  EXPECT_EQ(serial.uses_query(), parallel.uses_query());
  EXPECT_EQ(serial.uses_coeff(), parallel.uses_coeff());
}

TEST(MasterListTest, MatchesASortOfEveryUse) {
  // The key-range merge against a brute-force sort of every use, on inputs
  // that stress its slices: none at all, runs too short to be sampled more
  // than once, many queries, splitters that repeat (so some slices are
  // empty), the extreme keys, and totals on both sides of the parallel
  // threshold (2^14 uses).
  constexpr uint64_t kMaxKey = std::numeric_limits<uint64_t>::max();
  std::vector<std::pair<std::string, std::vector<SparseVec>>> cases;
  cases.emplace_back("no queries", std::vector<SparseVec>{});
  cases.emplace_back("all runs empty", std::vector<SparseVec>(5));
  cases.emplace_back("one run", RunsOfSizes({20000}, kMaxKey, 1));
  cases.emplace_back("runs shorter than the sample stride",
                     RunsOfSizes(std::vector<size_t>(200, 100), 4096, 2));
  cases.emplace_back("300 queries",
                     RunsOfSizes(std::vector<size_t>(300, 60), 8192, 3));
  {
    // 64 copies of one 300-key run: the sample holds two distinct keys, so
    // the splitters repeat.
    const std::vector<SparseVec> one = RunsOfSizes({300}, 1 << 20, 4);
    cases.emplace_back("every run the same keys",
                       std::vector<SparseVec>(64, one[0]));
  }
  {
    std::vector<SparseVec> qs =
        RunsOfSizes(std::vector<size_t>(20, 1000), kMaxKey - 1, 5);
    for (size_t q = 0; q < qs.size(); ++q) {
      std::vector<SparseEntry> entries = qs[q].entries();
      if (q % 2 == 0) entries.push_back({0, 1.0 + q});
      if (q % 3 != 1) entries.push_back({kMaxKey, -1.0 - q});
      qs[q] = SparseVec::FromUnsorted(entries);
    }
    cases.emplace_back("keys 0 and UINT64_MAX", std::move(qs));
  }
  for (const size_t tail : {1023u, 1025u}) {
    std::vector<size_t> sizes(15, 1024);
    sizes.push_back(tail);
    cases.emplace_back("total " + std::to_string(15 * 1024 + tail),
                       RunsOfSizes(sizes, 4096, tail));
  }

  for (const auto& [name, qs] : cases) {
    const SortedUses expected = SortEveryUse(qs);
    std::vector<uint64_t> per_query;
    for (const SparseVec& v : qs) per_query.push_back(v.size());
    for (const BuildParallelism p :
         {BuildParallelism::kSerial, BuildParallelism::kParallel}) {
      SCOPED_TRACE(name + (p == BuildParallelism::kSerial ? ", serial"
                                                          : ", parallel"));
      const MasterList list = MasterList::FromQueryVectors(qs, p);
      EXPECT_EQ(list.num_queries(), qs.size());
      EXPECT_EQ(list.TotalQueryCoefficients(), expected.uses_query.size());
      EXPECT_TRUE(list.keys() == expected.keys);
      EXPECT_TRUE(list.uses_offsets() == expected.uses_offsets);
      EXPECT_TRUE(list.uses_query() == expected.uses_query);
      EXPECT_TRUE(list.uses_coeff() == expected.uses_coeff);
      EXPECT_TRUE(list.PerQueryCoefficients() == per_query);
    }
  }
}

TEST(MasterListTest, BuildPropagatesRewriteErrors) {
  // A prefix-sum strategy that does not support SUM monomials.
  Schema schema = Schema::Uniform(2, 8);
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Sum(Range::All(schema), 0));
  // Use wavelet strategy with mismatched dims to trigger an error instead:
  WaveletStrategy other(Schema::Uniform(3, 8), WaveletKind::kHaar);
  Result<MasterList> list = MasterList::Build(batch, other);
  EXPECT_FALSE(list.ok());
}

}  // namespace
}  // namespace wavebatch
