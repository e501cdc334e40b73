// Theorem 1's K as the stores keep it. A bulk K has fixed bits: the same
// whatever the thread count, and the plain left-to-right loop for one
// chunk. A maintained K stays the Σ|v| a fresh scan computes, within
// rounding, after every event of seeded logs: Add on the dense and hash
// backends, and ingest, publish, merge and background merge on a versioned
// plane over a dense or a hash base, with either merge.

#include "storage/sum_abs.h"

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "storage/versioned_store.h"
#include "util/random.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {
namespace {

/// Three full chunks and a partial one: the bulk pass runs on the pool.
constexpr size_t kMultiChunkCells = 3 * kSumAbsChunkCells + 5;

/// The test-side K: Σ|v| over ForEachNonZero, in long double.
long double FreshSumAbs(const CoefficientStore& store) {
  long double sum = 0.0L;
  store.ForEachNonZero([&sum](uint64_t, double v) { sum += std::fabs(v); });
  return sum;
}

void ExpectKMatchesAFreshScan(const CoefficientStore& store,
                              const std::string& when) {
  const double fresh = static_cast<double>(FreshSumAbs(store));
  EXPECT_NEAR(store.SumAbs(), fresh, 1e-12 * (1.0 + fresh))
      << store.name() << " " << when;
}

/// A nonzero value of either sign whose magnitude spans nine decades.
double RandomValue(Rng& rng) {
  const double magnitude =
      std::pow(10.0, static_cast<double>(rng.UniformRange(-3, 5)));
  const double sign = rng.UniformInt(2) == 0 ? 1.0 : -1.0;
  return sign * (0.5 + rng.UniformDouble()) * magnitude;
}

/// `n` values, each nonzero with probability `density`.
std::vector<double> RandomValues(size_t n, uint64_t seed,
                                 double density = 1.0) {
  Rng rng(seed);
  std::vector<double> values(n, 0.0);
  for (double& v : values) {
    if (rng.UniformDouble() < density) v = RandomValue(rng);
  }
  return values;
}

SparseVec ToSparse(const std::vector<double>& values) {
  std::vector<SparseEntry> entries;
  for (uint64_t key = 0; key < values.size(); ++key) {
    if (values[key] != 0.0) entries.push_back({key, values[key]});
  }
  return SparseVec::FromSorted(std::move(entries));
}

/// ChunkedSumAbs's documented order, serially: each chunk left to right,
/// then the chunk sums in chunk order.
double SerialChunkedSumAbs(const std::vector<double>& values) {
  double sum = 0.0;
  for (size_t begin = 0; begin < values.size(); begin += kSumAbsChunkCells) {
    const size_t end = std::min(values.size(), begin + kSumAbsChunkCells);
    double chunk = 0.0;
    for (size_t i = begin; i < end; ++i) chunk += std::fabs(values[i]);
    sum += chunk;
  }
  return sum;
}

/// A seeded log of `events` Adds over keys [0, capacity), with K checked
/// after each. One Add in eight takes its key back to exactly zero (a
/// HashStore erases the entry); the rest add a random value.
void RunAddLog(CoefficientStore& store, uint64_t capacity, uint64_t seed,
               size_t events) {
  Rng rng(seed);
  for (size_t e = 0; e < events; ++e) {
    const uint64_t key = rng.UniformInt(capacity);
    const double delta =
        rng.UniformInt(8) == 0 ? -store.Peek(key) : RandomValue(rng);
    store.Add(key, delta);
    ExpectKMatchesAFreshScan(store, "after Add " + std::to_string(e));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DenseStoreSumAbsTest, SingleChunkKIsTheLeftToRightLoop) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, kSumAbsChunkCells}) {
    const std::vector<double> values = RandomValues(n, 11 + n, 0.7);
    double loop = 0.0;
    for (double v : values) loop += std::fabs(v);
    EXPECT_EQ(DenseStore(values).SumAbs(), loop) << n << " cells";
  }
}

TEST(DenseStoreSumAbsTest, MultiChunkKHasFixedBits) {
  const std::vector<double> values = RandomValues(kMultiChunkCells, 5);
  const double k = DenseStore(values).SumAbs();
  EXPECT_EQ(DenseStore(values).SumAbs(), k) << "two constructions";
  EXPECT_EQ(k, SerialChunkedSumAbs(values))
      << "the parallel pass must add in the documented order";
  long double exact = 0.0L;
  for (double v : values) exact += std::fabs(v);
  EXPECT_NEAR(k, static_cast<double>(exact),
              1e-12 * static_cast<double>(exact));
}

TEST(DenseStoreSumAbsTest, AddKeepsKCurrent) {
  DenseStore bulk(RandomValues(kMultiChunkCells, 7, 0.5));
  ExpectKMatchesAFreshScan(bulk, "after the bulk load");
  RunAddLog(bulk, kMultiChunkCells, 17, 200);

  DenseStore empty(4096);
  EXPECT_EQ(empty.SumAbs(), 0.0);
  RunAddLog(empty, 4096, 19, 300);
}

/// 2^20 Adds of 0.1: a plain running sum drifts by 1.5e-11 relative here;
/// the compensated one stays within the test's 1e-12.
TEST(DenseStoreSumAbsTest, LongWriteLogDoesNotDrift) {
  DenseStore store(uint64_t{1} << 20);
  for (uint64_t key = 0; key < store.capacity(); ++key) store.Add(key, 0.1);
  ExpectKMatchesAFreshScan(store, "after 2^20 Adds");
}

TEST(HashStoreSumAbsTest, AddKeepsKCurrentThroughErasedEntries) {
  const std::vector<double> values = RandomValues(50000, 23, 0.3);
  HashStore bulk(ToSparse(values));
  ExpectKMatchesAFreshScan(bulk, "after the bulk load");
  RunAddLog(bulk, values.size(), 29, 300);

  HashStore empty;
  EXPECT_EQ(empty.SumAbs(), 0.0);
  RunAddLog(empty, 64, 31, 300);

  HashStore erased;
  erased.Add(1, 2.5);
  erased.Add(1, -2.5);
  EXPECT_EQ(erased.NumNonZero(), 0u);
  EXPECT_EQ(erased.SumAbs(), 0.0);
}

// ---------------------------------------------------------------------------
// The versioned plane

/// Folds the overlay into a DenseStore of kMultiChunkCells cells, one
/// addition per overlay key, so the new base's K comes from the bulk pass.
std::unique_ptr<CoefficientStore> DenseMerge(const CoefficientStore& base,
                                             const DeltaOverlay& overlay) {
  std::vector<double> values(kMultiChunkCells, 0.0);
  base.ForEachNonZero([&values](uint64_t key, double v) { values[key] = v; });
  for (const auto& [key, delta] : overlay.adds) values[key] += delta;
  return std::make_unique<DenseStore>(std::move(values));
}

struct PlaneConfig {
  const char* name;
  bool dense_base;
  bool dense_merge;

  friend std::ostream& operator<<(std::ostream& os, const PlaneConfig& c) {
    return os << c.name;
  }
};

class VersionedStoreSumAbsTest : public ::testing::TestWithParam<PlaneConfig> {
};

/// After every event of a seeded log of ingests, publishes, merges and
/// background merges (checked while the fold runs and after it lands), the
/// published snapshot's K matches a fresh scan of it, and after a merge so
/// does the new base's own K.
TEST_P(VersionedStoreSumAbsTest, MaintainedKMatchesAFreshScanAfterEveryEvent) {
  const PlaneConfig& config = GetParam();
  const std::vector<double> values = RandomValues(kMultiChunkCells, 53, 0.4);
  std::unique_ptr<CoefficientStore> base;
  if (config.dense_base) {
    base = std::make_unique<DenseStore>(values);
  } else {
    base = std::make_unique<HashStore>(ToSparse(values));
  }
  VersionedStoreOptions options;
  if (config.dense_merge) options.merge_fn = DenseMerge;
  VersionedStore plane(std::move(base), options);

  Rng rng(59);
  std::vector<size_t> kinds(6, 0);
  for (size_t e = 0; e < 120; ++e) {
    const uint64_t kind = rng.UniformInt(kinds.size());
    ++kinds[kind];
    std::string event;
    switch (kind) {
      case 0:
      case 1: {
        // Some entries cancel the key's current value.
        std::vector<SparseEntry> entries;
        for (uint64_t i = 1 + rng.UniformInt(40); i > 0; --i) {
          const uint64_t key = rng.UniformInt(kMultiChunkCells);
          entries.push_back({key, rng.UniformInt(4) == 0 ? -plane.Peek(key)
                                                          : RandomValue(rng)});
        }
        plane.Ingest(SparseVec::FromUnsorted(std::move(entries)));
        event = "ingest";
        break;
      }
      case 2:
        plane.Publish();
        event = "publish";
        break;
      case 3:
        plane.Merge();
        event = "merge";
        break;
      case 4:
        plane.StartBackgroundMerge();
        event = "background merge started";
        break;
      case 5:
        plane.WaitForMerge();
        event = "background merge landed";
        break;
    }
    const std::shared_ptr<const SnapshotStore> snapshot = plane.Snapshot();
    const std::string when = "after event " + std::to_string(e) + " (" +
                             event + ", epoch " +
                             std::to_string(snapshot->epoch()) + ")";
    ExpectKMatchesAFreshScan(*snapshot, when);
    if (kind == 3 || kind == 5) {
      ExpectKMatchesAFreshScan(snapshot->base(), when);
    }
    if (HasFailure()) return;
  }
  for (size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_GT(kinds[k], 0u) << "the log never drew event kind " << k;
  }
  plane.WaitForMerge();
  plane.Merge();
  ExpectKMatchesAFreshScan(*plane.Snapshot(), "after the final merge");
  EXPECT_EQ(plane.SumAbs(), plane.Snapshot()->SumAbs());
}

INSTANTIATE_TEST_SUITE_P(
    Planes, VersionedStoreSumAbsTest,
    ::testing::Values(PlaneConfig{"HashBaseHashMerge", false, false},
                      PlaneConfig{"HashBaseDenseMerge", false, true},
                      PlaneConfig{"DenseBaseHashMerge", true, false},
                      PlaneConfig{"DenseBaseDenseMerge", true, true}),
    [](const ::testing::TestParamInfo<PlaneConfig>& info) {
      return std::string(info.param.name);
    });

/// A snapshot with no overlay reports its base's K bit for bit.
TEST(SnapshotStoreSumAbsTest, NullOverlayReadsTheBaseKBitForBit) {
  auto base = std::make_shared<DenseStore>(RandomValues(kMultiChunkCells, 61));
  const SnapshotStore snapshot(0, base, nullptr);
  EXPECT_EQ(snapshot.SumAbs(), base->SumAbs());
}

}  // namespace
}  // namespace wavebatch
