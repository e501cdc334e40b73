// The vectorized execution tier's contract: every kernel tier (scalar,
// AVX2, AVX-512) produces BIT-IDENTICAL results — estimates, Theorem 1/2
// bound trackers, and retrieval counts — across all four progression
// orders, both fault policies, block granularity, and every store backend.
// SIMD here is a pure speed knob: the multiply is vectorized lane-wise
// (IEEE correctly-rounded, no FMA) and the per-query accumulation stays in
// the scalar program order, so there is nothing to "tolerance" away.
//
// Tiers the host can't run are skipped, not failed: the force-scalar CI
// shard exercises exactly the degenerate rows of this matrix.

#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/eval_session.h"
#include "golden/progression_golden.h"
#include "gtest/gtest.h"
#include "storage/dense_store.h"
#include "storage/fault_injection_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"
#include "storage/sharded_store.h"
#include "storage/versioned_store.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace wavebatch {
namespace {

using golden::Fixture;

/// The plan's coefficient plane behind every backend shape whose read path
/// the tiered kernel can sit on top of: flat hash, dense array, a 4-way
/// sharded plane, and a versioned plane (sessions pin its snapshot).
struct TierBackends {
  std::vector<std::pair<std::string, std::unique_ptr<CoefficientStore>>>
      stores;

  explicit TierBackends(const CoefficientStore& source) {
    uint64_t max_key = 0;
    auto hash = std::make_unique<HashStore>();
    source.ForEachNonZero([&](uint64_t key, double value) {
      max_key = std::max(max_key, key);
      hash->Add(key, value);
    });
    std::vector<double> values(max_key + 1, 0.0);
    source.ForEachNonZero(
        [&](uint64_t key, double value) { values[key] = value; });

    KeyRouter router = KeyRouter::Uniform(max_key + 1, 4);
    std::vector<std::unique_ptr<CoefficientStore>> shard_backends;
    for (size_t s = 0; s < 4; ++s) {
      shard_backends.push_back(std::make_unique<HashStore>());
    }
    source.ForEachNonZero([&](uint64_t key, double value) {
      static_cast<HashStore*>(shard_backends[router.ShardOf(key)].get())
          ->Add(key, value);
    });

    auto versioned_base = std::make_unique<HashStore>();
    source.ForEachNonZero([&](uint64_t key, double value) {
      versioned_base->Add(key, value);
    });

    stores.emplace_back("hash", std::move(hash));
    stores.emplace_back("dense", std::make_unique<DenseStore>(values));
    stores.emplace_back("sharded", std::make_unique<ShardedStore>(
                                       std::move(shard_backends), router));
    stores.emplace_back(
        "versioned",
        std::make_unique<VersionedStore>(std::move(versioned_base)));
  }
};

/// Tiers worth comparing against scalar on this build+host. Empty on a
/// scalar-only host or under WAVEBATCH_FORCE_SCALAR — the tests then skip.
std::vector<KernelTier> UsableSimdTiers() {
  std::vector<KernelTier> tiers;
  if (KernelTierUsable(KernelTier::kAvx2)) tiers.push_back(KernelTier::kAvx2);
  if (KernelTierUsable(KernelTier::kAvx512)) {
    tiers.push_back(KernelTier::kAvx512);
  }
  return tiers;
}

/// Drives `simd` and `scalar` in lockstep through uneven batch sizes
/// (covering full vector widths and ragged tails) and asserts bitwise
/// equality of everything observable after every batch.
void RunLockstep(EvalSession& scalar, EvalSession& simd, double k,
                 size_t num_queries, const std::string& label) {
  const size_t batch_sizes[] = {1, 3, 7, 16, 64, 256};
  size_t bi = 0;
  while (!scalar.Done()) {
    const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
    Result<size_t> scalar_taken = scalar.StepBatch(n);
    Result<size_t> simd_taken = simd.StepBatch(n);
    ASSERT_EQ(scalar_taken.ok(), simd_taken.ok()) << label;
    if (!scalar_taken.ok()) {
      // kFail over a faulty store: both sessions must refuse identically
      // and stay resumable; the caller heals and loops again.
      ASSERT_EQ(scalar_taken.status().code(), simd_taken.status().code())
          << label;
      return;
    }
    ASSERT_EQ(scalar_taken.value(), simd_taken.value()) << label;
    ASSERT_EQ(scalar.StepsTaken(), simd.StepsTaken()) << label;
    for (size_t q = 0; q < num_queries; ++q) {
      // EXPECT_EQ on double is exact bit-level agreement for these values
      // (no NaNs in play): the tiers must not differ by even one ulp.
      ASSERT_EQ(scalar.Estimates()[q], simd.Estimates()[q])
          << label << " query " << q << " after " << scalar.StepsTaken()
          << " steps";
    }
    ASSERT_EQ(scalar.WorstCaseBound(k), simd.WorstCaseBound(k)) << label;
    ASSERT_EQ(scalar.SkippedImportance(), simd.SkippedImportance()) << label;
    ASSERT_EQ(scalar.io(), simd.io()) << label;
  }
  ASSERT_TRUE(simd.Done()) << label;
}

class TierOrderTest : public ::testing::TestWithParam<ProgressionOrder> {};

TEST_P(TierOrderTest, SimdTiersAreBitIdenticalOnEveryBackend) {
  const std::vector<KernelTier> tiers = UsableSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier usable on this host";
  Fixture f;
  TierBackends backends(*f.store);
  for (auto& [name, store] : backends.stores) {
    const double k = store->SumAbs();
    for (KernelTier tier : tiers) {
      EvalSession::Options scalar_opts;
      scalar_opts.order = GetParam();
      scalar_opts.seed = 17;
      scalar_opts.kernel_tier = KernelTier::kScalar;
      EvalSession::Options simd_opts = scalar_opts;
      simd_opts.kernel_tier = tier;

      EvalSession scalar(f.plan, UnownedStore(*store), scalar_opts);
      EvalSession simd(f.plan, UnownedStore(*store), simd_opts);
      ASSERT_EQ(scalar.kernel_tier(), KernelTier::kScalar);
      ASSERT_EQ(simd.kernel_tier(), tier);
      RunLockstep(scalar, simd, k, f.batch.size(),
                  name + "/" + KernelTierName(tier));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, TierOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(KernelTierTest, SkipPolicyDegradesIdenticallyAcrossTiers) {
  // kSkip consumes unavailable coefficients without data; the skip set is
  // key-addressed (FailKey), so both tiers must skip exactly the same
  // entries and land on identical estimates and skipped-importance mass.
  const std::vector<KernelTier> tiers = UsableSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier usable on this host";
  Fixture f;
  for (KernelTier tier : tiers) {
    auto make_store = [&]() {
      auto inner = std::make_unique<HashStore>();
      f.store->ForEachNonZero(
          [&](uint64_t key, double value) { inner->Add(key, value); });
      auto faulty = std::make_unique<FaultInjectionStore>(std::move(inner));
      // Kill every 5th plan key — enough to fragment most batches.
      for (size_t i = 0; i < f.list->size(); i += 5) {
        faulty->FailKey(f.list->keys()[i]);
      }
      return faulty;
    };
    auto scalar_store = make_store();
    auto simd_store = make_store();
    const double k = f.store->SumAbs();

    EvalSession::Options scalar_opts;
    scalar_opts.fault_policy = FaultPolicy::kSkip;
    scalar_opts.kernel_tier = KernelTier::kScalar;
    EvalSession::Options simd_opts = scalar_opts;
    simd_opts.kernel_tier = tier;

    EvalSession scalar(f.plan, UnownedStore(*scalar_store), scalar_opts);
    EvalSession simd(f.plan, UnownedStore(*simd_store), simd_opts);
    RunLockstep(scalar, simd, k, f.batch.size(),
                std::string("skip/") + KernelTierName(tier));
    EXPECT_GT(simd.SkippedCoefficients(), 0u);
    EXPECT_EQ(simd.SkippedCoefficients(), scalar.SkippedCoefficients());
  }
}

TEST(KernelTierTest, FailPolicyRefusesIdenticallyThenResumes) {
  // kFail must leave both sessions untouched on the failing batch; after a
  // Heal() both resume and converge to bit-identical exact results.
  const std::vector<KernelTier> tiers = UsableSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier usable on this host";
  Fixture f;
  for (KernelTier tier : tiers) {
    auto make_store = [&]() {
      auto inner = std::make_unique<HashStore>();
      f.store->ForEachNonZero(
          [&](uint64_t key, double value) { inner->Add(key, value); });
      auto faulty = std::make_unique<FaultInjectionStore>(std::move(inner));
      faulty->FailKey(f.list->keys()[f.list->size() / 2]);
      return faulty;
    };
    auto scalar_store = make_store();
    auto simd_store = make_store();
    const double k = f.store->SumAbs();

    EvalSession::Options scalar_opts;
    scalar_opts.kernel_tier = KernelTier::kScalar;
    EvalSession::Options simd_opts;
    simd_opts.kernel_tier = tier;

    EvalSession scalar(f.plan, UnownedStore(*scalar_store), scalar_opts);
    EvalSession simd(f.plan, UnownedStore(*simd_store), simd_opts);
    // First leg ends at the identical refusal (RunLockstep returns there).
    RunLockstep(scalar, simd, k, f.batch.size(),
                std::string("fail/") + KernelTierName(tier));
    ASSERT_FALSE(scalar.Done());
    ASSERT_EQ(scalar.StepsTaken(), simd.StepsTaken());

    scalar_store->Heal();
    simd_store->Heal();
    ASSERT_TRUE(scalar.RunToExact().ok());
    ASSERT_TRUE(simd.RunToExact().ok());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(scalar.Estimates()[q], simd.Estimates()[q]) << "query " << q;
    }
    EXPECT_EQ(scalar.io(), simd.io());
  }
}

TEST(KernelTierTest, BlockGranularityIsBitIdentical) {
  const std::vector<KernelTier> tiers = UsableSimdTiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier usable on this host";
  Fixture f;
  for (KernelTier tier : tiers) {
    EvalSession::Options scalar_opts;
    scalar_opts.block_of = [](uint64_t key) { return key / 8; };
    scalar_opts.kernel_tier = KernelTier::kScalar;
    EvalSession::Options simd_opts = scalar_opts;
    simd_opts.kernel_tier = tier;

    EvalSession scalar(f.plan, UnownedStore(*f.store), scalar_opts);
    EvalSession simd(f.plan, UnownedStore(*f.store), simd_opts);
    const double k = f.store->SumAbs();
    while (!scalar.Done()) {
      ASSERT_TRUE(scalar.StepBlock().ok());
      ASSERT_TRUE(simd.StepBlock().ok());
      ASSERT_EQ(scalar.StepsTaken(), simd.StepsTaken());
      for (size_t q = 0; q < f.batch.size(); ++q) {
        ASSERT_EQ(scalar.Estimates()[q], simd.Estimates()[q])
            << KernelTierName(tier) << " query " << q;
      }
      ASSERT_EQ(scalar.WorstCaseBound(k), simd.WorstCaseBound(k));
      ASSERT_EQ(scalar.io(), simd.io());
    }
    EXPECT_TRUE(simd.Done());
  }
}

TEST(KernelTierTest, ExplicitTierIsHonoredAndDefaultIsBest) {
  Fixture f;
  EvalSession::Options opts;
  opts.kernel_tier = KernelTier::kScalar;
  EvalSession forced(f.plan, UnownedStore(*f.store), opts);
  EXPECT_EQ(forced.kernel_tier(), KernelTier::kScalar);

  EvalSession defaulted(f.plan, UnownedStore(*f.store));
  EXPECT_EQ(defaulted.kernel_tier(), BestKernelTier());
}

// ---------------------------------------------------------------------------
// DenseStore's hardware-gather fetch path: same values as the scalar loop,
// and the exact historical error contract (OutOfRange at the FIRST
// offending index) even when the bad key sits mid-vector.

TEST(KernelTierTest, DenseGatherMatchesScalarFetchBatch) {
  std::vector<double> values(1024);
  Rng rng(41);
  for (double& v : values) v = rng.UniformDouble() * 2.0 - 1.0;
  DenseStore store(values);

  std::vector<uint64_t> keys;
  Rng key_rng(42);
  for (size_t i = 0; i < 501; ++i) {  // odd length: ragged SIMD tail
    keys.push_back(static_cast<uint64_t>(key_rng.UniformInt(1024)));
  }

  IoStats io;
  std::vector<double> scalar_out(keys.size());
  SetKernelTierOverride(KernelTier::kScalar);
  ASSERT_TRUE(store.FetchBatch(keys, scalar_out, &io).ok());

  for (KernelTier tier : UsableSimdTiers()) {
    SetKernelTierOverride(tier);
    std::vector<double> simd_out(keys.size());
    ASSERT_TRUE(store.FetchBatch(keys, simd_out, &io).ok());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(simd_out[i], scalar_out[i])
          << KernelTierName(tier) << " index " << i;
    }
  }
  SetKernelTierOverride(std::nullopt);
}

TEST(KernelTierTest, DenseGatherReportsFirstOutOfRangeKey) {
  std::vector<double> values(64, 1.5);
  DenseStore store(values);
  // Two bad keys; the error must name the FIRST one on every tier.
  std::vector<uint64_t> keys = {3, 9, 27, 64, 5, 1 << 20, 2};

  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  for (KernelTier t : UsableSimdTiers()) tiers.push_back(t);
  for (KernelTier tier : tiers) {
    SetKernelTierOverride(tier);
    IoStats io;
    std::vector<double> out(keys.size());
    Status status = store.FetchBatch(keys, out, &io);
    ASSERT_FALSE(status.ok()) << KernelTierName(tier);
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange) << KernelTierName(tier);
    EXPECT_NE(status.message().find("key 64"), std::string::npos)
        << KernelTierName(tier) << ": " << status.message();
  }
  SetKernelTierOverride(std::nullopt);
}

TEST(KernelTierTest, TierNamesAndFeatureStringAreStable) {
  // bench_compare keys its refuse-to-gate policy off these strings; keep
  // them stable.
  EXPECT_STREQ(KernelTierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
  EXPECT_FALSE(CpuFeatureString().empty());
}

}  // namespace
}  // namespace wavebatch
