// Decorator pass-through audit: every store decorator must forward every
// public entry point faithfully. For each decorator wrapped around a
// HashStore, every read path — Peek, Fetch, FetchBatch, and the aggregate
// scans — must produce values identical to the naked inner store, with
// identical IoStats (identical retrievals for all decorators;
// BlockStore's block counters are its own sub-model, additive on top and
// asserted separately). This is the regression net for the classic
// decorator bug: adding a new entry point to the base class and forgetting
// to forward it in one wrapper, which silently drops the wrapper (or the
// batch optimization) from that path.

#include <memory>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "storage/block_store.h"
#include "storage/fault_injection_store.h"
#include "storage/memory_store.h"
#include "storage/versioned_store.h"
#include "strategy/wavelet_strategy.h"

namespace wavebatch {
namespace {

/// The probe workload: every nonzero key of the reference store plus a
/// sprinkle of absent keys (decorators must forward zeros too).
struct Probe {
  std::vector<uint64_t> keys;
  std::vector<double> expected;
};

Probe MakeProbe(const CoefficientStore& reference) {
  Probe probe;
  reference.ForEachNonZero([&](uint64_t key, double value) {
    probe.keys.push_back(key);
    probe.expected.push_back(value);
  });
  const uint64_t max_key = probe.keys.empty() ? 0 : probe.keys.back();
  for (uint64_t key = max_key + 1; key <= max_key + 5; ++key) {
    probe.keys.push_back(key);
    probe.expected.push_back(0.0);
  }
  return probe;
}

/// Exercises every public read entry point of `store` and checks values
/// against `probe` and I/O accounting against `expect_io` (retrievals
/// always; block counters only when `check_blocks`).
void AuditReadPaths(const CoefficientStore& store, const Probe& probe,
                    const IoStats& expect_io, bool check_blocks,
                    const char* label) {
  SCOPED_TRACE(label);

  // Scalar counted path.
  IoStats scalar_io;
  for (size_t i = 0; i < probe.keys.size(); ++i) {
    Result<double> value = store.Fetch(probe.keys[i], &scalar_io);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(*value, probe.expected[i]) << "key " << probe.keys[i];
    EXPECT_EQ(store.Peek(probe.keys[i]), probe.expected[i]);
  }
  EXPECT_EQ(scalar_io.retrievals, expect_io.retrievals);

  // Batched counted path.
  IoStats batch_io;
  std::vector<double> out(probe.keys.size(), -1.0);
  ASSERT_TRUE(store.FetchBatch(probe.keys, out, &batch_io).ok());
  for (size_t i = 0; i < probe.keys.size(); ++i) {
    EXPECT_EQ(out[i], probe.expected[i]) << "key " << probe.keys[i];
  }
  EXPECT_EQ(batch_io.retrievals, expect_io.retrievals);
  if (check_blocks) {
    EXPECT_EQ(batch_io.block_reads, expect_io.block_reads);
    EXPECT_EQ(batch_io.block_hits, expect_io.block_hits);
  }

  // Aggregate scans.
  uint64_t nnz = 0;
  double recomputed_sum_abs = 0.0;
  store.ForEachNonZero([&](uint64_t, double value) {
    ++nnz;
    recomputed_sum_abs += value < 0 ? -value : value;
  });
  EXPECT_EQ(store.NumNonZero(), nnz);
  EXPECT_GT(nnz, 0u);
  EXPECT_NEAR(store.SumAbs(), recomputed_sum_abs,
              1e-9 * (1.0 + recomputed_sum_abs));
}

class DecoratorPassthroughTest : public ::testing::Test {
 protected:
  DecoratorPassthroughTest() : schema_(Schema::Uniform(2, 16)) {
    WaveletStrategy strategy(schema_, WaveletKind::kHaar);
    Relation rel = MakeUniformRelation(schema_, 400, 13);
    reference_ = strategy.BuildStore(rel.FrequencyDistribution());
    probe_ = MakeProbe(*reference_);
  }

  /// A HashStore holding the reference coefficients: the inner store every
  /// decorator wraps.
  std::unique_ptr<HashStore> MakeInner() const {
    auto inner = std::make_unique<HashStore>();
    reference_->ForEachNonZero(
        [&](uint64_t key, double value) { inner->Add(key, value); });
    return inner;
  }

  IoStats PlainIo() const {
    IoStats io;
    io.retrievals = probe_.keys.size();
    return io;
  }

  Schema schema_;
  std::unique_ptr<CoefficientStore> reference_;
  Probe probe_;
};

TEST_F(DecoratorPassthroughTest, NakedHashStoreIsTheBaseline) {
  auto inner = MakeInner();
  AuditReadPaths(*inner, probe_, PlainIo(), /*check_blocks=*/true, "hash");
}

TEST_F(DecoratorPassthroughTest, HealthyFaultInjectionStoreIsTransparent) {
  FaultInjectionStore store(MakeInner());
  AuditReadPaths(store, probe_, PlainIo(), /*check_blocks=*/true, "faulty");
  EXPECT_EQ(store.injected_failures(), 0u);
}

TEST_F(DecoratorPassthroughTest, BlockStoreForwardsValuesAndAddsItsSubModel) {
  constexpr uint64_t kBlockSize = 8;
  BlockStore store(MakeInner(), kBlockSize, /*cache_blocks=*/0);

  // Values and retrievals identical to the inner plane; block counters are
  // the wrapper's own sub-model, checked for the batched paths: unbuffered
  // batches read each distinct block exactly once.
  IoStats expected = PlainIo();
  std::vector<bool> seen;
  for (uint64_t key : probe_.keys) {
    const uint64_t block = key / kBlockSize;
    if (block >= seen.size()) seen.resize(block + 1, false);
    if (!seen[block]) {
      seen[block] = true;
      ++expected.block_reads;
    }
  }
  AuditReadPaths(store, probe_, expected, /*check_blocks=*/true, "blocked");
}

TEST_F(DecoratorPassthroughTest, SnapshotStoreWithNullOverlayIsTransparent) {
  std::shared_ptr<const CoefficientStore> inner = MakeInner();
  SnapshotStore store(/*epoch=*/0, inner, /*overlay=*/nullptr);
  AuditReadPaths(store, probe_, PlainIo(), /*check_blocks=*/true, "snapshot");
}

TEST_F(DecoratorPassthroughTest, SnapshotStoreAppliesItsOverlayOnEveryPath) {
  std::shared_ptr<const CoefficientStore> inner = MakeInner();
  // Overlay: +1 on every third probed key, plus one key absent from the
  // base — every read path must see base ⊕ overlay.
  auto overlay = std::make_shared<DeltaOverlay>();
  Probe shifted = probe_;
  for (size_t i = 0; i < probe_.keys.size(); i += 3) {
    overlay->adds[probe_.keys[i]] = 1.0;
    shifted.expected[i] += 1.0;
  }
  SnapshotStore store(/*epoch=*/1, inner, overlay);
  AuditReadPaths(store, shifted, PlainIo(), /*check_blocks=*/true,
                 "snapshot+overlay");
}

TEST_F(DecoratorPassthroughTest, StackedDecoratorsComposeWithoutDoubleCount) {
  // The full stack the streaming fault tests use: fault injection over a
  // block simulation over a published snapshot over a HashStore.
  // One retrieval per key, charged once, values intact end to end.
  auto snapshot = std::make_shared<SnapshotStore>(
      /*epoch=*/0, std::shared_ptr<const CoefficientStore>(MakeInner()),
      nullptr);
  auto blocked = std::make_unique<BlockStore>(
      std::make_unique<FaultInjectionStore>(
          const_cast<CoefficientStore*>(
              static_cast<const CoefficientStore*>(snapshot.get()))),
      /*block_size=*/8, /*cache_blocks=*/0);
  AuditReadPaths(*blocked, probe_, PlainIo(), /*check_blocks=*/false,
                 "stacked");
}

TEST_F(DecoratorPassthroughTest, DecoratorsOverStableInnerAreTheirOwnSnapshot) {
  // Over an inner store that is its own snapshot (stable contents), the
  // decorator is stable too, so PinVersion stays null and callers use the
  // decorator directly.
  FaultInjectionStore faulty(MakeInner());
  EXPECT_EQ(faulty.PinVersion(), nullptr);
  BlockStore blocked(MakeInner(), 8, 0);
  EXPECT_EQ(blocked.PinVersion(), nullptr);
  std::shared_ptr<const CoefficientStore> inner = MakeInner();
  SnapshotStore snapshot(0, inner, nullptr);
  EXPECT_EQ(snapshot.PinVersion(), nullptr)
      << "a snapshot is its own snapshot";
}

TEST_F(DecoratorPassthroughTest,
       FaultInjectionStoreForwardsPinVersionOverVersionedInner) {
  // The regression this guards: a decorator inheriting the base-class
  // PinVersion (null) over a VersionedStore left sessions un-pinned, so
  // epochs could advance mid-evaluation. The forwarded pin must (a) stay
  // decorated, (b) isolate the pinned view from later epochs, and
  // (c) share the fault state with the original wrapper.
  auto base = std::make_unique<HashStore>();
  reference_->ForEachNonZero(
      [&](uint64_t key, double value) { base->Add(key, value); });
  auto versioned = std::make_unique<VersionedStore>(std::move(base));
  VersionedStore* writer = versioned.get();
  FaultInjectionStore faulty(std::move(versioned));

  std::shared_ptr<const CoefficientStore> pinned = faulty.PinVersion();
  ASSERT_NE(pinned, nullptr)
      << "decorator over a versioned store must forward the pin";
  EXPECT_EQ(pinned->name().rfind("faulty(", 0), 0u)
      << "the pinned view must keep the decorator on the read path";

  // Every read path of the pinned view matches the reference (same values,
  // same accounting) — the decorated pin is a full store, not a shim.
  AuditReadPaths(*pinned, probe_, PlainIo(), /*check_blocks=*/false,
                 "pinned-faulty");

  // The pin isolates: a later epoch is invisible to the pinned view but
  // visible through the (un-pinned) decorator.
  const uint64_t probe_key = probe_.keys.front();
  const double old_value = probe_.expected.front();
  writer->Add(probe_key, 5.0);
  writer->Publish();
  IoStats io;
  Result<double> pinned_value = pinned->Fetch(probe_key, &io);
  ASSERT_TRUE(pinned_value.ok());
  EXPECT_EQ(*pinned_value, old_value);
  Result<double> live_value = faulty.Fetch(probe_key, &io);
  ASSERT_TRUE(live_value.ok());
  EXPECT_EQ(*live_value, old_value + 5.0);

  // Fault state is shared both ways: FailKey on the original faults the
  // pinned view, pinned fetches advance the shared ordinal, and Heal()
  // heals everything.
  const uint64_t fetches_so_far = faulty.fetch_count();
  EXPECT_GT(fetches_so_far, 0u) << "pinned fetches count on the shared state";
  faulty.FailKey(probe_key);
  EXPECT_FALSE(pinned->Fetch(probe_key, &io).ok());
  EXPECT_EQ(faulty.injected_failures(), 1u);
  faulty.Heal();
  EXPECT_TRUE(pinned->Fetch(probe_key, &io).ok());
}

TEST_F(DecoratorPassthroughTest,
       BlockStoreForwardsPinVersionAndSharesBufferPool) {
  auto base = std::make_unique<HashStore>();
  reference_->ForEachNonZero(
      [&](uint64_t key, double value) { base->Add(key, value); });
  BlockStore blocked(
      std::make_unique<VersionedStore>(std::move(base)),
      /*block_size=*/8, /*cache_blocks=*/64);

  std::shared_ptr<const CoefficientStore> pinned = blocked.PinVersion();
  ASSERT_NE(pinned, nullptr)
      << "decorator over a versioned store must forward the pin";
  EXPECT_EQ(pinned->name().rfind("blocked(", 0), 0u)
      << "the pinned view must keep the block model on the read path";

  // One buffer pool across original and pinned views (one medium, one
  // pool): a block warmed through the pinned view hits when read through
  // the original, and vice versa.
  const uint64_t key = probe_.keys.front();
  IoStats warm;
  ASSERT_TRUE(pinned->Fetch(key, &warm).ok());
  EXPECT_EQ(warm.block_reads, 1u);
  EXPECT_EQ(warm.block_hits, 0u);
  IoStats hit;
  ASSERT_TRUE(blocked.Fetch(key, &hit).ok());
  EXPECT_EQ(hit.block_reads, 0u);
  EXPECT_EQ(hit.block_hits, 1u) << "the pinned view must share the LRU pool";
}

}  // namespace
}  // namespace wavebatch
