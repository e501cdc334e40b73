// Compressed coefficient pages: codec round-trips (lossless bits including
// exact zeros, signed zeros, and denormals; quantized values within the
// page's recorded error), BlockStore's compressed mode reproducing the
// plain blocked plane's values and block counters while charging fewer
// bytes, and — the part that keeps the whole feature honest — the engine's
// widened Theorem-1 bound enclosing the TRUE error of estimates computed
// from quantized coefficients at every progressive step.

#include "storage/compressed_block.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/bounded.h"
#include "engine/eval_session.h"
#include "golden/progression_golden.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

// ---------------------------------------------------------------------------
// CompressedPage codec.

TEST(CompressedPageTest, LosslessRoundTripsExactBits) {
  // Raw-bits mode must reproduce every IEEE value exactly, including the
  // awkward ones: +0.0, -0.0, denormals, and extreme magnitudes.
  const std::vector<uint64_t> keys = {3, 4, 9, 100, 101, 4095};
  const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -2.2250738585072014e-308,  // smallest normal, negated
      1.7976931348623157e308,    // largest finite
      -123.456789};
  CompressedPage page =
      CompressedPage::Encode(keys, values, CompressedPageOptions{});
  EXPECT_EQ(page.entry_count(), keys.size());
  EXPECT_EQ(page.max_abs_error(), 0.0);
  EXPECT_FALSE(page.lossy());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(page.Contains(keys[i]));
    const double decoded = page.ValueOr(keys[i], 7.0);
    // Bit-level check: distinguishes -0.0 from +0.0.
    EXPECT_EQ(std::signbit(decoded), std::signbit(values[i])) << "entry " << i;
    EXPECT_EQ(decoded, values[i]) << "entry " << i;
  }

  std::vector<uint64_t> out_keys;
  std::vector<double> out_values;
  page.AppendEntries(&out_keys, &out_values);
  EXPECT_EQ(out_keys, keys);
  ASSERT_EQ(out_values.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out_values[i], values[i]);
    EXPECT_EQ(std::signbit(out_values[i]), std::signbit(values[i]));
  }
}

TEST(CompressedPageTest, AbsentKeysDecodeToExactZero) {
  const std::vector<uint64_t> keys = {10, 20, 30};
  const std::vector<double> values = {1.0, 2.0, 3.0};
  CompressedPage page =
      CompressedPage::Encode(keys, values, CompressedPageOptions{});
  for (uint64_t key : {uint64_t{0}, uint64_t{11}, uint64_t{29},
                       uint64_t{31}, uint64_t{1} << 40}) {
    EXPECT_FALSE(page.Contains(key));
    EXPECT_EQ(page.ValueOr(key, 0.0), 0.0);
  }
}

TEST(CompressedPageTest, KeyStreamBeatsRawLayoutOnDenseBlocks) {
  // 64 contiguous keys: 6-bit deltas vs 8-byte raw keys. The page must be
  // well under the raw (key, value) layout even in lossless mode.
  std::vector<uint64_t> keys;
  std::vector<double> values;
  Rng rng(7);
  for (uint64_t k = 0; k < 64; ++k) {
    keys.push_back(1000 + k);
    values.push_back(rng.Gaussian());
  }
  CompressedPage page =
      CompressedPage::Encode(keys, values, CompressedPageOptions{});
  EXPECT_LT(page.size_bytes(), 16u * keys.size());
  EXPECT_FALSE(page.lossy());
}

TEST(CompressedPageTest, QuantizedErrorStaysWithinRecordedBound) {
  for (uint32_t bits : {4u, 8u, 16u}) {
    std::vector<uint64_t> keys;
    std::vector<double> values;
    Rng rng(100 + bits);
    for (uint64_t k = 0; k < 64; ++k) {
      keys.push_back(k * 3);  // gaps: exercise delta widths > 1
      values.push_back(rng.Gaussian() * 50.0);
    }
    CompressedPage page = CompressedPage::Encode(
        keys, values, CompressedPageOptions{.quantize = true,
                                            .quant_bits = bits});
    EXPECT_TRUE(page.lossy());
    EXPECT_GT(page.max_abs_error(), 0.0);
    double worst = 0.0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const double err = std::abs(page.ValueOr(keys[i], 0.0) - values[i]);
      EXPECT_LE(err, page.max_abs_error())
          << bits << "-bit entry " << i;
      worst = std::max(worst, err);
    }
    // The recorded bound is measured, not estimated: it is attained.
    EXPECT_EQ(worst, page.max_abs_error());
    // More bits, tighter pages: 16-bit error ≈ range/2^16.
    if (bits == 16) {
      EXPECT_LT(page.max_abs_error(), 1.0);
    }
  }
}

TEST(CompressedPageTest, ConstantPageIsExactWithNoValueStream) {
  // All-equal values collapse to a 0-bit value stream and decode exactly,
  // even under quantization.
  const std::vector<uint64_t> keys = {1, 2, 3, 4};
  const std::vector<double> values(4, 42.25);
  CompressedPage page = CompressedPage::Encode(
      keys, values, CompressedPageOptions{.quantize = true, .quant_bits = 8});
  EXPECT_EQ(page.max_abs_error(), 0.0);
  EXPECT_FALSE(page.lossy());
  for (uint64_t key : keys) EXPECT_EQ(page.ValueOr(key, 0.0), 42.25);
  // Header + 4 packed 2-bit key offsets, no value words.
  EXPECT_LE(page.size_bytes(), 40u);
}

TEST(CompressedPageTest, QuantizedSixteenBitBeatsPlainBlockBytes) {
  // The acceptance geometry of the Zipf bench: a full 64-entry block costs
  // 512 B in the plain simulated-disk model; its 16-bit quantized page must
  // cost less than half that.
  std::vector<uint64_t> keys;
  std::vector<double> values;
  Rng rng(3);
  for (uint64_t k = 0; k < 64; ++k) {
    keys.push_back(k);
    values.push_back(rng.Gaussian());
  }
  CompressedPage page = CompressedPage::Encode(
      keys, values, CompressedPageOptions{.quantize = true, .quant_bits = 16});
  EXPECT_LE(page.size_bytes() * 2, 64u * sizeof(double));
}

// ---------------------------------------------------------------------------
// BlockStore compressed mode.

struct Plane {
  std::unique_ptr<HashStore> MakeInner() const {
    auto inner = std::make_unique<HashStore>();
    Rng rng(11);
    for (uint64_t key = 0; key < 4096; ++key) {
      if (rng.UniformDouble() < 0.25) inner->Add(key, rng.Gaussian() * 10.0);
    }
    return inner;
  }
};

TEST(CompressedBlockStoreTest, LosslessModeMatchesPlainModeExactly) {
  Plane plane;
  BlockStoreOptions plain_opts;
  plain_opts.block_size = 64;
  plain_opts.cache_blocks = 8;
  BlockStoreOptions comp_opts = plain_opts;
  comp_opts.compress_pages = true;
  BlockStore plain(plane.MakeInner(), plain_opts);
  BlockStore compressed(plane.MakeInner(), comp_opts);
  ASSERT_TRUE(compressed.compressed());
  EXPECT_FALSE(compressed.Lossy());
  EXPECT_EQ(compressed.max_quantization_error(), 0.0);

  // Scan surface forwards the exact inner: same K, same support.
  EXPECT_EQ(compressed.SumAbs(), plain.SumAbs());
  EXPECT_EQ(compressed.NumNonZero(), plain.NumNonZero());

  std::vector<uint64_t> keys;
  Rng rng(12);
  for (size_t i = 0; i < 300; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(4096)));
  }
  IoStats plain_io, comp_io;
  std::vector<double> plain_out(keys.size()), comp_out(keys.size());
  ASSERT_TRUE(plain.FetchBatch(keys, plain_out, &plain_io).ok());
  ASSERT_TRUE(compressed.FetchBatch(keys, comp_out, &comp_io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(comp_out[i], plain_out[i]) << "key " << keys[i];
    EXPECT_EQ(compressed.Peek(keys[i]), plain.Peek(keys[i]));
    EXPECT_EQ(compressed.PeekErrorBound(keys[i]), 0.0);
  }
  // The block access pattern is identical — compression changes what a
  // block read costs, never whether one happens.
  EXPECT_EQ(comp_io.retrievals, plain_io.retrievals);
  EXPECT_EQ(comp_io.block_reads, plain_io.block_reads);
  EXPECT_EQ(comp_io.block_hits, plain_io.block_hits);
  // But each miss is cheaper: pages pack a ~25%-occupied block tighter
  // than the fixed 512-byte simulated read.
  EXPECT_GT(plain_io.bytes_fetched, 0u);
  EXPECT_LT(comp_io.bytes_fetched, plain_io.bytes_fetched);
}

TEST(CompressedBlockStoreTest, CompressedModeIsSealed) {
  Plane plane;
  BlockStoreOptions opts;
  opts.block_size = 64;
  opts.compress_pages = true;
  BlockStore store(plane.MakeInner(), opts);
  // Pages are built once at construction; there is no write path or
  // version chain to keep coherent.
  EXPECT_EQ(store.PinVersion(), nullptr);
  EXPECT_DEATH(store.Add(3, 1.0), "read-only");
}

TEST(CompressedBlockStoreTest, QuantizedModeReportsErrorBounds) {
  Plane plane;
  auto reference = plane.MakeInner();
  BlockStoreOptions opts;
  opts.block_size = 64;
  opts.compress_pages = true;
  opts.page.quantize = true;
  opts.page.quant_bits = 12;
  BlockStore store(plane.MakeInner(), opts);
  EXPECT_TRUE(store.Lossy());
  EXPECT_GT(store.max_quantization_error(), 0.0);

  IoStats io;
  for (uint64_t key = 0; key < 4096; ++key) {
    Result<double> got = store.Fetch(key, &io);
    ASSERT_TRUE(got.ok());
    const double exact = reference->Peek(key);
    const double bound = store.PeekErrorBound(key);
    EXPECT_LE(std::abs(got.value() - exact), bound) << "key " << key;
    if (exact == 0.0) {
      // Zeros are not stored, so they decode exactly and carry no error.
      EXPECT_EQ(got.value(), 0.0);
      EXPECT_EQ(bound, 0.0);
    }
    // Peek and Fetch agree on the decoded plane.
    EXPECT_EQ(store.Peek(key), got.value());
  }
  // K = Σ|Δ̂| is computed over the EXACT inner, not the decoded values —
  // the Theorem-1 widening accounts for decode error separately and must
  // not double-count it.
  EXPECT_EQ(store.SumAbs(), reference->SumAbs());
}

// ---------------------------------------------------------------------------
// Engine soundness over quantized pages.

struct EngineFixture : golden::Fixture {
  std::unique_ptr<BlockStore> MakeQuantized(uint32_t quant_bits) const {
    auto inner = std::make_unique<HashStore>();
    store->ForEachNonZero(
        [&](uint64_t key, double value) { inner->Add(key, value); });
    BlockStoreOptions opts;
    opts.block_size = 64;
    opts.compress_pages = true;
    opts.page.quantize = true;
    opts.page.quant_bits = quant_bits;
    return std::make_unique<BlockStore>(std::move(inner), opts);
  }
};

TEST(QuantizedBoundTest, WorstCaseBoundEnclosesTrueErrorAtEveryStep) {
  // The widened Theorem-1 bound must dominate the penalty of the CURRENT
  // quantized estimate against the TRUE exact answers, at every step of
  // the progression — coarse 8-bit pages make the quantization term do
  // real work here.
  EngineFixture f;
  // True answers: exact store, run to completion.
  EvalSession truth(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(truth.RunToExact().ok());
  const std::vector<double> exact = truth.Estimates();

  for (uint32_t bits : {8u, 16u}) {
    auto store = f.MakeQuantized(bits);
    // K from the store the session reads — its SumAbs forwards the exact
    // inner, matching what a caller would compute.
    const double k = store->SumAbs();
    EvalSession session(f.plan, UnownedStore(*store));
    SsePenalty sse;
    size_t steps = 0;
    while (!session.Done()) {
      ASSERT_TRUE(session.StepBatch(7).ok());
      ++steps;
      std::vector<double> err(exact.size());
      for (size_t q = 0; q < exact.size(); ++q) {
        err[q] = session.Estimates()[q] - exact[q];
      }
      const double bound = session.WorstCaseBound(k);
      // Tiny slack for the strategy's rewrite thresholding (same allowance
      // the exact-store bound test uses) — NOT for quantization, which the
      // bound must cover in full.
      EXPECT_LE(sse.Apply(err), bound + 1e-5 * (1.0 + k * k))
          << bits << "-bit step " << steps;
    }
    // Done ≠ exact over a lossy store: the bound stays positive, priced by
    // the accumulated per-coefficient error mass.
    EXPECT_GT(session.QuantizationErrorMass(), 0.0);
    EXPECT_GT(session.WorstCaseBound(k), 0.0);
    std::vector<double> final_err(exact.size());
    for (size_t q = 0; q < exact.size(); ++q) {
      final_err[q] = session.Estimates()[q] - exact[q];
    }
    EXPECT_LE(sse.Apply(final_err),
              session.WorstCaseBound(k) + 1e-5 * (1.0 + k * k));
  }
}

TEST(QuantizedBoundTest, ExactStoresKeepLegacyBoundBitForBit) {
  // The widening is gated on accumulated error mass; exact stores must see
  // the identical legacy bound expression, not a rounded-trip rewrite.
  EngineFixture f;
  EvalSession session(f.plan, UnownedStore(*f.store));
  const double k = f.store->SumAbs();
  while (!session.Done()) {
    ASSERT_TRUE(session.StepBatch(5).ok());
    EXPECT_EQ(session.QuantizationErrorMass(), 0.0);
    const double alpha = f.sse->HomogeneityDegree();
    const double legacy =
        std::pow(k, alpha) *
        (session.NextImportance() + session.SkippedImportance());
    EXPECT_EQ(session.WorstCaseBound(k), legacy);
  }
}

TEST(QuantizedBoundTest, BoundedRunErrorBoundsEncloseTrueResults) {
  // engine/bounded.h's per-query enclosures: |reported − exact| ≤
  // error_bounds[q] over a quantized store; all zeros over an exact one.
  EngineFixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);

  Result<BoundedRunResult> exact_run = RunWithBoundedWorkspace(
      f.batch, strategy, *f.store, /*max_workspace_coefficients=*/64);
  ASSERT_TRUE(exact_run.ok());
  for (double b : exact_run->error_bounds) EXPECT_EQ(b, 0.0);

  auto store = f.MakeQuantized(8);
  Result<BoundedRunResult> lossy_run = RunWithBoundedWorkspace(
      f.batch, strategy, *store, /*max_workspace_coefficients=*/64);
  ASSERT_TRUE(lossy_run.ok());
  ASSERT_EQ(lossy_run->error_bounds.size(), f.batch.size());
  bool any_positive = false;
  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_LE(std::abs(lossy_run->results[q] - exact_run->results[q]),
              lossy_run->error_bounds[q] + 1e-12)
        << "query " << q;
    any_positive |= lossy_run->error_bounds[q] > 0.0;
  }
  EXPECT_TRUE(any_positive) << "8-bit pages should not be accidentally exact";
}

}  // namespace
}  // namespace wavebatch
