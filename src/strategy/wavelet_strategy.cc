#include "strategy/wavelet_strategy.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "util/bits.h"
#include "util/check.h"
#include "wavelet/dwt_nd.h"
#include "wavelet/impulse.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"

namespace wavebatch {

namespace {

// Appends the tensor product of per-dimension sparse 1-D coefficient lists
// to `out`, scaling every product by `coeff`. Keys are packed with the
// schema's per-dimension bit widths (dimension 0 most significant). Every
// factor is sorted by key with unique keys, and the odometer advances the
// last dimension fastest, so the products come out in strictly ascending
// key order: `out` gains one sorted run.
void ExpandTensorProduct(const Schema& schema,
                         const std::vector<std::vector<SparseEntry>>& factors,
                         double coeff, std::vector<SparseEntry>& out) {
  const size_t d = factors.size();
  size_t products = 1;
  for (const auto& f : factors) {
    if (f.empty()) return;  // a zero factor annihilates the product
    products *= f.size();
  }
  out.reserve(out.size() + products);
  // Iterative odometer over factor indices; running partial keys/values per
  // dimension avoid recomputing prefixes.
  std::vector<size_t> idx(d, 0);
  std::vector<uint64_t> key_prefix(d + 1, 0);
  std::vector<double> val_prefix(d + 1, 0.0);
  val_prefix[0] = coeff;
  size_t dim = 0;
  for (;;) {
    // Fill prefixes from `dim` to the end.
    for (size_t i = dim; i < d; ++i) {
      const SparseEntry& e = factors[i][idx[i]];
      key_prefix[i + 1] = (key_prefix[i] << schema.bits(i)) | e.key;
      val_prefix[i + 1] = val_prefix[i] * e.value;
    }
    out.push_back({key_prefix[d], val_prefix[d]});
    // Advance the odometer (last dimension fastest).
    size_t i = d;
    while (i-- > 0) {
      if (++idx[i] < factors[i].size()) break;
      idx[i] = 0;
      if (i == 0) return;
    }
    dim = i;
  }
}

// Merges the sorted run `run` into the sorted run `sum`; on a shared key
// the result is sum's value plus run's, so merging the terms of a
// polynomial one by one adds their products in term order.
void MergeSortedRun(std::vector<SparseEntry>& sum,
                    const std::vector<SparseEntry>& run,
                    std::vector<SparseEntry>& scratch) {
  scratch.clear();
  scratch.reserve(sum.size() + run.size());
  size_t i = 0, j = 0;
  while (i < sum.size() && j < run.size()) {
    if (sum[i].key < run[j].key) {
      scratch.push_back(sum[i++]);
    } else if (run[j].key < sum[i].key) {
      scratch.push_back(run[j++]);
    } else {
      scratch.push_back({sum[i].key, sum[i].value + run[j].value});
      ++i;
      ++j;
    }
  }
  scratch.insert(scratch.end(), sum.begin() + i, sum.end());
  scratch.insert(scratch.end(), run.begin() + j, run.end());
  sum.swap(scratch);
}

// Keeps the entries with |value| > eps, in order (the same test
// SparseVec::FromUnsorted applies).
void KeepAbove(std::vector<SparseEntry>& entries, double eps) {
  size_t kept = 0;
  for (const SparseEntry& e : entries) {
    if (std::abs(e.value) > eps) entries[kept++] = e;
  }
  entries.resize(kept);
}

}  // namespace

WaveletStrategy::WaveletStrategy(Schema schema, WaveletKind kind)
    : LinearStrategy(std::move(schema)), filter_(WaveletFilter::Get(kind)) {}

Result<SparseVec> WaveletStrategy::TransformQuery(
    const RangeSumQuery& query) const {
  if (!(query.range().num_dims() == schema_.num_dims())) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  // Each monomial expands into one sorted run, merged into `sum`.
  std::vector<SparseEntry> sum, run, scratch;
  std::vector<std::vector<SparseEntry>> factors(schema_.num_dims());
  for (const Monomial& term : query.poly().terms()) {
    for (size_t i = 0; i < schema_.num_dims(); ++i) {
      const Interval& iv = query.range().interval(i);
      // O(L² log N) pruned cascade; falls back to the dense transform for
      // degrees beyond the filter's vanishing moments.
      factors[i] = LazyRangeMonomialDwt1D(schema_.dim(i).size, iv.lo, iv.hi,
                                          term.exponents[i], filter_);
    }
    run.clear();
    ExpandTensorProduct(schema_, factors, term.coeff, run);
    MergeSortedRun(sum, run, scratch);
  }
  // Cross-term cancellation can produce numerically-zero entries; sweep
  // them with the same relative threshold the 1-D transforms use.
  double max_abs = 0.0;
  for (const SparseEntry& e : sum) {
    max_abs = std::max(max_abs, std::abs(e.value));
  }
  KeepAbove(sum, max_abs * kQueryCoefficientRelEps);
  return SparseVec::FromSorted(std::move(sum));
}

std::unique_ptr<CoefficientStore> WaveletStrategy::BuildStore(
    const DenseCube& delta) const {
  WB_CHECK(delta.schema() == schema_);
  DenseCube transformed = delta;
  ForwardDwtNd(transformed, filter_);
  return std::make_unique<DenseStore>(std::move(transformed).TakeValues());
}

Result<SparseVec> WaveletStrategy::TransformUpdate(const Tuple& tuple,
                                                   double count) const {
  if (!schema_.Contains(tuple)) {
    return Status::OutOfRange("tuple outside schema domain");
  }
  std::vector<std::vector<SparseEntry>> factors(schema_.num_dims());
  double bound = 1.0;
  for (size_t i = 0; i < schema_.num_dims(); ++i) {
    const uint64_t n = schema_.dim(i).size;
    factors[i] = SparseImpulseDwt1D(n, tuple[i], 1.0, filter_);
    // Per-dimension sparsity of the impulse cascade: the level-ℓ scaling
    // support of a point is at most L-1 positions wide, each level emits at
    // most that many details, and one approximation coefficient survives.
    bound *= static_cast<double>(filter_.length()) *
                 static_cast<double>(FloorLog2(n)) +
             1.0;
  }
  std::vector<SparseEntry> delta;
  ExpandTensorProduct(schema_, factors, count, delta);
  // The paper's maintenance claim, enforced: an insertion touches
  // O((2δ+2)^d log^d N) stored coefficients.
  WB_CHECK_LE(static_cast<double>(delta.size()), bound)
      << "wavelet update delta exceeds the (2δ+2)^d log^d N bound";
  // A zero count (or an underflowing product) leaves zeros; drop them.
  KeepAbove(delta, 0.0);
  return SparseVec::FromSorted(std::move(delta));
}

std::string WaveletStrategy::name() const {
  return std::string("wavelet-") + filter_.name();
}

std::unique_ptr<CoefficientStore> WaveletStrategy::MakeEmptyStore() const {
  return std::make_unique<HashStore>();
}

}  // namespace wavebatch
