#include "strategy/wavelet_strategy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "wavelet/dwt_nd.h"
#include "wavelet/impulse.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"

namespace wavebatch {

namespace {

using Factor = std::vector<SparseEntry>;

// Appends the tensor product of per-dimension sparse 1-D coefficient lists
// to `out`, scaling every product by `coeff`. Keys are packed with the
// schema's per-dimension bit widths (dimension 0 most significant). Every
// factor is sorted by key with unique keys, and the odometer advances the
// last dimension fastest, so the products come out in strictly ascending
// key order: `out` gains one sorted run.
void ExpandTensorProduct(const Schema& schema,
                         const std::vector<const Factor*>& factors,
                         double coeff, std::vector<SparseEntry>& out) {
  const size_t d = factors.size();
  size_t products = 1;
  for (const Factor* f : factors) {
    if (f->empty()) return;  // a zero factor annihilates the product
    products *= f->size();
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
      const SparseEntry& e = (*factors[i])[idx[i]];
      key_prefix[i + 1] = (key_prefix[i] << schema.bits(i)) | e.key;
      val_prefix[i + 1] = val_prefix[i] * e.value;
    }
    out.push_back({key_prefix[d], val_prefix[d]});
    // Advance the odometer (last dimension fastest).
    size_t i = d;
    while (i-- > 0) {
      if (++idx[i] < factors[i]->size()) break;
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

// One 1-D factor of a query term: x^degree·χ_[lo,hi](x) along dimension
// `dim`. Ordered, so a batch's factors sort into a deduplicated table.
struct FactorKey {
  uint32_t dim;
  uint32_t lo;
  uint32_t hi;
  uint32_t degree;
  auto operator<=>(const FactorKey&) const = default;
};

// The factors `term` of `query` needs, one per dimension.
template <typename Fn>
void ForEachFactor(const RangeSumQuery& query, const Monomial& term, Fn&& fn) {
  for (uint32_t i = 0; i < query.range().num_dims(); ++i) {
    const Interval& iv = query.range().interval(i);
    fn(FactorKey{i, iv.lo, iv.hi, term.exponents[i]});
  }
}

}  // namespace

WaveletStrategy::WaveletStrategy(Schema schema, WaveletKind kind)
    : LinearStrategy(std::move(schema)), filter_(WaveletFilter::Get(kind)) {}

Result<SparseVec> WaveletStrategy::TransformQuery(
    const RangeSumQuery& query) const {
  return std::move(TransformQueries({&query, 1}, /*pool=*/nullptr).front());
}

std::vector<Result<SparseVec>> WaveletStrategy::TransformQueries(
    std::span<const RangeSumQuery> queries, ThreadPool* pool) const {
  const size_t d = schema_.num_dims();
  auto mismatched = [d](const RangeSumQuery& q) {
    return q.range().num_dims() != d;
  };
  // The batch's factor table: each distinct (dimension, interval, degree)
  // once. The queries of a drill-down share their intervals, so the table
  // is far shorter than the batch's terms × dimensions.
  std::vector<FactorKey> table;
  for (const RangeSumQuery& query : queries) {
    if (mismatched(query)) continue;
    for (const Monomial& term : query.poly().terms()) {
      ForEachFactor(query, term, [&](FactorKey k) { table.push_back(k); });
    }
  }
  std::sort(table.begin(), table.end());
  table.erase(std::unique(table.begin(), table.end()), table.end());
  // O(L² log N) pruned cascade per distinct factor; falls back to the dense
  // transform for degrees beyond the filter's vanishing moments.
  std::vector<Factor> cascades(table.size());
  ForRange(pool, table.size(), /*grain=*/16, [&](size_t begin, size_t end) {
    for (size_t f = begin; f < end; ++f) {
      const FactorKey& k = table[f];
      cascades[f] = LazyRangeMonomialDwt1D(schema_.dim(k.dim).size, k.lo,
                                           k.hi, k.degree, filter_);
    }
  });

  std::vector<Result<SparseVec>> out(queries.size(),
                                     Result<SparseVec>(SparseVec{}));
  ForRange(pool, queries.size(), /*grain=*/1, [&](size_t begin, size_t end) {
    std::vector<const Factor*> factors(d);
    std::vector<SparseEntry> run, scratch;
    for (size_t qi = begin; qi < end; ++qi) {
      const RangeSumQuery& query = queries[qi];
      if (mismatched(query)) {
        out[qi] = Status::InvalidArgument("query dimensionality mismatch");
        continue;
      }
      // Each monomial expands into one sorted run, merged into `sum`.
      std::vector<SparseEntry> sum;
      for (const Monomial& term : query.poly().terms()) {
        ForEachFactor(query, term, [&](FactorKey k) {
          factors[k.dim] =
              &cascades[std::lower_bound(table.begin(), table.end(), k) -
                        table.begin()];
        });
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
      out[qi] = SparseVec::FromSorted(std::move(sum));
    }
  });
  return out;
}

std::unique_ptr<CoefficientStore> WaveletStrategy::BuildStore(
    const DenseCube& delta) const {
  WB_CHECK(delta.schema() == schema_);
  const uint64_t cells = delta.size();
  auto values = std::make_unique_for_overwrite<double[]>(cells);
  ForwardDwtNd(delta, {values.get(), cells}, filter_);
  return std::make_unique<DenseStore>(std::move(values), cells);
}

Result<SparseVec> WaveletStrategy::TransformUpdate(const Tuple& tuple,
                                                   double count) const {
  if (!schema_.Contains(tuple)) {
    return Status::OutOfRange("tuple outside schema domain");
  }
  std::vector<Factor> impulses(schema_.num_dims());
  std::vector<const Factor*> factors(schema_.num_dims());
  double bound = 1.0;
  for (size_t i = 0; i < schema_.num_dims(); ++i) {
    const uint64_t n = schema_.dim(i).size;
    impulses[i] = SparseImpulseDwt1D(n, tuple[i], 1.0, filter_);
    factors[i] = &impulses[i];
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
