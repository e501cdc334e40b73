#ifndef WAVEBATCH_STRATEGY_LINEAR_STRATEGY_H_
#define WAVEBATCH_STRATEGY_LINEAR_STRATEGY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cube/dense_cube.h"
#include "cube/relation.h"
#include "query/range_sum.h"
#include "storage/coefficient_store.h"
#include "util/status.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

class ThreadPool;

/// A linear storage/evaluation strategy (Section 1.2 of the paper): the
/// materialized view is T·Δ for some linear transform T with a left
/// inverse, and every vector query q is rewritten to a vector q_T in the
/// transform domain such that
///     ⟨q, Δ⟩ = ⟨q_T, T·Δ⟩.
/// Wavelets, prefix sums, full precomputation and no precomputation are all
/// instances — and Batch-Biggest-B works uniformly on top of any of them,
/// because master lists, importance functions and progressive estimates
/// only ever see the rewritten sparse query vectors and a key-value store.
class LinearStrategy {
 public:
  virtual ~LinearStrategy() = default;

  const Schema& schema() const { return schema_; }

  /// Rewrites `query` to its sparse transform-domain representation q_T.
  /// The entry count is the single-query I/O cost of answering `query`
  /// exactly under this strategy.
  virtual Result<SparseVec> TransformQuery(
      const RangeSumQuery& query) const = 0;

  /// Rewrites a batch: slot i is TransformQuery(queries[i]) bit for bit,
  /// error or value, whatever `pool` is (null runs everything on the
  /// calling thread). The default fans TransformQuery out over `pool` one
  /// query per chunk; a strategy whose queries share per-dimension work
  /// overrides it to do that work once per batch (WaveletStrategy).
  virtual std::vector<Result<SparseVec>> TransformQueries(
      std::span<const RangeSumQuery> queries, ThreadPool* pool) const;

  /// Materializes the view T·Δ from a dense frequency distribution.
  virtual std::unique_ptr<CoefficientStore> BuildStore(
      const DenseCube& delta) const = 0;

  /// Incremental maintenance, as data: the sparse coefficient delta that
  /// `count` new occurrences of `tuple` add to the view (count may be
  /// negative for deletions). The entry count is the strategy's per-tuple
  /// update cost — O((2δ+2)^d log^d N) for wavelets (Section 2.1 of the
  /// paper), O(N^d) worst case for prefix sums, 1 for identity. Returning
  /// the delta instead of mutating a store is what makes the update path
  /// composable: callers apply it to a store (InsertTuple), ingest it into
  /// a VersionedStore's delta overlay, or ship it to a replica.
  virtual Result<SparseVec> TransformUpdate(const Tuple& tuple,
                                            double count = 1.0) const = 0;

  /// Incremental maintenance, applied: adds TransformUpdate(tuple, count)
  /// into `store`. Non-virtual on purpose — every strategy's in-place
  /// update is exactly its update delta applied entry by entry, so the
  /// delta path and the in-place path can never drift apart.
  Status InsertTuple(CoefficientStore& store, const Tuple& tuple,
                     double count = 1.0) const;

  /// Builds an empty store and inserts every tuple of `relation` — the
  /// streaming build path (never materializes the dense cube).
  std::unique_ptr<CoefficientStore> BuildStoreFromRelation(
      const Relation& relation) const;

  virtual std::string name() const = 0;

 protected:
  explicit LinearStrategy(Schema schema) : schema_(std::move(schema)) {}

  /// Empty store of the flavor this strategy prefers; used by
  /// BuildStoreFromRelation.
  virtual std::unique_ptr<CoefficientStore> MakeEmptyStore() const = 0;

  Schema schema_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STRATEGY_LINEAR_STRATEGY_H_
