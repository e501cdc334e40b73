#ifndef WAVEBATCH_ENGINE_MASTER_LIST_H_
#define WAVEBATCH_ENGINE_MASTER_LIST_H_

#include <cstdint>
#include <vector>

#include "query/batch.h"
#include "strategy/linear_strategy.h"
#include "util/status.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

/// Whether a plan-time build (query rewrites, master-list merge,
/// importances, permutation sorts) may fan out across
/// util::ThreadPool::Shared(). Both settings produce bit-identical
/// artifacts — parallel construction uses fixed chunk boundaries, merge
/// slices cut by the input alone, and total-order sorts, so the only
/// difference is wall-clock.
/// kSerial exists for benchmarking the speedup (BM_PlanBuild) and for
/// callers that must not touch the shared pool.
enum class BuildParallelism {
  kSerial,
  kParallel,
};

/// The merged master list of Batch-Biggest-B steps 2–3: per-query sparse
/// coefficient lists merged by key. Its size is the exact shared I/O cost
/// of the batch; the sum of per-query sizes is the naive (unshared) cost.
///
/// Entry i is one storage coefficient needed by the batch, together with
/// every query that uses it and that query's coefficient there — the unit
/// of I/O sharing (Section 2.2): fetching the key once advances every query
/// that uses it. The list is held as a flat CSR image: contiguous `keys()`,
/// `uses_offsets()` (size+1 prefix offsets), `uses_query()` and
/// `uses_coeff()` arrays; entry i's uses occupy
/// [uses_offsets()[i], uses_offsets()[i+1]) of the two `uses_*` arrays. The
/// engine's apply kernel walks it branch-free with no per-entry pointer
/// chase (see engine/apply_kernel.h).
class MasterList {
 public:
  /// An empty master list (no queries, no entries); assign over it.
  MasterList() = default;

  /// Rewrites every query in `batch` under `strategy`
  /// (LinearStrategy::TransformQueries) and merges. Fails with the first
  /// failing query's status, in query order, if any query cannot be
  /// rewritten (e.g. unsupported monomial).
  static Result<MasterList> Build(
      const QueryBatch& batch, const LinearStrategy& strategy,
      BuildParallelism parallelism = BuildParallelism::kParallel);

  /// Merges pre-transformed per-query sparse vectors (index = query index).
  ///
  /// The merge runs by key range: splitters from a sorted sample of the
  /// runs' keys (every 256th key of every run) cut the key space into
  /// slices of about 4,096 uses. Each slice finds its sub-runs and its first
  /// use row by lower bounds at its two splitters and merges them on its
  /// own, writing its use rows in place; at 2^14 uses and above, under
  /// kParallel, the slices run on the shared pool. Entries are then placed
  /// slice by slice. The result is the unique (key, query)-ascending CSR
  /// image, whatever the splitters, the thread count or `parallelism`.
  static MasterList FromQueryVectors(
      const std::vector<SparseVec>& query_coefficients,
      BuildParallelism parallelism = BuildParallelism::kParallel);

  size_t num_queries() const { return num_queries_; }
  /// Distinct coefficients needed by the batch = exact shared I/O cost.
  size_t size() const { return keys_.size(); }

  /// CSR image, ascending by key. keys()[i] is entry i's storage key; its
  /// uses are rows [uses_offsets()[i], uses_offsets()[i+1]) of
  /// uses_query()/uses_coeff(), ascending by query index.
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<uint64_t>& uses_offsets() const { return uses_offsets_; }
  const std::vector<uint32_t>& uses_query() const { return uses_query_; }
  const std::vector<double>& uses_coeff() const { return uses_coeff_; }

  /// Calls fn(query, coefficient) for each use of entry i, ascending by
  /// query index.
  template <typename Fn>
  void ForEachUse(size_t i, Fn&& fn) const {
    for (uint64_t j = uses_offsets_[i]; j < uses_offsets_[i + 1]; ++j) {
      fn(uses_query_[j], uses_coeff_[j]);
    }
  }

  /// Σ per-query nonzero counts = exact naive (per-query) I/O cost.
  uint64_t TotalQueryCoefficients() const { return total_coefficients_; }

  /// Largest number of queries sharing one coefficient.
  size_t MaxSharing() const;

  /// Per-query nonzero counts (the naive cost split by query).
  const std::vector<uint64_t>& PerQueryCoefficients() const {
    return per_query_coefficients_;
  }

 private:
  size_t num_queries_ = 0;
  uint64_t total_coefficients_ = 0;
  std::vector<uint64_t> per_query_coefficients_;

  // CSR image, ascending by key.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> uses_offsets_;  // size() + 1 when non-empty
  std::vector<uint32_t> uses_query_;
  std::vector<double> uses_coeff_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_MASTER_LIST_H_
