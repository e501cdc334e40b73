#ifndef WAVEBATCH_ENGINE_EVAL_PLAN_H_
#define WAVEBATCH_ENGINE_EVAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "engine/apply_kernel.h"
#include "engine/master_list.h"
#include "penalty/penalty.h"
#include "query/batch.h"
#include "strategy/linear_strategy.h"
#include "util/status.h"

namespace wavebatch {

/// Orders in which a progressive evaluation may walk the master list.
/// kBiggestB is the paper's algorithm; the others are ablation baselines
/// (all of them share I/O — the comparison isolates the *ordering*).
enum class ProgressionOrder {
  /// Decreasing importance ι_p — the Batch-Biggest-B order, optimal for
  /// worst-case (Thm 1) and expected (Thm 2) penalty at every step.
  kBiggestB,
  /// Round-robin over queries, each advancing through its own coefficients
  /// in decreasing |q̂_i| — the natural "s independent single-query
  /// ProPolyne instances" order, with fetches deduplicated.
  kRoundRobin,
  /// Uniformly random order (seeded).
  kRandom,
  /// Ascending key order — what a pure sequential scan would do.
  kKeyOrder,
};

/// The immutable, shareable half of a progressive batch evaluation: master
/// list, per-entry importances ι_p(ξ), and the consumption permutation of
/// every deterministic ProgressionOrder, each built as far as sessions read
/// it: biggest-B is sorted a prefix at a time as its sessions step (see
/// BiggestBPrefix), key order and round-robin on first use, and the
/// unread-importance maxima Theorem 1's bound reads outside biggest-B on
/// first use. A plan that only exact requests read never sorts. Plans carry
/// no cursor and touch no store, so one plan can back any number of
/// EvalSessions — sequentially (a dashboard re-running the same batch) or
/// concurrently (sessions on different threads over one shared store) —
/// and can be cached across identical batches (PlanCache).
///
/// Plans own their inputs via shared_ptr: a session holding the plan keeps
/// the master list and penalty alive.
///
/// Construction fans out over util::ThreadPool::Shared() by default (the
/// query rewrite, the master-list merge and the importances), as do
/// biggest-B extensions past ParallelSort's grain; pass
/// BuildParallelism::kSerial to force the single-threaded path. Both
/// settings produce bit-identical plans — see engine/master_list.h.
class EvalPlan {
 public:
  /// Rewrites `batch` under `strategy` (MasterList::Build) and plans it.
  /// `penalty` may be null for exact-only plans (kKeyOrder / kRoundRobin
  /// progressions and RunToExact work; importance-based order and bounds
  /// do not).
  static Result<std::shared_ptr<const EvalPlan>> Build(
      const QueryBatch& batch, const LinearStrategy& strategy,
      std::shared_ptr<const PenaltyFunction> penalty,
      BuildParallelism parallelism = BuildParallelism::kParallel);

  /// Plans an already-merged master list.
  static std::shared_ptr<const EvalPlan> FromMasterList(
      std::shared_ptr<const MasterList> list,
      std::shared_ptr<const PenaltyFunction> penalty,
      BuildParallelism parallelism = BuildParallelism::kParallel);

  const MasterList& list() const { return *list_; }
  /// Null for exact-only plans.
  const PenaltyFunction* penalty() const { return penalty_.get(); }

  size_t num_queries() const { return list_->num_queries(); }
  /// Steps to exactness (= master list size).
  size_t size() const { return list_->size(); }

  bool HasImportance() const { return penalty_ != nullptr; }
  /// ι_p of master-list entry `i`. Requires HasImportance().
  double importance(size_t i) const { return importance_[i]; }
  /// Σ_ξ ι_p(ξ) over the whole master list — a fresh session's remaining
  /// importance. Requires HasImportance().
  double total_importance() const { return total_importance_; }

  /// The fused gather-apply kernel over this plan's CSR image. The returned
  /// pointers stay valid as long as this plan is alive (sessions hold the
  /// plan via shared_ptr).
  ApplyKernel kernel() const {
    return ApplyKernel::For(
        *list_, importance_.empty() ? nullptr : importance_.data());
  }

  /// The order in which a session under `order` consumes master-list entry
  /// indices, in full. kBiggestB (requires HasImportance()) sorts whatever
  /// of its order no session has sorted yet; kKeyOrder and kRoundRobin are
  /// built on their first request, once per plan. Thread-safe. kRandom
  /// depends on a seed — use RandomPermutation.
  std::span<const size_t> Permutation(ProgressionOrder order) const;

  /// The biggest-B order — descending (importance, index), the sequence a
  /// max-heap of those pairs pops — with at least its first
  /// min(count, size()) entries sorted. Entries past the sorted prefix are
  /// in no particular order and must not be read. Batch-Biggest-B retrieves
  /// in this order and needs no more of it than it retrieves, so sessions
  /// extend the prefix as they step: the first extension sorts
  /// kFirstSortedChunk entries, and each later one at least doubles the
  /// prefix (nth_element on the unsorted tail, then a sort of the new
  /// part). (importance, index) is a strict total order, so the prefix is
  /// the same whatever the history of extensions. Thread-safe: extensions
  /// serialize on a mutex and write only past the published prefix length,
  /// which readers load with acquire. Requires HasImportance().
  std::span<const size_t> BiggestBPrefix(size_t count) const;

  /// Entries the first biggest-B extension sorts; later ones double.
  static constexpr size_t kFirstSortedChunk = 1024;

  /// The kRandom consumption order for `seed` (the identity permutation
  /// through a seeded Fisher–Yates).
  /// The last (seed, permutation) pair is memoized behind a mutex — the
  /// plan stays logically immutable, and the common pattern of many
  /// sessions sharing one seed costs one shuffle instead of one per
  /// session. Thread-safe.
  std::vector<size_t> RandomPermutation(uint64_t seed) const;

  /// Entry j is max_{i ≥ j} ι_p(permutation[i]): the largest importance a
  /// session walking `permutation` has not read after j steps — Theorem 1's
  /// max over the unused coefficients. Requires HasImportance().
  std::vector<double> SuffixMaxImportance(
      std::span<const size_t> permutation) const;

  /// SuffixMaxImportance(Permutation(order)) for kKeyOrder and kRoundRobin,
  /// built on its first request, once per (plan, order) (thread-safe), like
  /// round-robin itself. kBiggestB needs none (its next entry is the max)
  /// and kRandom sessions own theirs.
  std::span<const double> UnreadMaxImportance(ProgressionOrder order) const;

 private:
  EvalPlan(std::shared_ptr<const MasterList> list,
           std::shared_ptr<const PenaltyFunction> penalty,
           BuildParallelism parallelism);

  /// Fills round_robin_. Runs once, under round_robin_once_.
  void BuildRoundRobin() const;

  /// Null for BuildParallelism::kSerial.
  ThreadPool* pool() const;

  /// A suffix-max array built on first use (see UnreadMaxImportance).
  struct UnreadMaxMemo {
    std::once_flag once;
    std::vector<double> values;
  };

  std::shared_ptr<const MasterList> list_;
  std::shared_ptr<const PenaltyFunction> penalty_;
  const BuildParallelism parallelism_;

  std::vector<double> importance_;  // empty when penalty_ is null
  double total_importance_ = 0.0;

  // Entry indices in consumption order, each a memo (logical const: a pure
  // function of the immutable plan) built as far as sessions read it.
  // biggest_b_ is the descending (importance, index) order, sorted through
  // biggest_b_sorted_ (see BiggestBPrefix); it is allocated by its first
  // extension and never resized after. round_robin_ is the per-query
  // |coefficient|-descending round-robin with duplicate entries collapsed
  // onto their first appearance; key_order_ is the identity (master lists
  // are ascending by key).
  mutable std::mutex biggest_b_mu_;
  mutable std::atomic<size_t> biggest_b_sorted_{0};
  mutable std::vector<size_t> biggest_b_;
  mutable std::once_flag key_order_once_;
  mutable std::vector<size_t> key_order_;
  mutable std::once_flag round_robin_once_;
  mutable std::vector<size_t> round_robin_;
  // Theorem 1's unread max along key order and round-robin: memos of the
  // same kind, built by the first bound a session of that order reports.
  mutable UnreadMaxMemo key_order_max_;
  mutable UnreadMaxMemo round_robin_max_;

  // RandomPermutation memo (logical const: a cache of a pure function of
  // the immutable plan).
  mutable std::mutex random_mu_;
  mutable bool random_cached_ = false;
  mutable uint64_t random_seed_ = 0;
  mutable std::vector<size_t> random_perm_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_EVAL_PLAN_H_
