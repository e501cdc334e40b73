#ifndef WAVEBATCH_ENGINE_EVAL_SESSION_H_
#define WAVEBATCH_ENGINE_EVAL_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/apply_kernel.h"
#include "engine/eval_plan.h"
#include "storage/coefficient_store.h"
#include "util/status.h"

namespace wavebatch {

/// Wraps a store the caller owns (and guarantees outlives the session) in a
/// non-owning shared_ptr, for stack-allocated stores in tests and tools.
/// Heap-built stores (LinearStrategy::BuildStore) convert to an owning
/// shared_ptr directly — prefer that.
std::shared_ptr<const CoefficientStore> UnownedStore(
    const CoefficientStore& store);

/// What a session does when a counted fetch reports a non-OK Status.
enum class FaultPolicy {
  /// Propagate the Status to the caller and leave the session exactly as it
  /// was before the call: cursor, estimates, trackers, and I/O counters
  /// untouched. The caller may retry the same call (the session is
  /// resumable) or abandon the run with valid progressive bounds.
  kFail,
  /// Degraded mode: consume the failing coefficient *without its data* —
  /// the cursor advances, estimates are computed as if the coefficient were
  /// zero, and its importance moves to SkippedImportance(), which widens
  /// WorstCaseBound() additively (the skipped coefficient could still be
  /// anything, so Theorem 1's K^α·ι_p cap applies to it forever) and stays
  /// in ExpectedPenalty()'s remaining mass (it is an unused coefficient in
  /// Theorem 2's sense). A failed fetch falls back to refetching its keys
  /// one by one — for Step() too, which refetches its one key once — so
  /// only genuinely unavailable keys are skipped.
  kSkip,
};

/// The mutable half of a progressive batch evaluation: a cheap cursor over
/// an EvalPlan. One session = one progressive run — estimates, bound
/// trackers, step cursor, and its own I/O accounting. Sessions share
/// nothing mutable, so any number may run concurrently over one plan and
/// one store (store reads are const and thread-safe; see
/// CoefficientStore).
///
/// Every evaluation mode of the library is a session configuration:
///   exact shared       — {kKeyOrder} + RunToExact()
///   progressive        — {kBiggestB} + Step()/StepBatch() to taste
///   ablation orders    — {kRoundRobin / kRandom / kKeyOrder}
///   block-granularity  — Options::block_size set + StepBlock()
///   bounded workspace  — engine/bounded.h groups queries into sessions
/// Their estimates, bounds, and I/O counts are pinned bit for bit by the
/// frozen fixture in tests/golden/.
struct EvalSessionOptions {
  ProgressionOrder order = ProgressionOrder::kBiggestB;
  /// Only read under kRandom.
  uint64_t seed = 0;
  /// Coefficients per block, BlockStore's layout: when nonzero the session
  /// progresses at block granularity, entries are grouped into blocks by
  /// key / block_size, a block's importance is the sum of its members',
  /// and each StepBlock steps one whole block as one fetch. `order` is then
  /// ignored (blocks always go by decreasing total importance). 0 =
  /// coefficient granularity.
  uint64_t block_size = 0;
  /// Fetch-failure handling; see FaultPolicy.
  FaultPolicy fault_policy = FaultPolicy::kFail;
};

class EvalSession {
 public:
  using Options = EvalSessionOptions;

  /// The session keeps `plan` and `store` alive; it may safely outlive the
  /// scope that created it. If `store` versions its contents (see
  /// CoefficientStore::PinVersion), the session pins the current epoch's
  /// snapshot here and reads it for its whole lifetime.
  EvalSession(std::shared_ptr<const EvalPlan> plan,
              std::shared_ptr<const CoefficientStore> store,
              Options options = Options());
  /// Movable, not copyable: permutation_ may view owned_permutation_.
  EvalSession(EvalSession&&) noexcept = default;
  EvalSession& operator=(EvalSession&&) noexcept = default;

  const EvalPlan& plan() const { return *plan_; }
  /// The store this session actually reads: the one passed in, or — when
  /// that store versions its contents (VersionedStore) — the immutable
  /// epoch snapshot pinned at construction.
  const CoefficientStore& store() const { return *store_; }
  const Options& options() const { return options_; }
  size_t num_queries() const { return plan_->num_queries(); }
  /// Total steps to exactness (= master list size).
  size_t TotalSteps() const { return plan_->size(); }
  uint64_t StepsTaken() const { return steps_taken_; }
  bool Done() const;

  /// One retrieval — the one-entry StepBatch, untimed like every one-key
  /// read; requires !Done() and coefficient granularity. Returns the
  /// master-list entry index consumed. A non-OK Status (under kFail) leaves
  /// the session unchanged — call Step() again to retry.
  Result<size_t> Step();

  /// Up to `n` further retrievals issued as ONE FetchBatch; estimates,
  /// trackers, and counts identical to `n` Step() calls under either fault
  /// policy. Returns the number of steps taken. A non-OK Status (under
  /// kFail) leaves the session unchanged — the whole batch is retryable.
  Result<size_t> StepBatch(size_t n);

  /// Runs to completion (in bounded StepBatch chunks at coefficient
  /// granularity; block by block at block granularity). Estimates are
  /// exact afterwards (under kSkip: exact up to skipped coefficients).
  /// On a non-OK Status the session stays resumable — a later
  /// RunToExact() picks up where this one stopped.
  Status RunToExact();

  /// Block granularity only: steps the most important unfetched block as
  /// one FetchBatch, returns the number of steps it took (its entry count).
  /// Requires !Done(). A non-OK Status (under kFail) leaves the session
  /// unchanged.
  Result<size_t> StepBlock();
  /// Fetches blocks until `n` blocks have been consumed in total.
  Status StepToBlocks(uint64_t n);
  size_t TotalBlocks() const { return block_ends_.size(); }
  uint64_t BlocksFetched() const { return blocks_fetched_; }
  /// StepsTaken() − SkippedCoefficients(): steps that retrieved data.
  uint64_t CoefficientsFetched() const {
    return steps_taken_ - skipped_coefficients_;
  }
  /// Total importance of the next block (0 when done).
  double NextBlockImportance() const;

  /// Current progressive estimates (exact once Done()).
  const std::vector<double>& Estimates() const { return estimates_; }

  /// ι_p of the coefficient the next Step() retrieves (0 when done).
  /// Requires a plan with importances.
  double NextImportance() const;

  /// Theorem 1's worst-case penalty bound K^α·max ι_p(ξ′) over the unread
  /// coefficients ξ′, for the current approximation; `k_sum_abs` is the
  /// store's SumAbs. Sound in every order and sharp under kBiggestB, where
  /// the max is the next entry's ι_p (NextImportance); other orders read it
  /// from a suffix max along their permutation (EvalPlan::
  /// UnreadMaxImportance), and block granularity uses the next block's
  /// total, which bounds every unread member. Under kSkip the bound widens
  /// by K^α·Σ ι_p over skipped coefficients: each one is still worth at most
  /// K in absolute value, and unlike the not-yet-fetched tail it never stops
  /// being unknown.
  double WorstCaseBound(double k_sum_abs) const;

  /// Theorem 2's expected penalty Σ_{unused ξ} ι_p(ξ) / `domain_cells`.
  /// Skipped coefficients count as unused.
  double ExpectedPenalty(uint64_t domain_cells) const;

  /// Coefficients consumed without data under FaultPolicy::kSkip.
  uint64_t SkippedCoefficients() const { return skipped_coefficients_; }
  /// Σ ι_p over skipped coefficients (0 unless kSkip absorbed a fault).
  double SkippedImportance() const { return skipped_importance_; }

  /// I/O charged by this session's fetches alone — per-session accounting;
  /// the shared store keeps no counters. Failed fetches charge nothing.
  const IoStats& io() const { return io_; }

 private:
  /// The one step body behind Step, StepBatch and StepBlock: steps the
  /// next `n` entries of permutation_ as one FetchBatch (see StepBatch).
  Status StepEntries(size_t n);

  /// Theorem 1's max ι_p over the entries not yet consumed (0 when done);
  /// see WorstCaseBound.
  double UnreadMaxImportance() const;

  std::shared_ptr<const EvalPlan> plan_;
  std::shared_ptr<const CoefficientStore> store_;
  Options options_;

  // Fused gather-apply kernel over the plan's CSR image (raw pointers into
  // plan-owned arrays, valid while plan_ is held) plus reusable fetch
  // scratch: steps allocate only up to the high-water batch size, then
  // recycle.
  ApplyKernel kernel_;
  std::vector<uint64_t> batch_keys_;
  std::vector<double> batch_values_;

  // Consumption order: a view into the plan's permutation, or one this
  // session owns — the seeded kRandom order, or at block granularity the
  // block-major order (blocks by descending importance, each block's
  // entries contiguous and ascending). Under kBiggestB the view is sorted
  // only through the plan's prefix, which every step extends past the
  // entries it reads (extends_order_), so that permutation_[steps_taken_]
  // is always sorted.
  std::vector<size_t> owned_permutation_;
  std::span<const size_t> permutation_;
  bool extends_order_ = false;
  // kRandom with importances: the suffix max of ι_p along the session's own
  // permutation, built with it (EvalPlan::SuffixMaxImportance).
  std::vector<double> owned_unread_max_;

  // Block granularity: block b of the consumption order ends at
  // permutation_ offset block_ends_[b] and weighs block_importance_[b].
  std::vector<size_t> block_ends_;
  std::vector<double> block_importance_;
  uint64_t blocks_fetched_ = 0;

  std::vector<double> estimates_;
  uint64_t steps_taken_ = 0;
  double remaining_importance_ = 0.0;
  uint64_t skipped_coefficients_ = 0;
  double skipped_importance_ = 0.0;

  IoStats io_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_EVAL_SESSION_H_
