#include "engine/eval_session.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch {

std::shared_ptr<const CoefficientStore> UnownedStore(
    const CoefficientStore& store) {
  return std::shared_ptr<const CoefficientStore>(
      &store, [](const CoefficientStore*) {});
}

EvalSession::EvalSession(std::shared_ptr<const EvalPlan> plan,
                         std::shared_ptr<const CoefficientStore> store,
                         Options options)
    : plan_(std::move(plan)),
      store_(std::move(store)),
      options_(std::move(options)) {
  WB_CHECK(plan_ != nullptr);
  WB_CHECK(store_ != nullptr);
  // Epoch pinning: a store whose contents advance in epochs
  // (VersionedStore) hands back an immutable snapshot of the epoch current
  // *now*; every read this session ever issues — including retries and
  // resume-after-fault, which may happen long after — goes to that one
  // version, so interleaved ingests and merges can never tear a
  // progressive run. Stores that are their own snapshot return null and
  // are used directly.
  if (std::shared_ptr<const CoefficientStore> pinned = store_->PinVersion()) {
    store_ = std::move(pinned);
  }
  kernel_ = plan_->kernel();
  estimates_.assign(plan_->num_queries(), 0.0);
  if (plan_->HasImportance()) {
    remaining_importance_ = plan_->total_importance();
  }

  if (options_.block_size != 0) {
    // The master list ascends by key, so each block is one contiguous run
    // of entries, found in one scan. A block's importance is the sum of its
    // members' (additive in Theorem 2's expected-penalty sum), accumulated
    // in entry order.
    WB_CHECK(plan_->HasImportance())
        << "block granularity needs a penalty to rank blocks";
    const MasterList& list = plan_->list();
    std::vector<size_t> starts;      // per block, ascending: first entry
    std::vector<double> importance;  // per block
    for (size_t i = 0; i < list.size(); ++i) {
      const uint64_t block = list.keys()[i] / options_.block_size;
      if (i == 0 || block != list.keys()[i - 1] / options_.block_size) {
        starts.push_back(i);
        importance.push_back(0.0);
      }
      importance.back() += plan_->importance(i);
    }
    starts.push_back(list.size());
    // A max-heap of (importance, index) pops in descending pair order;
    // sorting the distinct pairs descending reproduces that sequence.
    std::vector<size_t> order(importance.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&importance](size_t a, size_t b) {
      return std::make_pair(importance[a], a) >
             std::make_pair(importance[b], b);
    });
    // Lay the blocks out in that order, each block's entries contiguous and
    // ascending.
    owned_permutation_.reserve(list.size());
    for (size_t b : order) {
      for (size_t i = starts[b]; i < starts[b + 1]; ++i) {
        owned_permutation_.push_back(i);
      }
      block_ends_.push_back(owned_permutation_.size());
      block_importance_.push_back(importance[b]);
    }
    permutation_ = owned_permutation_;
  } else if (options_.order == ProgressionOrder::kRandom) {
    owned_permutation_ = plan_->RandomPermutation(options_.seed);
    permutation_ = owned_permutation_;
    if (plan_->HasImportance()) {
      owned_unread_max_ = plan_->SuffixMaxImportance(permutation_);
    }
  } else if (options_.order == ProgressionOrder::kBiggestB) {
    // Biggest-B sorts only as far as the session steps (StepEntries).
    extends_order_ = true;
    permutation_ = plan_->BiggestBPrefix(1);
  } else {
    permutation_ = plan_->Permutation(options_.order);
  }
}

bool EvalSession::Done() const { return steps_taken_ == TotalSteps(); }

Result<size_t> EvalSession::Step() {
  WB_CHECK(options_.block_size == 0)
      << "Step() on a block-granularity session";
  WB_CHECK(!Done()) << "Step() after completion";
  const size_t entry_idx = permutation_[steps_taken_];
  Status status = StepEntries(1);
  if (!status.ok()) return status;
  return entry_idx;
}

Result<size_t> EvalSession::StepBatch(size_t n) {
  WB_CHECK(options_.block_size == 0)
      << "StepBatch() on a block-granularity session";
  n = std::min<size_t>(n, TotalSteps() - StepsTaken());
  Status status = StepEntries(n);
  if (!status.ok()) return status;
  return n;
}

Status EvalSession::StepEntries(size_t n) {
  if (n == 0) return Status::OK();
  // A one-entry step is not timed, by the same rule as a one-key read
  // (CoefficientStore::CountedBatch): Step() stays clock-free.
  std::optional<telemetry::ScopedSpan> span;
  if (n != 1) span.emplace("session_step");
  // Sort this step's entries and the next one, which NextImportance and
  // Theorem 1's bound read after the step, before reading any of them.
  if (extends_order_) plan_->BiggestBPrefix(steps_taken_ + n + 1);
  const size_t* order = permutation_.data() + steps_taken_;
  batch_keys_.resize(n);
  kernel_.GatherKeys(order, n, batch_keys_.data());
  batch_values_.resize(n);
  // Fetch BEFORE any bookkeeping: a failed fetch must leave the session
  // exactly as it was (resumable), so the cursor and trackers only move
  // once the data is in hand (or the fault is absorbed under kSkip).
  Status status = store_->FetchBatch(batch_keys_, batch_values_, &io_);
  if (!status.ok()) {
    if (options_.fault_policy == FaultPolicy::kFail) return status;
    // Degraded fallback: the all-or-nothing batch failed, so refetch key by
    // key and skip only the ones that are genuinely unavailable. Retrieval
    // accounting matches: the failed batch charged nothing, each one-key
    // success charges one.
    for (size_t i = 0; i < n; ++i) {
      const size_t entry_idx = order[i];
      Result<double> value = store_->Fetch(batch_keys_[i], &io_);
      ++steps_taken_;
      if (!value.ok()) {
        // Consumed without data: the skipped mass stays in
        // remaining_importance_ (still an unused coefficient for Theorem
        // 2) and also accumulates here, widening Theorem 1's bound.
        ++skipped_coefficients_;
        if (plan_->HasImportance()) {
          skipped_importance_ += plan_->importance(entry_idx);
        }
        continue;
      }
      kernel_.ApplyOrderedSlice(&entry_idx, 1, &*value, estimates_.data(),
                                &remaining_importance_);
    }
    return Status::OK();
  }
  steps_taken_ += n;
  // Fused apply in consumption order: the identical floating-point
  // accumulation sequence n one-entry steps would produce.
  kernel_.ApplyOrderedSlice(order, n, batch_values_.data(), estimates_.data(),
                            &remaining_importance_);
  return Status::OK();
}

Status EvalSession::RunToExact() {
  if (options_.block_size != 0) {
    while (!Done()) {
      Result<size_t> block = StepBlock();
      if (!block.ok()) return block.status();
    }
    return Status::OK();
  }
  // Chunked so the fetch scratch stays bounded on large plans.
  constexpr size_t kRunChunk = 4096;
  while (!Done()) {
    Result<size_t> batch = StepBatch(kRunChunk);
    if (!batch.ok()) return batch.status();
  }
  return Status::OK();
}

Result<size_t> EvalSession::StepBlock() {
  WB_CHECK(options_.block_size != 0)
      << "StepBlock() on a coefficient session";
  WB_CHECK(!Done()) << "StepBlock() after completion";
  // One batched fetch per block — on a BlockStore backend this touches the
  // underlying block exactly once, matching the simulated cost model.
  const size_t n = block_ends_[blocks_fetched_] - steps_taken_;
  Status status = StepEntries(n);
  if (!status.ok()) return status;
  ++blocks_fetched_;
  return n;
}

Status EvalSession::StepToBlocks(uint64_t n) {
  while (!Done() && blocks_fetched_ < n) {
    Result<size_t> block = StepBlock();
    if (!block.ok()) return block.status();
  }
  return Status::OK();
}

double EvalSession::NextBlockImportance() const {
  return Done() ? 0.0 : block_importance_[blocks_fetched_];
}

double EvalSession::NextImportance() const {
  WB_CHECK(plan_->HasImportance());
  if (Done()) return 0.0;
  if (options_.block_size != 0) return NextBlockImportance();
  return plan_->importance(permutation_[steps_taken_]);
}

double EvalSession::UnreadMaxImportance() const {
  if (Done()) return 0.0;
  // Biggest-B reads in descending ι_p, and blocks go by descending total ι_p
  // (a block's total bounds each member's), so there the next unit is the
  // unread max. Other orders read it from a suffix max along their
  // permutation.
  if (options_.block_size != 0 ||
      options_.order == ProgressionOrder::kBiggestB) {
    return NextImportance();
  }
  if (options_.order == ProgressionOrder::kRandom) {
    return owned_unread_max_[steps_taken_];
  }
  return plan_->UnreadMaxImportance(options_.order)[steps_taken_];
}

double EvalSession::WorstCaseBound(double k_sum_abs) const {
  WB_CHECK(plan_->HasImportance());
  // Theorem 1: the error is a combination of the unread coefficients' query
  // columns with total weight at most K = Σ|Δ̂|, so its penalty is at most
  // K^α times the largest unread ι_p. Degraded runs widen the bound by the
  // skipped mass: a coefficient we could not read is bounded by K in
  // magnitude exactly like one we have not read yet, but it never leaves
  // the unknown set.
  const double alpha = plan_->penalty()->HomogeneityDegree();
  return std::pow(k_sum_abs, alpha) *
         (UnreadMaxImportance() + skipped_importance_);
}

double EvalSession::ExpectedPenalty(uint64_t domain_cells) const {
  WB_CHECK_GT(domain_cells, 0u);
  // remaining_importance_ is clamped at subtraction time; the max here is
  // belt and braces for older serialized sessions.
  const double remaining = std::max(remaining_importance_, 0.0);
  return remaining / static_cast<double>(domain_cells);
}

}  // namespace wavebatch
