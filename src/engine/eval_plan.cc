#include "engine/eval_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"
#include "util/parallel_sort.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wavebatch {

Result<std::shared_ptr<const EvalPlan>> EvalPlan::Build(
    const QueryBatch& batch, const LinearStrategy& strategy,
    std::shared_ptr<const PenaltyFunction> penalty,
    BuildParallelism parallelism) {
  telemetry::ScopedSpan span("plan_build");
  Result<MasterList> list = MasterList::Build(batch, strategy, parallelism);
  if (!list.ok()) return list.status();
  return FromMasterList(
      std::make_shared<const MasterList>(std::move(list).value()),
      std::move(penalty), parallelism);
}

std::shared_ptr<const EvalPlan> EvalPlan::FromMasterList(
    std::shared_ptr<const MasterList> list,
    std::shared_ptr<const PenaltyFunction> penalty,
    BuildParallelism parallelism) {
  WB_CHECK(list != nullptr);
  return std::shared_ptr<const EvalPlan>(
      new EvalPlan(std::move(list), std::move(penalty), parallelism));
}

EvalPlan::EvalPlan(std::shared_ptr<const MasterList> list,
                   std::shared_ptr<const PenaltyFunction> penalty,
                   BuildParallelism parallelism)
    : list_(std::move(list)),
      penalty_(std::move(penalty)),
      parallelism_(parallelism) {
  const size_t n = list_->size();
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  const std::vector<uint32_t>& uses_query = list_->uses_query();
  const std::vector<double>& uses_coeff = list_->uses_coeff();

  // Importances: the penalty applied to the column of query coefficients at
  // each entry. Entries are independent (PenaltyFunction::Apply is a pure
  // const read), so they fan out in fixed chunks, each chunk scribbling in
  // its own column buffer — every importance_[i] is the same value the
  // serial loop computes. The total is then summed serially in entry order,
  // so it does not depend on the thread count either.
  if (penalty_ != nullptr) {
    importance_.resize(n);
    ForRange(pool(), n, /*grain=*/256, [&](size_t begin, size_t end) {
      std::vector<double> column(list_->num_queries(), 0.0);
      for (size_t i = begin; i < end; ++i) {
        const uint64_t lo = offsets[i];
        const uint64_t hi = offsets[i + 1];
        for (uint64_t r = lo; r < hi; ++r) column[uses_query[r]] = uses_coeff[r];
        importance_[i] = penalty_->Apply(column);
        for (uint64_t r = lo; r < hi; ++r) column[uses_query[r]] = 0.0;
      }
    });
    for (size_t i = 0; i < n; ++i) total_importance_ += importance_[i];
  }
}

ThreadPool* EvalPlan::pool() const {
  return parallelism_ == BuildParallelism::kParallel ? &ThreadPool::Shared()
                                                     : nullptr;
}

std::span<const size_t> EvalPlan::BiggestBPrefix(size_t count) const {
  WB_CHECK(penalty_ != nullptr)
      << "kBiggestB needs a penalty (plan was built without one)";
  const size_t n = size();
  // At least one entry, so that even a no-op request allocates the order.
  count = std::min(std::max<size_t>(count, 1), n);
  if (biggest_b_sorted_.load(std::memory_order_acquire) >= count) {
    return biggest_b_;
  }
  std::lock_guard<std::mutex> lock(biggest_b_mu_);
  const size_t sorted = biggest_b_sorted_.load(std::memory_order_relaxed);
  if (sorted >= count) return biggest_b_;
  telemetry::ScopedSpan span("plan_order_extend");
  if (biggest_b_.empty()) {
    biggest_b_.resize(n);
    std::iota(biggest_b_.begin(), biggest_b_.end(), size_t{0});
  }
  // Descending (importance, index): a max-heap of these pairs pops them in
  // this order. The pairs are distinct (indices are unique), so this is a
  // strict total order: the sorted prefix is unique, and ParallelSort
  // promises the serially sorted result.
  auto before = [this](size_t a, size_t b) {
    return std::make_pair(importance_[a], a) >
           std::make_pair(importance_[b], b);
  };
  const size_t target =
      std::min(n, std::max({count, kFirstSortedChunk, 2 * sorted}));
  const auto first = biggest_b_.begin() + static_cast<ptrdiff_t>(sorted);
  const auto mid = biggest_b_.begin() + static_cast<ptrdiff_t>(target);
  // The unsorted tail holds every entry not yet in the prefix; bring its
  // first (target - sorted) to the front, then order them.
  if (target < n) std::nth_element(first, mid, biggest_b_.end(), before);
  ParallelSort(first, target - sorted, before, pool());
  biggest_b_sorted_.store(target, std::memory_order_release);
  return biggest_b_;
}

// kRoundRobin: each query walks its own coefficients in decreasing
// magnitude, one per round; an entry already consumed by an earlier query is
// skipped, i.e. the raw round-robin sequence collapses onto first
// appearances. The per-query sorts are independent and fan out across
// queries; each sort sees the same input sequence whatever the thread count,
// so equal-magnitude ties resolve identically. The collapse is inherently
// sequential and stays serial.
void EvalPlan::BuildRoundRobin() const {
  const size_t n = list_->size();
  const std::vector<uint64_t>& offsets = list_->uses_offsets();
  const std::vector<uint32_t>& uses_query = list_->uses_query();
  const std::vector<double>& uses_coeff = list_->uses_coeff();
  std::vector<std::vector<std::pair<double, size_t>>> per_query(
      list_->num_queries());
  for (size_t i = 0; i < n; ++i) {
    for (uint64_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      per_query[uses_query[r]].emplace_back(std::abs(uses_coeff[r]), i);
    }
  }
  ForRange(pool(), per_query.size(), /*grain=*/8,
           [&](size_t begin, size_t end) {
             for (size_t q = begin; q < end; ++q) {
               std::sort(per_query[q].begin(), per_query[q].end(),
                         [](const auto& a, const auto& b) {
                           return a.first > b.first;
                         });
             }
           });
  std::vector<bool> taken(n, false);
  round_robin_.reserve(n);
  for (size_t round = 0;; ++round) {
    bool any = false;
    for (const auto& v : per_query) {
      if (round >= v.size()) continue;
      any = true;
      const size_t entry = v[round].second;
      if (!taken[entry]) {
        taken[entry] = true;
        round_robin_.push_back(entry);
      }
    }
    if (!any) break;
  }
  WB_CHECK_EQ(round_robin_.size(), n);
}

std::span<const size_t> EvalPlan::Permutation(ProgressionOrder order) const {
  switch (order) {
    case ProgressionOrder::kBiggestB:
      return BiggestBPrefix(size());
    case ProgressionOrder::kRoundRobin:
      std::call_once(round_robin_once_, [this] { BuildRoundRobin(); });
      return round_robin_;
    case ProgressionOrder::kKeyOrder:
      std::call_once(key_order_once_, [this] {
        key_order_.resize(size());
        std::iota(key_order_.begin(), key_order_.end(), size_t{0});
      });
      return key_order_;
    case ProgressionOrder::kRandom:
      break;
  }
  WB_CHECK(false) << "kRandom is seed-dependent: use RandomPermutation(seed)";
  return {};
}

std::vector<double> EvalPlan::SuffixMaxImportance(
    std::span<const size_t> permutation) const {
  WB_CHECK(penalty_ != nullptr);
  std::vector<double> suffix_max(permutation.size());
  double max = 0.0;
  for (size_t j = permutation.size(); j-- > 0;) {
    max = std::max(max, importance_[permutation[j]]);
    suffix_max[j] = max;
  }
  return suffix_max;
}

std::span<const double> EvalPlan::UnreadMaxImportance(
    ProgressionOrder order) const {
  WB_CHECK(order == ProgressionOrder::kKeyOrder ||
           order == ProgressionOrder::kRoundRobin)
      << "kBiggestB's next entry is its unread max; kRandom sessions own "
         "theirs";
  UnreadMaxMemo& memo = order == ProgressionOrder::kKeyOrder
                            ? key_order_max_
                            : round_robin_max_;
  std::call_once(memo.once, [&] {
    memo.values = SuffixMaxImportance(Permutation(order));
  });
  return memo.values;
}

std::vector<size_t> EvalPlan::RandomPermutation(uint64_t seed) const {
  std::lock_guard<std::mutex> lock(random_mu_);
  if (!random_cached_ || random_seed_ != seed) {
    random_perm_.resize(size());
    std::iota(random_perm_.begin(), random_perm_.end(), size_t{0});
    Rng rng(seed);
    rng.Shuffle(random_perm_);
    random_seed_ = seed;
    random_cached_ = true;
  }
  return random_perm_;
}

}  // namespace wavebatch
