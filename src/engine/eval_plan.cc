#include "engine/eval_plan.h"

#include <algorithm>
#include <cmath>
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
  ThreadPool* pool = parallelism == BuildParallelism::kParallel
                         ? &ThreadPool::Shared()
                         : nullptr;
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
    ForRange(pool, n, /*grain=*/256, [&](size_t begin, size_t end) {
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

  // kKeyOrder: master lists are ascending by key, so identity.
  key_order_.resize(n);
  for (size_t i = 0; i < n; ++i) key_order_[i] = i;

  // kBiggestB: a max-heap of (importance, index) pairs pops them in
  // descending pair order — all pairs are distinct (indices are unique), so
  // the pop sequence IS the descending sort, ties on importance breaking
  // toward the larger index. Distinct pairs = strict total order, which is
  // what lets ParallelSort promise the serially-sorted result.
  if (penalty_ != nullptr) {
    biggest_b_ = key_order_;
    ParallelSort(biggest_b_.begin(), n,
                 [this](size_t a, size_t b) {
                   return std::make_pair(importance_[a], a) >
                          std::make_pair(importance_[b], b);
                 },
                 pool);
  }
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
  ThreadPool* pool = parallelism_ == BuildParallelism::kParallel
                         ? &ThreadPool::Shared()
                         : nullptr;
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
  ForRange(pool, per_query.size(), /*grain=*/8,
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
      WB_CHECK(penalty_ != nullptr)
          << "kBiggestB needs a penalty (plan was built without one)";
      return biggest_b_;
    case ProgressionOrder::kRoundRobin:
      std::call_once(round_robin_once_, [this] { BuildRoundRobin(); });
      return round_robin_;
    case ProgressionOrder::kKeyOrder:
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
    random_perm_ = key_order_;
    Rng rng(seed);
    rng.Shuffle(random_perm_);
    random_seed_ = seed;
    random_cached_ = true;
  }
  return random_perm_;
}

}  // namespace wavebatch
