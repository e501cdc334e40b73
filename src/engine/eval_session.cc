#include "engine/eval_session.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "storage/key_router.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch {

std::shared_ptr<const CoefficientStore> UnownedStore(
    const CoefficientStore& store) {
  return std::shared_ptr<const CoefficientStore>(
      &store, [](const CoefficientStore*) {});
}

struct EvalSession::Telemetry {
  telemetry::Labels labels;
  telemetry::Gauge* steps_taken;
  telemetry::Gauge* remaining_importance;
  telemetry::Gauge* worst_case_bound;
  telemetry::Gauge* skipped_importance;

  explicit Telemetry(uint64_t session_id)
      : labels{{"session", std::to_string(session_id)}} {
    auto& registry = telemetry::MetricsRegistry::Default();
    steps_taken = registry.GetGauge(
        "wavebatch_session_steps_taken", labels,
        "Coefficients consumed by this session so far.");
    remaining_importance = registry.GetGauge(
        "wavebatch_session_remaining_importance", labels,
        "Importance mass of the not-yet-fetched tail (Theorem 2's sum).");
    worst_case_bound = registry.GetGauge(
        "wavebatch_session_worst_case_bound", labels,
        "Theorem 1 worst-case penalty bound at the last WorstCaseBound().");
    skipped_importance = registry.GetGauge(
        "wavebatch_session_skipped_importance", labels,
        "Importance mass consumed without data under FaultPolicy::kSkip.");
  }

  // The session is the sole creator of these series, so it may Remove()
  // them: a finished session leaves no stale gauges in the export.
  ~Telemetry() {
    auto& registry = telemetry::MetricsRegistry::Default();
    registry.Remove("wavebatch_session_steps_taken", labels);
    registry.Remove("wavebatch_session_remaining_importance", labels);
    registry.Remove("wavebatch_session_worst_case_bound", labels);
    registry.Remove("wavebatch_session_skipped_importance", labels);
  }
};

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
  // Lossy-store gate: checked on the PINNED store (the view this session
  // actually reads). Exact stores keep the zero-overhead path.
  lossy_ = store_->Lossy();
  if (plan_->HasImportance()) {
    inv_alpha_ = 1.0 / plan_->penalty()->HomogeneityDegree();
  }
  if (const KeyRouter* router = store_->router();
      router != nullptr && router->num_shards() > 1) {
    entry_shards_.resize(plan_->size());
    for (size_t i = 0; i < entry_shards_.size(); ++i) {
      entry_shards_[i] = router->ShardOf(kernel_.keys[i]);
    }
  }
  if (telemetry::Enabled()) {
    static std::atomic<uint64_t> next_session_id{1};
    telemetry_ = std::make_unique<Telemetry>(
        next_session_id.fetch_add(1, std::memory_order_relaxed));
  }
  estimates_.assign(plan_->num_queries(), 0.0);
  if (plan_->HasImportance()) {
    remaining_importance_ = plan_->total_importance();
  }

  if (options_.block_of) {
    // Group entries by block in first-appearance order; a block's
    // importance is the sum of its members' (additive in Theorem 2's
    // expected-penalty sum), accumulated in entry order.
    WB_CHECK(plan_->HasImportance())
        << "block granularity needs a penalty to rank blocks";
    const MasterList& list = plan_->list();
    std::unordered_map<uint64_t, size_t> block_index;
    std::vector<size_t> block_of_entry(list.size());
    std::vector<double> importance;  // per block, first-appearance order
    std::vector<size_t> starts;      // per block: its size, then its start
    for (size_t i = 0; i < list.size(); ++i) {
      auto [it, inserted] = block_index.try_emplace(
          options_.block_of(list.keys()[i]), importance.size());
      if (inserted) {
        importance.push_back(0.0);
        starts.push_back(0);
      }
      block_of_entry[i] = it->second;
      importance[it->second] += plan_->importance(i);
      ++starts[it->second];
    }
    // A max-heap of (importance, index) pops in descending pair order;
    // sorting the distinct pairs descending reproduces that sequence.
    std::vector<size_t> order(importance.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&importance](size_t a, size_t b) {
      return std::make_pair(importance[a], a) >
             std::make_pair(importance[b], b);
    });
    // Lay the blocks out in that order, each block's entries contiguous and
    // ascending (a counting sort by block rank).
    size_t end = 0;
    for (size_t b : order) {
      const size_t size = starts[b];
      starts[b] = end;
      end += size;
      block_ends_.push_back(end);
      block_importance_.push_back(importance[b]);
    }
    owned_permutation_.resize(list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      owned_permutation_[starts[block_of_entry[i]]++] = i;
    }
    permutation_ = owned_permutation_;
  } else if (options_.order == ProgressionOrder::kRandom) {
    owned_permutation_ = plan_->RandomPermutation(options_.seed);
    permutation_ = owned_permutation_;
  } else {
    permutation_ = plan_->Permutation(options_.order);
  }
  UpdateTelemetry();
}

EvalSession::~EvalSession() = default;
EvalSession::EvalSession(EvalSession&&) noexcept = default;
EvalSession& EvalSession::operator=(EvalSession&&) noexcept = default;

void EvalSession::UpdateTelemetry() {
  if (telemetry_ == nullptr || !telemetry::Enabled()) return;
  telemetry_->steps_taken->Set(static_cast<double>(steps_taken_));
  telemetry_->remaining_importance->Set(remaining_importance_);
  telemetry_->skipped_importance->Set(skipped_importance_);
}

bool EvalSession::Done() const { return steps_taken_ == TotalSteps(); }

void EvalSession::AccumulateQuantError(const size_t* order, size_t n) {
  if (!lossy_ || !plan_->HasImportance()) return;
  // Each retrieved coefficient may be off by up to the store's per-key
  // decode bound ε_ξ; in the penalty's α-norm geometry that adds
  // ε_ξ · ι_p(ξ)^(1/α) to the error mass (see WorstCaseBound). Skipped
  // entries are excluded — their widening goes through skipped_importance_.
  for (size_t i = 0; i < n; ++i) {
    const size_t entry_idx = order[i];
    const double err = store_->PeekErrorBound(kernel_.keys[entry_idx]);
    if (err > 0.0) {
      quant_error_l1_ +=
          err * std::pow(plan_->importance(entry_idx), inv_alpha_);
    }
  }
}

Result<size_t> EvalSession::Step() {
  WB_CHECK(!options_.block_of) << "Step() on a block-granularity session";
  WB_CHECK(!Done()) << "Step() after completion";
  const size_t entry_idx = permutation_[steps_taken_];
  Status status = StepEntries(1);
  if (!status.ok()) return status;
  return entry_idx;
}

Result<size_t> EvalSession::StepBatch(size_t n) {
  WB_CHECK(!options_.block_of) << "StepBatch() on a block-granularity session";
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
  const size_t* order = permutation_.data() + steps_taken_;
  batch_keys_.resize(n);
  kernel_.GatherKeys(order, n, batch_keys_.data());
  batch_values_.resize(n);
  if (!entry_shards_.empty()) {
    batch_shards_.resize(n);
    kernel_.GatherShards(order, n, entry_shards_.data(), batch_shards_.data());
  }
  // Fetch BEFORE any bookkeeping: a failed fetch must leave the session
  // exactly as it was (resumable), so the cursor and trackers only move
  // once the data is in hand (or the fault is absorbed under kSkip).
  Status status =
      entry_shards_.empty()
          ? store_->FetchBatch(batch_keys_, batch_values_, &io_)
          : store_->FetchBatchRouted(batch_keys_, batch_shards_,
                                     batch_values_, &io_);
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
      AccumulateQuantError(&entry_idx, 1);
    }
    UpdateTelemetry();
    return Status::OK();
  }
  steps_taken_ += n;
  // Fused apply in consumption order: the identical floating-point
  // accumulation sequence n one-entry steps would produce.
  kernel_.ApplyOrderedSlice(order, n, batch_values_.data(), estimates_.data(),
                            &remaining_importance_);
  AccumulateQuantError(order, n);
  UpdateTelemetry();
  return Status::OK();
}

Status EvalSession::RunToExact() {
  if (options_.block_of) {
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
  WB_CHECK(options_.block_of) << "StepBlock() on a coefficient session";
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
  if (options_.block_of) return NextBlockImportance();
  return plan_->importance(permutation_[steps_taken_]);
}

double EvalSession::WorstCaseBound(double k_sum_abs) const {
  WB_CHECK(plan_->HasImportance());
  // Degraded runs widen the bound by the skipped mass: a coefficient we
  // could not read is bounded by K in magnitude exactly like one we have
  // not read yet, but it never leaves the unknown set.
  const double alpha = plan_->penalty()->HomogeneityDegree();
  double bound =
      std::pow(k_sum_abs, alpha) * (NextImportance() + skipped_importance_);
  if (quant_error_l1_ > 0.0) {
    // Lossy reads: the already-applied coefficients carry decode error too.
    // Combine in the penalty's α-norm geometry — the 1/α-th roots of the
    // per-source worst cases add (triangle inequality), then raise back:
    //   bound = (tail^(1/α) + Σ ε_ξ·ι_p(ξ)^(1/α))^α.
    // For α = 1 this is exactly tail + Σ ε·ι. Guarded so exact stores
    // return the plain Theorem-1 expression bit for bit.
    bound = std::pow(std::pow(bound, inv_alpha_) + quant_error_l1_, alpha);
  }
  if (telemetry_ != nullptr && telemetry::Enabled()) {
    telemetry_->worst_case_bound->Set(bound);
  }
  return bound;
}

double EvalSession::ExpectedPenalty(uint64_t domain_cells) const {
  WB_CHECK_GT(domain_cells, 0u);
  // remaining_importance_ is clamped at subtraction time; the max here is
  // belt and braces for older serialized sessions.
  const double remaining = std::max(remaining_importance_, 0.0);
  return remaining / static_cast<double>(domain_cells);
}

}  // namespace wavebatch
