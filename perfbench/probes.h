#ifndef WAVEBATCH_PERFBENCH_PROBES_H_
#define WAVEBATCH_PERFBENCH_PROBES_H_

// The traced run's instruments, all outside the library: forwarding
// decorators that time calls into the storage and strategy layers, the
// span names the benchmark records itself, and the reduction of the span
// buffer into per-layer metrics.

#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"
#include "storage/coefficient_store.h"
#include "strategy/linear_strategy.h"

namespace wavebatch::perfbench {

// Spans the benchmark records through MetricsRegistry::RecordSpan (names
// need static storage).
inline constexpr const char* kWindowSpan = "perfbench_window";
inline constexpr const char* kOpSpan = "perfbench_op";
inline constexpr const char* kFetchBatchSpan = "perfbench_fetch_batch";
inline constexpr const char* kKScanSpan = "perfbench_k_scan";
inline constexpr const char* kTransformQuerySpan = "perfbench_transform_query";

/// Forwarding store that records a span around every backend batch
/// (DoFetchBatch, the keys that reach the view) and every SumAbs (the K
/// scan QueryService runs once per new session group). name(), router(),
/// Lossy() and PeekErrorBound() forward unchanged; PinVersion re-wraps the
/// pinned inner snapshot the way FaultInjectionStore does, so sessions over
/// a versioned plane stay both pinned and probed. Read-only.
class ProbeStore : public CoefficientStore {
 public:
  explicit ProbeStore(std::shared_ptr<const CoefficientStore> inner)
      : inner_(std::move(inner)) {}

  double Peek(uint64_t key) const override { return inner_->Peek(key); }
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override { return inner_->NumNonZero(); }
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override {
    inner_->ForEachNonZero(fn);
  }
  std::string name() const override { return inner_->name(); }
  const KeyRouter* router() const override { return inner_->router(); }
  double PeekErrorBound(uint64_t key) const override {
    return inner_->PeekErrorBound(key);
  }
  bool Lossy() const override { return inner_->Lossy(); }
  std::shared_ptr<const CoefficientStore> PinVersion() const override;

 protected:
  Result<double> DoFetch(uint64_t key, IoStats* io) const override {
    return DelegateFetch(*inner_, key, io);
  }
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;
  Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards,
                            std::span<double> out, IoStats* io) const override;

 private:
  std::shared_ptr<const CoefficientStore> inner_;
};

/// Forwarding strategy that records a span per TransformQuery carrying the
/// call's thread CPU time (MasterList::Build fans the rewrites out over the
/// shared pool, so wall time would count pool waits). Keeps the inner
/// name(): plan-cache and group keys include it.
class ProbeStrategy : public LinearStrategy {
 public:
  explicit ProbeStrategy(std::shared_ptr<const LinearStrategy> inner)
      : LinearStrategy(inner->schema()), inner_(std::move(inner)) {}

  Result<SparseVec> TransformQuery(const RangeSumQuery& query) const override;
  std::unique_ptr<CoefficientStore> BuildStore(
      const DenseCube& delta) const override {
    return inner_->BuildStore(delta);
  }
  Result<SparseVec> TransformUpdate(const Tuple& tuple,
                                    double count) const override {
    return inner_->TransformUpdate(tuple, count);
  }
  std::string name() const override { return inner_->name(); }

 protected:
  /// The inner strategy's empty store, reached through its public
  /// streaming build over an empty relation.
  std::unique_ptr<CoefficientStore> MakeEmptyStore() const override {
    return inner_->BuildStoreFromRelation(Relation(schema()));
  }

 private:
  std::shared_ptr<const LinearStrategy> inner_;
};

/// What a workload knows about its traced pass beyond the span buffer.
struct TracedPassFacts {
  uint64_t ops = 0;
  double untraced_latency_p50_ms = 0.0;
  double untraced_latency_p90_ms = 0.0;
  double traced_latency_p50_ms = 0.0;
  double view_build_s = 0.0;
  uint64_t master_entries = 0;
  uint64_t plan_cache_hits = 0;  // in the window (warm-up excluded)
  uint64_t plan_cache_misses = 0;
  uint64_t shared_hits = 0;  // QueryService::shared_hits()
  uint64_t shared_misses = 0;
};

/// Reduces the registry's span buffer (the traced pass alone: the
/// untraced pass runs with the registry disabled) into the per-layer
/// metrics: BENCHMARK.json's per_layer list, in its order. Spans are
/// counted inside the kWindowSpan interval, except plan builds and query
/// rewrites, which are taken over the whole pass so warm-up builds are
/// measured too.
std::vector<Metric> LayerMetrics(const TracedPassFacts& facts);

/// Writes the registry's spans as a Chrome trace to `dir`/`name`.trace.json
/// (no-op when `dir` is empty). Returns false on an I/O error.
bool WriteChromeTrace(const std::string& dir, const std::string& name);

/// Turns the registry on with a span buffer large enough for a whole
/// traced pass (dropped spans are reported, and fail the run).
void EnableTracing();

}  // namespace wavebatch::perfbench

#endif  // WAVEBATCH_PERFBENCH_PROBES_H_
