#include "probes.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "telemetry/export.h"
#include "telemetry/metrics.h"

namespace wavebatch::perfbench {

namespace {

using telemetry::MetricsRegistry;
using telemetry::SpanEvent;

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

bool Is(const SpanEvent& span, const char* name) {
  return std::strcmp(span.name, name) == 0;
}

double Attr(const SpanEvent& span, const char* key) {
  for (uint32_t i = 0; i < span.num_attrs; ++i) {
    if (std::strcmp(span.attrs[i].key, key) == 0) return span.attrs[i].value;
  }
  return 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ProbeStore::Add(uint64_t key, double delta) {
  (void)key;
  (void)delta;
  WB_CHECK(false) << "Add() on a read-only ProbeStore";
}

double ProbeStore::SumAbs() const {
  const auto begin = Clock::now();
  const double k = inner_->SumAbs();
  MetricsRegistry::Default().RecordSpan(kKScanSpan, begin, Clock::now());
  return k;
}

std::shared_ptr<const CoefficientStore> ProbeStore::PinVersion() const {
  std::shared_ptr<const CoefficientStore> pinned = inner_->PinVersion();
  if (pinned == nullptr) return nullptr;  // inner is its own snapshot
  return std::make_shared<ProbeStore>(std::move(pinned));
}

Status ProbeStore::DoFetchBatch(std::span<const uint64_t> keys,
                                std::span<double> out, IoStats* io) const {
  const auto begin = Clock::now();
  Status status = DelegateFetchBatch(*inner_, keys, out, io);
  MetricsRegistry::Default().RecordSpan(
      kFetchBatchSpan, begin, Clock::now(),
      {telemetry::SpanAttr{"keys", static_cast<double>(keys.size())}});
  return status;
}

Status ProbeStore::DoFetchBatchRouted(std::span<const uint64_t> keys,
                                      std::span<const uint32_t> shards,
                                      std::span<double> out,
                                      IoStats* io) const {
  const auto begin = Clock::now();
  Status status = DelegateFetchBatchRouted(*inner_, keys, shards, out, io);
  MetricsRegistry::Default().RecordSpan(
      kFetchBatchSpan, begin, Clock::now(),
      {telemetry::SpanAttr{"keys", static_cast<double>(keys.size())}});
  return status;
}

Result<SparseVec> ProbeStrategy::TransformQuery(
    const RangeSumQuery& query) const {
  const auto begin = Clock::now();
  const double cpu_begin = ThreadCpuMicros();
  Result<SparseVec> rewritten = inner_->TransformQuery(query);
  MetricsRegistry::Default().RecordSpan(
      kTransformQuerySpan, begin, Clock::now(),
      {telemetry::SpanAttr{"cpu_us", ThreadCpuMicros() - cpu_begin}});
  return rewritten;
}

std::vector<Metric> LayerMetrics(const TracedPassFacts& facts) {
  const std::vector<SpanEvent> spans = MetricsRegistry::Default().Spans();
  double window_begin = 0.0;
  double window_end = -1.0;
  for (const SpanEvent& span : spans) {
    if (Is(span, kWindowSpan)) {
      window_begin = span.ts_us;
      window_end = span.ts_us + span.dur_us;
    }
  }

  uint64_t k_scans = 0, quanta = 0, fetch_batches = 0;
  double k_scan_ms = 0.0, union_keys = 0.0, backend_keys = 0.0;
  double attributed_ms = 0.0, op_ms = 0.0;
  double query_cpu_us = 0.0, queries = 0.0;
  std::vector<double> quantum_ms, plan_build_ms, fetch_us, admit_ms;
  std::unordered_map<uint64_t, double> submit_at, first_quantum_at;
  std::unordered_map<uint64_t, double> step_self_us;  // session_step id
  for (const SpanEvent& span : spans) {
    if (Is(span, "plan_build")) {
      plan_build_ms.push_back(span.dur_us / 1e3);
    } else if (Is(span, kTransformQuerySpan)) {
      query_cpu_us += Attr(span, "cpu_us");
      queries += 1.0;
    }
    if (span.ts_us < window_begin || span.ts_us > window_end) continue;
    if (Is(span, kKScanSpan)) {
      ++k_scans;
      k_scan_ms += span.dur_us / 1e3;
      attributed_ms += span.dur_us / 1e3;
    } else if (Is(span, "plan_build")) {
      attributed_ms += span.dur_us / 1e3;
    } else if (Is(span, "request_submit")) {
      submit_at[span.request_id] = span.ts_us;
    } else if (Is(span, "request_quantum")) {
      ++quanta;
      quantum_ms.push_back(span.dur_us / 1e3);
      attributed_ms += span.dur_us / 1e3;
      union_keys += Attr(span, "union_keys");
      auto [it, fresh] = first_quantum_at.emplace(span.request_id, span.ts_us);
      if (!fresh) it->second = std::min(it->second, span.ts_us);
    } else if (Is(span, kFetchBatchSpan)) {
      ++fetch_batches;
      backend_keys += Attr(span, "keys");
      fetch_us.push_back(span.dur_us);
    } else if (Is(span, "session_step")) {
      step_self_us[span.span_id] += span.dur_us;
    } else if (Is(span, kOpSpan)) {
      op_ms += span.dur_us / 1e3;
    }
  }
  // Engine self time: each session_step minus the store_fetch_batch spans
  // it parents (the session's reads through the group's shared store).
  for (const SpanEvent& span : spans) {
    if (!Is(span, "store_fetch_batch")) continue;
    auto it = step_self_us.find(span.parent_span_id);
    if (it != step_self_us.end()) it->second -= span.dur_us;
  }
  double step_self_ms = 0.0;
  for (const auto& [id, us] : step_self_us) step_self_ms += us / 1e3;
  for (const auto& [request, at] : submit_at) {
    auto it = first_quantum_at.find(request);
    if (it != first_quantum_at.end()) admit_ms.push_back((it->second - at) / 1e3);
  }

  const double ops = static_cast<double>(facts.ops);
  const double overhead_pct =
      100.0 * (Ratio(facts.traced_latency_p50_ms,
                     facts.untraced_latency_p50_ms) - 1.0);
  return {
      {"server.op_latency_p90_ms", facts.untraced_latency_p90_ms, "ms"},
      {"server.k_scans_per_op", Ratio(k_scans, ops), "count"},
      {"server.k_scan_ms", Ratio(k_scan_ms, k_scans), "ms"},
      {"server.admit_ms_p50", Quantile(admit_ms, 0.5), "ms"},
      {"server.quanta_per_op", Ratio(quanta, ops), "count"},
      {"server.quantum_ms_p50", Quantile(quantum_ms, 0.5), "ms"},
      {"server.union_keys_per_quantum", Ratio(union_keys, quanta), "keys"},
      {"server.backend_keys_per_op", Ratio(backend_keys, ops), "keys"},
      {"server.shared_hit_ratio",
       Ratio(facts.shared_hits, facts.shared_hits + facts.shared_misses),
       "fraction"},
      {"server.unattributed_ms_per_op",
       Ratio(op_ms - attributed_ms, ops), "ms"},
      {"engine.plan_cache_hit_ratio",
       Ratio(facts.plan_cache_hits,
             facts.plan_cache_hits + facts.plan_cache_misses),
       "fraction"},
      {"engine.plan_build_ms_p50", Quantile(plan_build_ms, 0.5), "ms"},
      {"engine.step_self_ms_per_op", Ratio(step_self_ms, ops), "ms"},
      {"core.master_entries_per_op",
       Ratio(static_cast<double>(facts.master_entries), ops), "entries"},
      {"strategy.transform_query_us", Ratio(query_cpu_us, queries), "us"},
      {"strategy.view_build_s", facts.view_build_s, "s"},
      {"storage.fetch_batches_per_op", Ratio(fetch_batches, ops), "count"},
      {"storage.keys_per_fetch_batch", Ratio(backend_keys, fetch_batches),
       "keys"},
      {"storage.fetch_batch_us_p50", Quantile(fetch_us, 0.5), "us"},
      {"telemetry.overhead_pct", overhead_pct, "%"},
      {"telemetry.dropped_spans",
       static_cast<double>(MetricsRegistry::Default().dropped_spans()),
       "count"},
  };
}

bool WriteChromeTrace(const std::string& dir, const std::string& name) {
  if (dir.empty()) return true;
  std::ofstream out(dir + "/" + name + ".trace.json", std::ios::binary);
  out << telemetry::ExportChromeTrace();
  return static_cast<bool>(out);
}

void EnableTracing() {
  MetricsRegistry::Default().SetSpanCapacity(size_t{1} << 24);
  MetricsRegistry::Enable();
}

}  // namespace wavebatch::perfbench
