#include "server/introspection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "telemetry/export.h"

namespace wavebatch::server {

namespace {

/// JSON has no NaN/Inf literals; nonfinite values render as null so the
/// output always parses (a bound can be +inf before the first sample).
void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendU64(std::string& out, uint64_t v) { out += std::to_string(v); }

void AppendBool(std::string& out, bool v) { out += v ? "true" : "false"; }

/// Span names and attr keys are static-storage C strings from our own call
/// sites, but escape anyway — one stray quote must not break the endpoint.
void AppendString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendSpan(std::string& out, const telemetry::SpanEvent& span) {
  out += "{\"name\":";
  AppendString(out, span.name);
  out += ",\"span_id\":";
  AppendU64(out, span.span_id);
  out += ",\"parent_span_id\":";
  AppendU64(out, span.parent_span_id);
  out += ",\"tid\":";
  AppendU64(out, span.tid);
  out += ",\"ts_us\":";
  AppendNumber(out, span.ts_us);
  out += ",\"dur_us\":";
  AppendNumber(out, span.dur_us);
  out += ",\"attrs\":{";
  for (uint32_t a = 0; a < span.num_attrs; ++a) {
    if (a > 0) out += ',';
    AppendString(out, span.attrs[a].key);
    out += ':';
    AppendNumber(out, span.attrs[a].value);
  }
  out += "}}";
}

void AppendTimelineRecord(std::string& out,
                          const QueryService::TimelineRecord& record) {
  out += "{\"request_id\":";
  AppendU64(out, record.request_id);
  out += ",\"trace_id\":";
  AppendU64(out, record.trace_id);
  out += ",\"generation\":";
  AppendU64(out, record.generation);
  out += ",\"ok\":";
  AppendBool(out, record.ok);
  out += ",\"exact\":";
  AppendBool(out, record.exact);
  out += ",\"deadline_expired\":";
  AppendBool(out, record.deadline_expired);
  out += ",\"points\":[";
  for (size_t i = 0; i < record.points.size(); ++i) {
    const telemetry::TimelinePoint& p = record.points[i];
    if (i > 0) out += ',';
    out += "{\"steps\":";
    AppendU64(out, p.steps);
    out += ",\"retrievals\":";
    AppendU64(out, p.retrievals);
    out += ",\"estimate\":";
    AppendNumber(out, p.estimate);
    out += ",\"bound\":";
    AppendNumber(out, p.bound);
    out += ",\"skipped_importance\":";
    AppendNumber(out, p.skipped_importance);
    out += ",\"elapsed_us\":";
    AppendNumber(out, p.elapsed_us);
    out += '}';
  }
  out += "]}";
}

}  // namespace

std::string StatuszJson(const QueryService& service) {
  std::string out;
  out.reserve(1024);
  out += "{\"queue_depth\":";
  AppendU64(out, service.queue_depth());
  out += ",\"live_sessions\":";
  AppendU64(out, service.live_sessions());
  out += ",\"generation\":";
  AppendU64(out, service.generation());
  out += ",\"epoch\":";
  AppendU64(out, service.epoch());
  out += ",\"sheds\":";
  AppendU64(out, service.sheds());
  out += ",\"completed\":";
  AppendU64(out, service.completed());
  out += ",\"k_sum_abs\":";
  const std::optional<double> k = service.k_sum_abs();
  if (k.has_value()) {
    AppendNumber(out, *k);
  } else {
    out += "null";
  }
  out += ",\"plan_cache\":{\"size\":";
  const PlanCache& cache = service.plan_cache();
  AppendU64(out, cache.size());
  out += ",\"hits\":";
  AppendU64(out, cache.hits());
  out += ",\"misses\":";
  AppendU64(out, cache.misses());
  out += ",\"evictions\":";
  AppendU64(out, cache.evictions());
  out += ",\"entries\":[";
  const std::vector<PlanCache::EntryInfo> entries = cache.Entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const PlanCache::EntryInfo& e = entries[i];
    if (i > 0) out += ',';
    out += "{\"fingerprint\":";
    AppendString(out, e.fingerprint);
    out += ",\"plan_entries\":";
    AppendU64(out, e.plan_entries);
    out += ",\"num_queries\":";
    AppendU64(out, e.num_queries);
    out += '}';
  }
  out += "]}}";
  return out;
}

std::string TimelinesJson(
    const std::vector<QueryService::TimelineRecord>& records) {
  std::string out;
  out.reserve(256);
  out += '[';
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ',';
    AppendTimelineRecord(out, records[i]);
  }
  out += ']';
  return out;
}

std::string TracezJson(const QueryService* service,
                       const telemetry::MetricsRegistry& registry,
                       size_t max_spans) {
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  const size_t begin = spans.size() > max_spans ? spans.size() - max_spans : 0;

  // Group by trace, keeping span recording order inside each trace; order
  // traces by their latest span so the most recent request comes first.
  struct TraceGroup {
    uint64_t request_id = 0;
    double last_ts = 0.0;
    std::vector<const telemetry::SpanEvent*> spans;
  };
  std::map<uint64_t, TraceGroup> by_trace;
  size_t untraced = 0;
  for (size_t i = begin; i < spans.size(); ++i) {
    const telemetry::SpanEvent& span = spans[i];
    if (span.trace_id == 0) {
      ++untraced;
      continue;
    }
    TraceGroup& group = by_trace[span.trace_id];
    if (span.request_id != 0) group.request_id = span.request_id;
    group.last_ts = std::max(group.last_ts, span.ts_us + span.dur_us);
    group.spans.push_back(&span);
  }
  std::vector<std::pair<uint64_t, const TraceGroup*>> ordered;
  ordered.reserve(by_trace.size());
  for (const auto& [trace_id, group] : by_trace) {
    ordered.emplace_back(trace_id, &group);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second->last_ts > b.second->last_ts;
  });

  std::string out;
  out.reserve(4096);
  out += "{\"dropped_spans\":";
  AppendU64(out, registry.dropped_spans());
  out += ",\"untraced_spans\":";
  AppendU64(out, untraced);
  out += ",\"traces\":[";
  for (size_t t = 0; t < ordered.size(); ++t) {
    if (t > 0) out += ',';
    out += "{\"trace_id\":";
    AppendU64(out, ordered[t].first);
    out += ",\"request_id\":";
    AppendU64(out, ordered[t].second->request_id);
    out += ",\"spans\":[";
    const auto& trace_spans = ordered[t].second->spans;
    for (size_t s = 0; s < trace_spans.size(); ++s) {
      if (s > 0) out += ',';
      AppendSpan(out, *trace_spans[s]);
    }
    out += "]}";
  }
  out += "],\"timelines\":";
  if (service != nullptr) {
    out += TimelinesJson(service->RecentTimelines());
  } else {
    out += "[]";
  }
  out += '}';
  return out;
}

void RegisterIntrospection(DebugHttpServer* http, const QueryService* service,
                           const telemetry::MetricsRegistry* registry) {
  http->Handle("/metrics", "text/plain; version=0.0.4", [registry] {
    return telemetry::ExportPrometheus(*registry);
  });
  http->Handle("/statusz", "application/json", [service] {
    return service != nullptr ? StatuszJson(*service)
                              : std::string("{\"error\":\"no service\"}");
  });
  http->Handle("/tracez", "application/json", [service, registry] {
    return TracezJson(service, *registry);
  });
  http->Handle("/", "text/plain", [] {
    return std::string(
        "wavebatch debug endpoints:\n"
        "  /metrics  Prometheus text exposition\n"
        "  /statusz  serving-stack status (JSON)\n"
        "  /tracez   recent traces + convergence timelines (JSON)\n");
  });
}

}  // namespace wavebatch::server
