#ifndef WAVEBATCH_SERVER_INTROSPECTION_H_
#define WAVEBATCH_SERVER_INTROSPECTION_H_

#include <cstddef>
#include <string>
#include <vector>

#include "server/debug_http.h"
#include "server/query_service.h"
#include "telemetry/metrics.h"

namespace wavebatch::server {

/// The live-introspection plane: JSON renderers over a QueryService and the
/// telemetry registry, plus the glue that mounts them (and /metrics) on a
/// DebugHttpServer. Every renderer snapshots under the service's own
/// accessors — none holds a service lock while rendering — so they are safe
/// to hit while the service is under load. The same renderers back the
/// `introspect_dump` tool, so environments that cannot open a listener get
/// identical text from a one-shot dump.

/// /statusz: admission queue depth, live sessions, the epoch the next
/// admission pins, shed and completion counts, Theorem 1's K of the store's
/// current version (its SumAbs()), and the plan cache's contents.
std::string StatuszJson(const QueryService& service);

/// The convergence timelines of recently completed requests — each record
/// is one request's error-vs-I/O curve (steps, retrievals, estimate,
/// Theorem-1 bound, skipped importance, elapsed microseconds per point).
std::string TimelinesJson(
    const std::vector<QueryService::TimelineRecord>& records);

/// /tracez: the registry's recent spans grouped by request id (most recent
/// request first, at most `max_spans` spans scanned from the tail of the
/// buffer), plus the service's recent convergence timelines. `service` may
/// be null — then only spans render.
std::string TracezJson(const QueryService* service,
                       const telemetry::MetricsRegistry& registry =
                           telemetry::MetricsRegistry::Default(),
                       size_t max_spans = 4096);

/// Mounts /metrics (Prometheus text), /statusz, /tracez, and a "/" index on
/// `http`. `service` may be null (endpoints render registry-only views).
/// Call before DebugHttpServer::Start(); the handlers hold the raw pointers,
/// so the service must outlive the server.
void RegisterIntrospection(DebugHttpServer* http, const QueryService* service,
                           const telemetry::MetricsRegistry* registry =
                               &telemetry::MetricsRegistry::Default());

}  // namespace wavebatch::server

#endif  // WAVEBATCH_SERVER_INTROSPECTION_H_
