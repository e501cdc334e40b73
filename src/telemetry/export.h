#ifndef WAVEBATCH_TELEMETRY_EXPORT_H_
#define WAVEBATCH_TELEMETRY_EXPORT_H_

#include <string>

#include "telemetry/metrics.h"

namespace wavebatch::telemetry {

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per family, then one sample
/// line per time series; histograms expand to cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`. Histogram bucket bounds are the
/// log-scale powers of two (trailing all-zero buckets are elided; the
/// mandatory `le="+Inf"` bucket always closes the family). Safe to call
/// while other threads keep recording — values are a statistical snapshot.
std::string ExportPrometheus(
    const MetricsRegistry& registry = MetricsRegistry::Default());

/// Renders the span buffer as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto "traceEvents" format): one complete ("X")
/// event per span with microsecond timestamps, grouped by the recording
/// thread, carrying its span, parent and request ids and its structured
/// attributes in "args". Cross-thread parent links (ThreadPool hand-offs)
/// additionally emit flow-event pairs ("s"/"f"), so one request renders as
/// a connected lane across worker threads. Load the output via
/// chrome://tracing "Load" or ui.perfetto.dev.
std::string ExportChromeTrace(
    const MetricsRegistry& registry = MetricsRegistry::Default());

/// Validates Prometheus text exposition: metric/label name grammar, label
/// escaping, sample value syntax, HELP/TYPE placement, and histogram
/// invariants (cumulative monotone buckets, `le="+Inf"` present and equal
/// to `_count`). Returns true when `text` parses clean; otherwise fills
/// `error` (if non-null) with the first offending line and reason. Used by
/// the format test and the `validate_prometheus` CI tool.
bool ValidatePrometheus(const std::string& text, std::string* error = nullptr);

}  // namespace wavebatch::telemetry

#endif  // WAVEBATCH_TELEMETRY_EXPORT_H_
