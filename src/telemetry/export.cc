#include "telemetry/export.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wavebatch::telemetry {

namespace {

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string EscapeHelp(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Renders `{k="v",...}` (empty string for no labels); `extra` appends one
/// more pair (the histogram `le`).
std::string LabelString(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += "\"";
  }
  out += "}";
  return out;
}

std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatValue(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string ExportPrometheus(const MetricsRegistry& registry) {
  const std::vector<MetricSnapshot> snapshot = registry.Snapshot();
  std::string out;
  std::string current_family;
  for (const MetricSnapshot& m : snapshot) {
    if (m.name != current_family) {
      current_family = m.name;
      if (!m.help.empty()) {
        out += "# HELP " + m.name + " " + EscapeHelp(m.help) + "\n";
      }
      out += "# TYPE " + m.name + " " + TypeName(m.type) + "\n";
    }
    switch (m.type) {
      case MetricType::kCounter:
        out += m.name + LabelString(m.labels) + " " +
               FormatValue(m.counter_value) + "\n";
        break;
      case MetricType::kGauge:
        out += m.name + LabelString(m.labels) + " " +
               FormatValue(m.gauge_value) + "\n";
        break;
      case MetricType::kHistogram: {
        // Cumulative buckets up to the last populated finite bound;
        // trailing empty buckets add no information and the mandatory
        // le="+Inf" closes the series either way.
        size_t last = 0;
        for (size_t i = 0; i < Histogram::kFiniteBuckets; ++i) {
          if (m.hist_buckets[i] != 0) last = i;
        }
        uint64_t cumulative = 0;
        for (size_t i = 0; i <= last; ++i) {
          cumulative += m.hist_buckets[i];
          out += m.name + "_bucket" +
                 LabelString(m.labels, "le",
                             FormatValue(Histogram::BucketUpperBound(i))) +
                 " " + FormatValue(cumulative) + "\n";
        }
        out += m.name + "_bucket" + LabelString(m.labels, "le", "+Inf") + " " +
               FormatValue(m.hist_count) + "\n";
        out += m.name + "_sum" + LabelString(m.labels) + " " +
               FormatValue(m.hist_sum) + "\n";
        out += m.name + "_count" + LabelString(m.labels) + " " +
               FormatValue(m.hist_count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExportChromeTrace(const MetricsRegistry& registry) {
  const std::vector<SpanEvent> spans = registry.Spans();
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"wavebatch\"}}";
  // span_id -> buffer index, for resolving cross-thread parent links.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id != 0) by_id.emplace(spans[i].span_id, i);
  }
  char buf[512];
  for (const SpanEvent& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"wavebatch\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"span_id\":%" PRIu64 ",\"parent_span_id\":%" PRIu64
                  ",\"request_id\":%" PRIu64,
                  s.name, s.tid, s.ts_us, s.dur_us, s.span_id,
                  s.parent_span_id, s.request_id);
    out += buf;
    for (uint32_t a = 0; a < s.num_attrs; ++a) {
      std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", s.attrs[a].key,
                    s.attrs[a].value);
      out += buf;
    }
    out += "}}";
  }
  // Flow events render each cross-thread parent link as an arrow from the
  // parent span's lane to the child's, connecting one request's work into a
  // single visible lane across workers. A pair shares one id (the child's
  // span id); "s" starts inside the parent slice, "f" binds to the start of
  // the child slice ("bp":"e" = bind to enclosing).
  for (const SpanEvent& s : spans) {
    if (s.parent_span_id == 0) continue;
    const auto it = by_id.find(s.parent_span_id);
    if (it == by_id.end()) continue;
    const SpanEvent& parent = spans[it->second];
    if (parent.tid == s.tid) continue;  // same-thread nesting needs no arrow
    // Clamp the arrow's start into the parent slice so viewers accept it
    // even when the child outlived a fire-and-forget submitter.
    const double ts_start =
        std::min(std::max(s.ts_us, parent.ts_us), parent.ts_us + parent.dur_us);
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"handoff\",\"cat\":\"wavebatch\","
                  "\"ph\":\"s\",\"id\":%" PRIu64
                  ",\"pid\":1,\"tid\":%u,\"ts\":%.3f},\n"
                  "{\"name\":\"handoff\",\"cat\":\"wavebatch\",\"ph\":\"f\","
                  "\"bp\":\"e\",\"id\":%" PRIu64
                  ",\"pid\":1,\"tid\":%u,\"ts\":%.3f}",
                  s.span_id, parent.tid, ts_start, s.span_id, s.tid, s.ts_us);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Exposition-format validator.

namespace {

bool IsMetricNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}
bool IsLabelNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsLabelNameChar(char c) {
  return IsLabelNameStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || !IsMetricNameStart(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!IsMetricNameChar(c)) return false;
  }
  return true;
}

bool ValidLabelName(std::string_view name) {
  if (name.empty() || !IsLabelNameStart(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!IsLabelNameChar(c)) return false;
  }
  return true;
}

bool ParseValue(std::string_view token, double* out) {
  if (token == "+Inf" || token == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  char* end = nullptr;
  const std::string owned(token);
  *out = std::strtod(owned.c_str(), &end);
  return end == owned.c_str() + owned.size() && !owned.empty();
}

struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses one sample line; returns false with `why` on malformed input.
bool ParseSample(const std::string& line, ParsedSample* sample,
                 std::string* why) {
  size_t i = 0;
  const size_t n = line.size();
  while (i < n && IsMetricNameChar(line[i])) ++i;
  sample->name = line.substr(0, i);
  if (!ValidMetricName(sample->name)) {
    *why = "invalid metric name";
    return false;
  }
  if (i < n && line[i] == '{') {
    ++i;
    while (i < n && line[i] != '}') {
      size_t name_start = i;
      while (i < n && IsLabelNameChar(line[i])) ++i;
      const std::string label = line.substr(name_start, i - name_start);
      if (!ValidLabelName(label)) {
        *why = "invalid label name";
        return false;
      }
      if (i >= n || line[i] != '=') {
        *why = "expected '=' after label name";
        return false;
      }
      ++i;
      if (i >= n || line[i] != '"') {
        *why = "label value must be quoted";
        return false;
      }
      ++i;
      std::string value;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= n || (line[i] != '\\' && line[i] != '"' && line[i] != 'n')) {
            *why = "bad escape in label value";
            return false;
          }
          value += line[i] == 'n' ? '\n' : line[i];
        } else {
          value += line[i];
        }
        ++i;
      }
      if (i >= n) {
        *why = "unterminated label value";
        return false;
      }
      ++i;  // closing quote
      if (!sample->labels.emplace(label, value).second) {
        *why = "duplicate label name";
        return false;
      }
      if (i < n && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < n && line[i] == '}') break;
      *why = "expected ',' or '}' after label";
      return false;
    }
    if (i >= n || line[i] != '}') {
      *why = "unterminated label set";
      return false;
    }
    ++i;
  }
  if (i >= n || (line[i] != ' ' && line[i] != '\t')) {
    *why = "expected whitespace before value";
    return false;
  }
  while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  size_t value_start = i;
  while (i < n && line[i] != ' ' && line[i] != '\t') ++i;
  if (!ParseValue(std::string_view(line).substr(value_start, i - value_start),
                  &sample->value)) {
    *why = "unparsable sample value";
    return false;
  }
  while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i < n) {
    // Optional timestamp: a signed integer.
    size_t ts_start = i;
    if (line[i] == '-' || line[i] == '+') ++i;
    while (i < n && std::isdigit(static_cast<unsigned char>(line[i]))) ++i;
    if (i == ts_start || i != n) {
      *why = "trailing garbage after value";
      return false;
    }
  }
  return true;
}

std::string SerializeLabels(const std::map<std::string, std::string>& labels,
                            const std::string& skip = "") {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (k == skip) continue;
    out += k;
    out += '\x02';
    out += v;
    out += '\x03';
  }
  return out;
}

}  // namespace

bool ValidatePrometheus(const std::string& text, std::string* error) {
  auto fail = [error](size_t line_no, const std::string& why,
                      const std::string& line) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why + ": " + line;
    }
    return false;
  };

  std::map<std::string, std::string> family_type;  // name -> TYPE
  std::set<std::string> family_has_samples;
  std::set<std::string> family_has_help;
  std::set<std::string> seen_series;  // name + labelset, duplicates illegal
  // Histogram bookkeeping: family -> base labelset -> le -> bucket value,
  // plus which base labelsets saw _sum / _count (and the count value).
  struct HistogramSeries {
    std::map<double, double> buckets;  // le -> cumulative count
    bool has_sum = false;
    bool has_count = false;
    double count = 0.0;
  };
  std::map<std::string, std::map<std::string, HistogramSeries>> histograms;

  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }

    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type" / free-form comment.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_type = line[2] == 'T';
        const std::string rest = line.substr(7);
        const size_t space = rest.find(' ');
        const std::string name =
            space == std::string::npos ? rest : rest.substr(0, space);
        if (!ValidMetricName(name)) {
          return fail(line_no, "invalid metric name in comment", line);
        }
        if (family_has_samples.count(name) != 0) {
          return fail(line_no, "HELP/TYPE after samples of the family", line);
        }
        if (is_type) {
          if (space == std::string::npos) {
            return fail(line_no, "TYPE missing a type", line);
          }
          const std::string type = rest.substr(space + 1);
          if (type != "counter" && type != "gauge" && type != "histogram" &&
              type != "summary" && type != "untyped") {
            return fail(line_no, "unknown TYPE '" + type + "'", line);
          }
          if (!family_type.emplace(name, type).second) {
            return fail(line_no, "duplicate TYPE for family", line);
          }
        } else {
          if (!family_has_help.insert(name).second) {
            return fail(line_no, "duplicate HELP for family", line);
          }
        }
      }
      continue;
    }

    ParsedSample sample;
    std::string why;
    if (!ParseSample(line, &sample, &why)) return fail(line_no, why, line);
    if (!seen_series
             .insert(sample.name + '\x01' + SerializeLabels(sample.labels))
             .second) {
      return fail(line_no, "duplicate series (same name and labels)", line);
    }

    // Attribute the sample to its family: exact TYPE match first, then the
    // histogram expansion suffixes.
    std::string family = sample.name;
    std::string suffix;
    if (family_type.count(family) == 0) {
      for (const char* s : {"_bucket", "_sum", "_count"}) {
        const std::string_view sv(s);
        if (sample.name.size() > sv.size() &&
            sample.name.compare(sample.name.size() - sv.size(), sv.size(),
                                sv.data()) == 0) {
          const std::string base =
              sample.name.substr(0, sample.name.size() - sv.size());
          auto it = family_type.find(base);
          if (it != family_type.end() && it->second == "histogram") {
            family = base;
            suffix = sv;
            break;
          }
        }
      }
    }
    family_has_samples.insert(family);
    const std::string& type =
        family_type.count(family) != 0 ? family_type[family] : std::string();

    if (type == "counter") {
      if (std::isnan(sample.value) || sample.value < 0.0) {
        return fail(line_no, "counter sample must be finite and >= 0", line);
      }
    } else if (type == "histogram") {
      if (suffix.empty()) {
        return fail(line_no,
                    "histogram family sample must be _bucket/_sum/_count",
                    line);
      }
      HistogramSeries& series =
          histograms[family][SerializeLabels(sample.labels, "le")];
      if (suffix == "_bucket") {
        auto le_it = sample.labels.find("le");
        if (le_it == sample.labels.end()) {
          return fail(line_no, "_bucket sample missing le label", line);
        }
        double le = 0.0;
        if (!ParseValue(le_it->second, &le) || std::isnan(le)) {
          return fail(line_no, "unparsable le bound", line);
        }
        if (!series.buckets.emplace(le, sample.value).second) {
          return fail(line_no, "duplicate le bound", line);
        }
      } else if (suffix == "_sum") {
        series.has_sum = true;
      } else {
        series.has_count = true;
        series.count = sample.value;
      }
    }
  }

  // Histogram invariants per base labelset.
  for (const auto& [family, by_labels] : histograms) {
    for (const auto& [labels, series] : by_labels) {
      if (series.buckets.empty()) {
        if (error != nullptr) {
          *error = "histogram " + family + " has no _bucket samples";
        }
        return false;
      }
      const auto inf_it =
          series.buckets.find(std::numeric_limits<double>::infinity());
      if (inf_it == series.buckets.end()) {
        if (error != nullptr) {
          *error = "histogram " + family + " missing le=\"+Inf\" bucket";
        }
        return false;
      }
      double prev = -1.0;
      for (const auto& [le, cumulative] : series.buckets) {
        if (cumulative < prev) {
          if (error != nullptr) {
            *error = "histogram " + family +
                     " has non-monotone cumulative buckets";
          }
          return false;
        }
        prev = cumulative;
      }
      if (!series.has_sum || !series.has_count) {
        if (error != nullptr) {
          *error = "histogram " + family + " missing _sum or _count";
        }
        return false;
      }
      if (inf_it->second != series.count) {
        if (error != nullptr) {
          *error = "histogram " + family + " +Inf bucket != _count";
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace wavebatch::telemetry
