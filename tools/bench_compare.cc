// Regression gate over two google-benchmark JSON reports:
//
//   ./build/tools/bench_compare bench/baselines/BENCH_micro.json
//       build/bench/BENCH_micro.json [--threshold=0.15]
//       [--counter=block_reads]... [--enforce-time]
//
// Prints a per-benchmark delta table (cpu time plus every shared counter)
// and exits nonzero iff a *named* counter regressed by more than the
// threshold or a baseline benchmark is missing from the current report (a
// gated counter cannot pass by disappearing). Counters like block_reads
// count work (I/O round-trips), so "regressed" means "grew"; they are
// machine-independent, which is what makes them enforceable against a
// snapshot committed from a different machine. Wall/CPU times are reported
// for eyeballs only unless --enforce-time is passed (useful when baseline
// and candidate ran on the same box), in which case cpu_time joins the
// gated set with the same threshold.
//
// Exit codes: 0 ok, 1 regression or missing benchmark, 2 usage / malformed
// / debug-built input (reports whose context says the project was compiled
// in debug are rejected on either side — their numbers gate nothing
// meaningfully).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

// --- Minimal JSON reader -----------------------------------------------
// google-benchmark's writer emits a small, regular subset of JSON; this
// parser accepts full JSON anyway (objects, arrays, strings with escapes,
// numbers, true/false/null) so format drift cannot silently truncate the
// report. No dependency: the toolchain has no vendored JSON library and
// the CI image must build this with the base compiler alone.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    pos_ = 0;
    if (!ParseValue(out, error)) return false;
    SkipWs();
    if (pos_ != text_.size()) {
      *error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(std::string* error, const std::string& what) {
    *error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool Consume(char c, std::string* error) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(error, std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue* out, std::string* error) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, error);
    if (c == '[') return ParseArray(out, error);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string, error);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out, error);
  }

  bool ParseObject(JsonValue* out, std::string* error) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{', error)) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key, error)) return false;
      if (!Consume(':', error)) return false;
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume('}', error);
    }
  }

  bool ParseArray(JsonValue* out, std::string* error) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[', error)) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume(']', error);
    }
  }

  bool ParseString(std::string* out, std::string* error) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail(error, "expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u':
          // Benchmark names are ASCII; keep the escape verbatim rather
          // than transcoding.
          if (pos_ + 4 > text_.size()) return Fail(error, "bad \\u escape");
          out->append("\\u").append(text_, pos_, 4);
          pos_ += 4;
          break;
        default:
          return Fail(error, "bad escape");
      }
    }
    return Fail(error, "unterminated string");
  }

  bool ParseNumber(JsonValue* out, std::string* error) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail(error, "expected value");
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                              nullptr);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Report model -------------------------------------------------------

struct BenchRun {
  double cpu_time = 0.0;
  std::string time_unit;
  // User counters, normalized per iteration: google-benchmark accumulates
  // plain counters across however many iterations the timer chose, and the
  // iteration count differs run to run — the per-iteration value is the
  // machine-independent quantity.
  std::map<std::string, double> counters;
};

/// The report's effective build type, lower-cased: the project-stamped
/// "wavebatch_build_type" context key when present, else google-benchmark's
/// stock "library_build_type" (which describes the benchmark *library*;
/// only trustworthy when the library was built alongside the project).
/// Empty when the report has no context section at all (tests and
/// hand-rolled fixtures) — absence is not evidence of a debug build.
std::string EffectiveBuildType(const JsonValue& root) {
  const JsonValue* context = root.Find("context");
  if (context == nullptr || context->kind != JsonValue::Kind::kObject) {
    return "";
  }
  const JsonValue* type = context->Find("wavebatch_build_type");
  if (type == nullptr) type = context->Find("library_build_type");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) return "";
  std::string value = type->string;
  for (char& c : value) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return value;
}

bool LoadReport(const std::string& path, std::map<std::string, BenchRun>* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) text.append(chunk, n);
  std::fclose(f);

  JsonValue root;
  std::string error;
  if (!JsonParser(text).Parse(&root, &error) ||
      root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                 error.empty() ? "not a JSON object" : error.c_str());
    return false;
  }
  // Debug-built numbers are not comparable to (or usable as) baselines:
  // refuse them outright rather than letting the gate pass or fail on
  // noise. This catches both sides — a debug baseline snuck into the repo
  // and a debug candidate run in CI.
  const std::string build_type = EffectiveBuildType(root);
  if (build_type == "debug") {
    std::fprintf(stderr,
                 "bench_compare: %s was recorded from a debug build (context "
                 "build type \"%s\"); debug timings/counters are not "
                 "comparable. Regenerate the report from a Release build "
                 "(cmake -DCMAKE_BUILD_TYPE=Release) so the JSON context "
                 "carries wavebatch_build_type=\"release\".\n",
                 path.c_str(), build_type.c_str());
    return false;
  }
  const JsonValue* benchmarks = root.Find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_compare: %s: no \"benchmarks\" array\n",
                 path.c_str());
    return false;
  }
  // Everything numeric that is not a known time/throughput field is a user
  // counter (google-benchmark flattens counters into the benchmark object).
  const std::vector<std::string> builtin = {
      "real_time", "cpu_time", "iterations", "threads", "repetitions",
      "repetition_index", "family_index", "per_family_instance_index",
      "items_per_second", "bytes_per_second"};
  for (const JsonValue& b : benchmarks->array) {
    if (b.kind != JsonValue::Kind::kObject) continue;
    const JsonValue* run_type = b.Find("run_type");
    if (run_type != nullptr && run_type->string != "iteration") continue;
    const JsonValue* name = b.Find("name");
    if (name == nullptr) continue;
    BenchRun run;
    if (const JsonValue* t = b.Find("cpu_time")) run.cpu_time = t->number;
    if (const JsonValue* u = b.Find("time_unit")) run.time_unit = u->string;
    double iterations = 1.0;
    if (const JsonValue* it = b.Find("iterations")) {
      if (it->number > 0.0) iterations = it->number;
    }
    for (const auto& [key, value] : b.object) {
      if (value.kind != JsonValue::Kind::kNumber) continue;
      bool is_builtin = false;
      for (const std::string& known : builtin) {
        if (key == known) {
          is_builtin = true;
          break;
        }
      }
      if (!is_builtin) run.counters[key] = value.number / iterations;
    }
    (*out)[name->string] = run;
  }
  return true;
}

double DeltaPct(double base, double cur) {
  if (base == 0.0) return cur == 0.0 ? 0.0 : 100.0;
  return (cur - base) / base * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  // Default gated counters: exactly reproducible functions of the workload
  // (master-list / plan sizes). Other counters are gated when named with
  // --counter=…; the CI bench-smoke step names block_reads too, which is
  // exact per iteration because the BlockStore benchmarks warm their LRU
  // in an untimed pass before the timed loop.
  std::vector<std::string> enforced = {"master_entries", "plan_entries"};
  bool counters_overridden = false;
  bool enforce_time = false;
  double threshold = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--counter=", 0) == 0) {
      if (!counters_overridden) enforced.clear();
      counters_overridden = true;
      enforced.push_back(arg.substr(10));
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.substr(12).c_str(), nullptr);
    } else if (arg == "--enforce-time") {
      enforce_time = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_compare: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json"
                 " [--threshold=0.15] [--counter=NAME]... [--enforce-time]\n");
    return 2;
  }

  std::map<std::string, BenchRun> baseline;
  std::map<std::string, BenchRun> current;
  if (!LoadReport(paths[0], &baseline) || !LoadReport(paths[1], &current)) {
    return 2;
  }

  int regressions = 0;
  int missing = 0;
  size_t compared = 0;
  std::printf("%-55s %12s %12s\n", "benchmark", "cpu Δ%", "counters");
  for (const auto& [name, base] : baseline) {
    auto it = current.find(name);
    if (it == current.end()) {
      std::printf("%-55s %12s   MISSING from current report\n", name.c_str(),
                  "-");
      ++missing;
      continue;
    }
    const BenchRun& cur = it->second;
    ++compared;
    const double cpu_delta = DeltaPct(base.cpu_time, cur.cpu_time);
    std::string counter_report;
    for (const auto& [counter, base_value] : base.counters) {
      auto cit = cur.counters.find(counter);
      if (cit == cur.counters.end()) continue;
      const double delta = DeltaPct(base_value, cit->second);
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s%+.1f%%(%s)",
                    counter_report.empty() ? "" : ",", delta, counter.c_str());
      counter_report += buf;
      for (const std::string& gated : enforced) {
        if (counter == gated && delta > threshold * 100.0) {
          std::fprintf(stderr,
                       "REGRESSION %s: counter %s %.6g -> %.6g (%+.1f%% > "
                       "%.0f%%)\n",
                       name.c_str(), counter.c_str(), base_value, cit->second,
                       delta, threshold * 100.0);
          ++regressions;
        }
      }
    }
    if (enforce_time && cpu_delta > threshold * 100.0) {
      std::fprintf(stderr, "REGRESSION %s: cpu_time %.6g -> %.6g %s (%+.1f%%)\n",
                   name.c_str(), base.cpu_time, cur.cpu_time,
                   cur.time_unit.c_str(), cpu_delta);
      ++regressions;
    }
    std::printf("%-55s %+11.1f%% %s\n", name.c_str(), cpu_delta,
                counter_report.empty() ? " -" : counter_report.c_str());
  }
  for (const auto& [name, run] : current) {
    if (baseline.find(name) == baseline.end()) {
      std::printf("%-55s %12s   NEW (no baseline)\n", name.c_str(), "-");
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_compare: no overlapping benchmarks\n");
    return 2;
  }
  if (missing > 0) {
    std::fprintf(stderr,
                 "bench_compare: %d baseline benchmark(s) missing from the "
                 "current report\n",
                 missing);
  }
  if (regressions > 0) {
    std::fprintf(stderr, "bench_compare: %d regression(s) beyond %.0f%%\n",
                 regressions, threshold * 100.0);
  }
  if (missing > 0 || regressions > 0) return 1;
  std::printf("OK: %zu benchmark(s) compared, no enforced regressions\n",
              compared);
  return 0;
}
