// Shared helpers for the reproduction benches.  Every bench prints
// (a) the paper's expectation and (b) the measured series, in plain
// rows that EXPERIMENTS.md records.
//
// Also home to the knobs shared across drivers: env-int parsing,
// steady-clock timing and percentile math.
//
// Machine-readable output: benches call BenchReport::Add(section, metric,
// value, unit) alongside their printf rows, and WriteIfRequested() on
// exit.  When PATHDUMP_BENCH_JSON=<path> is set the accumulated rows are
// written there as one JSON document (CI uploads it as an artifact);
// unset, reporting is a no-op and benches stay print-only.

#ifndef PATHDUMP_BENCH_BENCH_UTIL_H_
#define PATHDUMP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace pathdump {
namespace bench {

// Accumulates {section, metric, value, unit} rows for the whole bench
// run and serializes them as JSON.  Single-threaded by design: benches
// report from their main thread only.
class BenchReport {
 public:
  static BenchReport& Global() {
    static BenchReport report;
    return report;
  }

  void SetBenchName(const std::string& name) { bench_name_ = name; }

  void Add(const std::string& section, const std::string& metric, double value,
           const std::string& unit) {
    rows_.push_back(Row{section, metric, value, unit});
  }

  // Writes {"bench":...,"rows":[...]} to $PATHDUMP_BENCH_JSON.  Appends
  // when the file already has content, so a quickbench suite writing to
  // one shared path yields a concatenated JSON-lines stream (one document
  // per bench run).  Returns false only on a write error.
  bool WriteIfRequested() const {
    const char* path = getenv("PATHDUMP_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') {
      return true;
    }
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr) {
      return false;
    }
    std::string out = ToJson();
    out.push_back('\n');
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (ok) {
      std::printf("\nbench json: appended %zu rows to %s\n", rows_.size(), path);
    }
    return ok;
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":\"" + bench_name_ + "\",\"rows\":[";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", r.value);
      if (i > 0) {
        out += ",";
      }
      out += "{\"section\":\"" + r.section + "\",\"metric\":\"" + r.metric +
             "\",\"value\":" + buf + ",\"unit\":\"" + r.unit + "\"}";
    }
    out += "]}";
    return out;
  }

  size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    std::string section;
    std::string metric;
    double value;
    std::string unit;
  };
  std::string bench_name_ = "bench";
  std::vector<Row> rows_;
};

inline void Banner(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
  BenchReport::Global().SetBenchName(experiment);
}

inline void Section(const char* name) { std::printf("\n--- %s ---\n", name); }

// printf row + JSON row in one call, for benches that want both.
inline void Report(const char* section, const char* metric, double value, const char* unit) {
  std::printf("  %-28s %12.3f %s\n", metric, value, unit);
  BenchReport::Global().Add(section, metric, value, unit);
}

// Positive integer knob from the environment, else the fallback.
inline int IntFromEnv(const char* name, int fallback) {
  const char* env = getenv(name);
  if (env != nullptr) {
    int v = atoi(env);
    if (v > 0) {
      return v;
    }
  }
  return fallback;
}

// Seconds elapsed since `t0`.
inline double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// p-th percentile (p in [0,1]) by sorting in place.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = size_t(p * double(v.size() - 1));
  return v[idx];
}

}  // namespace bench
}  // namespace pathdump

#endif  // PATHDUMP_BENCH_BENCH_UTIL_H_
