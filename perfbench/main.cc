// perfbench: the repository benchmark program.
//
//   perfbench --workload <edge_ingest|fleet_poll|standing_epochs>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file.csv>]
//
// Every run executes all three workloads, so every end-to-end (or, traced,
// every per-layer) metric is printed on every run.  The named workload is
// set up five times (setup_s is the median) and measures for --seconds;
// the other two are set up once and measure for half that.  The windows
// are interleaved in slices across the run, and every workload also runs
// at least the operation count its percentiles need.  The last stdout
// line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A run that cannot report a metric honestly (e.g. too few samples for a
// percentile) prints no result and exits non-zero.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--trace-out") {
      args->trace_out = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         (args->workload == "edge_ingest" || args->workload == "fleet_poll" ||
          args->workload == "standing_epochs");
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The end-to-end metrics, as listed in BENCHMARK.json.  Any other metric
// a workload reports with them (a tail percentile whose run-to-run spread
// exceeds every allowed bound) is printed with the per-layer metrics.
const char* const kEndToEnd[] = {
    "setup_s",      "peak_rss_mb",     "ingest_pps",    "topk_p50_ms",  "topk_p90_ms",
    "flowdist_p50_ms", "flows_p50_ms", "count_p50_ms",  "epoch_p50_ms", "materialize_p50_ms",
};

// Set-ups performed by the named workload; setup_s is their median.
constexpr int kMainSetups = 5;
// Measuring window of the other two workloads, as a share of --seconds.
constexpr double kCompanionShare = 0.6;
// The windows are cut into this many slices, interleaved across the
// workloads, so every workload's samples span the whole run.
constexpr int kSlices = 6;

bool IsEndToEnd(const std::string& name) {
  for (const char* m : kEndToEnd) {
    if (name == m) {
      return true;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <edge_ingest|fleet_poll|standing_epochs> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file.csv>]\n");
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              (unsigned long long)args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("hardware: nproc=%ld cpu=%s\n", sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str());
  std::fflush(stdout);

  // Always the same order, so each metric is measured in the same process
  // state whichever workload is named.
  std::unique_ptr<Workload> workloads[] = {MakeEdgeIngest(), MakeFleetPoll(),
                                           MakeStandingEpochs()};
  constexpr size_t kCount = std::size(workloads);
  PhaseResult results[kCount];
  double window_s[kCount];
  double setup_s = 0;

  for (size_t i = 0; i < kCount; ++i) {
    Fingerprint fp;
    workloads[i]->Generate(args.seed * (kCount + 1) + i + 1, fp);
    std::printf("inputs: %s %s count=%llu hash=%016llx\n", workloads[i]->name(),
                workloads[i]->inputs(), (unsigned long long)fp.count(),
                (unsigned long long)fp.hash());
  }
  std::fflush(stdout);
  for (size_t i = 0; i < kCount; ++i) {
    const bool named = args.workload == workloads[i]->name();
    const int setups = named && !args.trace ? kMainSetups : 1;
    std::vector<double> times;
    for (int r = 0; r < setups; ++r) {
      const int64_t t0 = NowNs();
      workloads[i]->SetUp(results[i]);
      times.push_back(double(NowNs() - t0) / 1e9);
    }
    if (named) {
      setup_s = MedianOfRepeats(times);
    }
    // A traced run splits each window between its untraced and traced pass.
    window_s[i] = (named ? args.seconds : args.seconds * kCompanionShare) / (args.trace ? 2 : 1);
  }
  for (int slice = 0; slice < kSlices; ++slice) {
    for (size_t i = 0; i < kCount; ++i) {
      workloads[i]->Measure(window_s[i] / kSlices, results[i]);
    }
  }
  SpanLog spans;
  for (size_t i = 0; i < kCount; ++i) {
    workloads[i]->Report(results[i]);
    if (args.trace) {
      workloads[i]->Trace(window_s[i], spans, results[i]);
    }
    workloads[i]->Finish(results[i]);
  }

  MetricMap metrics;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (size_t i = 0; i < kCount; ++i) {
    const PhaseResult& r = results[i];
    std::printf("workload %s: %llu operations, %llu failed\n", workloads[i]->name(),
                (unsigned long long)r.attempted, (unsigned long long)r.failed);
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    for (const auto& [name, m] : r.e2e) {
      if (IsEndToEnd(name) != args.trace) {
        metrics[name] = m;
      }
    }
    if (args.trace) {
      metrics.insert(r.layer.begin(), r.layer.end());
    }
  }
  for (const std::string& e : errors) {
    std::printf("FAILED CHECK: %s\n", e.c_str());
  }

  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["setup_s"] = {setup_s, "s"};
    metrics["peak_rss_mb"] = {double(ru.ru_maxrss) / 1024.0, "MB"};
  } else if (!args.trace_out.empty()) {
    if (!spans.WriteCsv(args.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.spans().size(), args.trace_out.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 && errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 1;
    }
    char val[64];
    std::snprintf(val, sizeof(val), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + val + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
