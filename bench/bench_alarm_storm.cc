// Alarm-storm intake bench: throughput and enqueue latency of the
// controller's alarm pipeline (src/controller/alarm_pipeline.h) across a
// dispatch-worker sweep.
//
// Models the silent-drop + incast storm scenario: many agent threads
// submit POOR_PERF alarms concurrently while several debugging-app
// subscribers each do per-alarm work.  Reports, per worker count:
//   * intake throughput (first Submit -> Flush complete, all delivered),
//   * p50/p99 Submit() latency on the producer threads,
//   * drops (must be 0 under the default block policy) and a
//     sequence-order check on the log.
// Then two policy sections: the suppression window deduping a repeating
// key, and kDropNewest backpressure under a wedged consumer.
//
// Override the storm size with PATHDUMP_STORM_ALARMS (total alarms;
// default 60000, split across 4 producer threads).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/controller/controller.h"

namespace pathdump {
namespace {

constexpr int kProducers = 4;
constexpr int kSubscribers = 4;

size_t TotalAlarms() {
  return std::max<size_t>(size_t(bench::IntFromEnv("PATHDUMP_STORM_ALARMS", 60000)),
                          size_t(kProducers));
}

Alarm StormAlarm(int producer, int i) {
  Alarm a;
  a.host = HostId(producer);
  a.flow = FiveTuple{uint32_t(10 + producer), 20, uint16_t(i % 50000), 80, kProtoTcp};
  a.reason = AlarmReason::kPoorPerf;
  a.at = SimTime(i) * kNsPerMs;
  return a;
}

// Per-alarm subscriber work: a deterministic hash burn standing in for a
// debugging app consulting its state (~sub-microsecond).
uint64_t BurnWork(const Alarm& a) {
  uint64_t h = a.seq + 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 32; ++i) {
    h = HashMix64(h + uint64_t(i));
  }
  return h;
}

using bench::Percentile;

void StormSweep() {
  const size_t total = TotalAlarms();
  const size_t per_producer = total / kProducers;
  bench::Section("storm: 4 producer threads, 4 subscribers, block policy  "
                 "[sweep dispatch workers]");
  std::printf("%-9s %-10s %-12s %-12s %-12s %-8s %-8s %-6s\n", "workers", "alarms",
              "throughput", "p50 submit", "p99 submit", "batches", "maxbatch", "ok");
  for (size_t workers : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
    Controller controller;
    AlarmPipelineOptions opts;
    opts.queue_capacity = 8192;
    opts.max_batch = 512;
    opts.dispatch_workers = workers;
    controller.ConfigureAlarmPipeline(opts);
    std::atomic<uint64_t> burned{0};
    for (int s = 0; s < kSubscribers; ++s) {
      controller.SubscribeAlarms([&burned](const Alarm& a) { burned += BurnWork(a) & 1; });
    }
    AlarmHandler sink = controller.MakeAlarmSink();

    std::vector<std::vector<double>> lat(kProducers);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        lat[size_t(p)].reserve(per_producer);
        for (size_t i = 0; i < per_producer; ++i) {
          auto s0 = std::chrono::steady_clock::now();
          sink(StormAlarm(p, int(i)));
          lat[size_t(p)].push_back(
              std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - s0)
                  .count());
        }
      });
    }
    for (std::thread& t : producers) {
      t.join();
    }
    controller.FlushAlarms();
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    AlarmPipelineStats st = controller.alarm_stats();
    const std::vector<Alarm>& log = controller.alarm_log();
    bool ok = st.dropped == 0 && log.size() == per_producer * kProducers;
    for (size_t i = 0; ok && i < log.size(); ++i) {
      ok = log[i].seq == i;  // sequence-ordered at every worker count
    }
    std::vector<double> all;
    for (auto& v : lat) {
      all.insert(all.end(), v.begin(), v.end());
    }
    std::printf("%-9zu %-10zu %8.2f M/s %9.3f us %9.3f us %-8llu %-8llu %-6s\n", workers,
                log.size(), double(log.size()) / secs / 1e6, Percentile(all, 0.50),
                Percentile(all, 0.99), (unsigned long long)st.batches,
                (unsigned long long)st.max_batch, ok ? "yes" : "NO");
    const std::string section = "storm.workers_" + std::to_string(workers);
    bench::BenchReport::Global().Add(section, "alarms_per_sec", double(log.size()) / secs, "1/s");
    bench::BenchReport::Global().Add(section, "submit_p99", Percentile(all, 0.99), "us");
  }
}

void SuppressionSection() {
  bench::Section("suppression: one flapping (host, flow, reason) key, 1 s window");
  Controller controller;
  AlarmPipelineOptions opts;
  opts.suppression_window = kNsPerSec;
  controller.ConfigureAlarmPipeline(opts);
  const size_t n = 100000;
  AlarmHandler sink = controller.MakeAlarmSink();
  for (size_t i = 0; i < n; ++i) {
    Alarm a = StormAlarm(0, 0);
    a.at = SimTime(i) * kNsPerMs;  // 1000 repeats per suppression window
    sink(a);
  }
  controller.FlushAlarms();
  AlarmPipelineStats st = controller.alarm_stats();
  std::printf("submitted %llu -> delivered %llu, suppressed %llu (%.1f%%)\n",
              (unsigned long long)st.submitted, (unsigned long long)st.delivered,
              (unsigned long long)st.suppressed,
              100.0 * double(st.suppressed) / double(st.submitted));
}

void BackpressureSection() {
  bench::Section("backpressure: kDropNewest, 64-slot queue, one slow subscriber");
  Controller controller;
  AlarmPipelineOptions opts;
  opts.queue_capacity = 64;
  opts.max_batch = 64;
  opts.overflow = MpscOverflowPolicy::kDropNewest;
  controller.ConfigureAlarmPipeline(opts);
  controller.SubscribeAlarms([](const Alarm&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  });
  AlarmHandler sink = controller.MakeAlarmSink();
  const size_t n = 20000;
  for (size_t i = 0; i < n; ++i) {
    sink(StormAlarm(0, int(i)));
  }
  controller.FlushAlarms();
  AlarmPipelineStats st = controller.alarm_stats();
  std::printf("submitted %zu -> accepted %llu, dropped %llu (%.1f%%), log %zu\n", n,
              (unsigned long long)st.submitted, (unsigned long long)st.dropped,
              100.0 * double(st.dropped) / double(n), controller.alarm_log().size());
}

int Main() {
  bench::Banner("Alarm storm: batched MPSC intake + parallel subscriber dispatch",
                "intake stays off the agents' hot path; log is sequence-ordered and "
                "byte-identical at any dispatch worker count; block policy never drops");
  StormSweep();
  SuppressionSection();
  BackpressureSection();
  bench::BenchReport::Global().WriteIfRequested();
  return 0;
}

}  // namespace
}  // namespace pathdump

int main() { return pathdump::Main(); }
