// Metrics registry + tracer contract tests (the PR 7 tentpole):
//
//  1. Concurrency — many threads hammering one counter/histogram lose
//     nothing (runs under ThreadSanitizer in CI via the tsan label).
//  2. Snapshot algebra — Diff/Merge are exact inverses on counters and
//     histogram buckets, and identical state serializes identically.
//  3. Trace ring — overflow keeps exactly the newest spans, in order.
//  4. Chrome-trace export — structurally well-formed JSON with one event
//     per retained span.
//  5. Acceptance — one in-process standing-query epoch leaves (a) a
//     snapshot diff whose pipeline counters are internally consistent
//     (produced == folded) and (b) the full tick -> take_delta -> fold ->
//     materialize span chain carrying matching (sub, host, epoch) keys.
//  6. Pulled sources — the registry sums live instances' stats (the
//     depth gauge of two pipelines is their summed queue), keeps
//     destroyed instances' counters, drops their gauges, and stays
//     monotone while instances come and go under concurrent snapshots.
//
// Registry values are process-wide totals shared by every test in this
// binary, so every assertion diffs two snapshots instead of reading
// absolutes.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/traffic_measure.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/controller/alarm_pipeline.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/workload/synthetic_records.h"

namespace pathdump {
namespace {

uint64_t CounterIn(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

int64_t GaugeIn(const MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0 : it->second;
}

// --- 1. Concurrent recording ---

TEST(MetricsConcurrency, CountersAndHistogramsLoseNothingAcrossThreads) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  LatencyHistogram* hist = MetricsRegistry::Global().GetHistogram("test.concurrent_hist_us");
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add();
        hist->Record(uint64_t(t * kPerThread + i) % 5000);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().Diff(before);
  EXPECT_EQ(CounterIn(diff, "test.concurrent_counter"), uint64_t(kThreads) * kPerThread);
  const HistogramSnapshot& h = diff.histograms.at("test.concurrent_hist_us");
  EXPECT_EQ(h.count, uint64_t(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : h.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, h.count);
}

TEST(MetricsConcurrency, SameNameReturnsSameHandle) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.shared_handle");
  Counter* b = MetricsRegistry::Global().GetCounter("test.shared_handle");
  EXPECT_EQ(a, b);
}

TEST(MetricsRuntime, DisabledRecordingIsDropped) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.disable_check");
  const uint64_t before = counter->value();
  MetricsRegistry::SetEnabled(false);
  counter->Add(100);
  MetricsRegistry::SetEnabled(true);
  EXPECT_EQ(counter->value(), before);
  counter->Add(1);
  EXPECT_EQ(counter->value(), before + 1);
}

// --- 2. Snapshot algebra ---

TEST(MetricsSnapshots, DiffIsExactAndDeterministic) {
  Counter* counter = MetricsRegistry::Global().GetCounter("test.diff_counter");
  LatencyHistogram* hist = MetricsRegistry::Global().GetHistogram("test.diff_hist_us");
  const MetricsSnapshot s0 = MetricsRegistry::Global().Snapshot();
  counter->Add(7);
  hist->Record(100);
  hist->Record(3000);
  const MetricsSnapshot s1 = MetricsRegistry::Global().Snapshot();

  const MetricsSnapshot diff = s1.Diff(s0);
  EXPECT_EQ(CounterIn(diff, "test.diff_counter"), 7u);
  const HistogramSnapshot& h = diff.histograms.at("test.diff_hist_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 3100u);
  EXPECT_EQ(h.buckets[LatencyHistogram::BucketOf(100)], 1u);
  EXPECT_EQ(h.buckets[LatencyHistogram::BucketOf(3000)], 1u);

  // Merge(diff) onto the earlier snapshot reproduces the later one for
  // counters and histograms (gauges keep levels, not deltas).
  MetricsSnapshot rebuilt = s0;
  rebuilt.Merge(diff);
  EXPECT_EQ(rebuilt.counters, s1.counters);
  EXPECT_EQ(rebuilt.histograms, s1.histograms);

  // Determinism: recomputing the same diff serializes identically, both
  // machine- and human-readable.
  const MetricsSnapshot diff2 = s1.Diff(s0);
  EXPECT_EQ(diff, diff2);
  EXPECT_EQ(diff.ToJson(), diff2.ToJson());
  EXPECT_EQ(diff.ToText(), diff2.ToText());
  EXPECT_NE(diff.ToJson().find("\"counters\""), std::string::npos);
}

// --- 3 + 4. Trace ring + Chrome export ---

TEST(TraceRing, OverflowKeepsNewestSpansInOrder) {
  Tracer tracer(/*capacity=*/16);
  for (uint64_t i = 0; i < 40; ++i) {
    tracer.Record("span", i * 10, 5, TraceKeys{i, 0, 0});
  }
  const std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 16u);
  // The newest 16 of 40 records survive: seq 24..39, oldest first.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 24 + i);
    EXPECT_EQ(spans[i].keys.sub, 24 + i);
  }
  EXPECT_EQ(tracer.recorded(), 40u);
}

TEST(TraceRing, ChromeTraceJsonIsWellFormed) {
  Tracer tracer(/*capacity=*/8);
  tracer.Record("alpha", 10, 5, TraceKeys{1, 2, 3});
  tracer.Record("beta", 20, 1, TraceKeys{4, 5, 6});
  std::string json;
  tracer.WriteChromeTrace(&json);

  // Structural checks: balanced braces/brackets, the two event names,
  // and the correlation keys present in args.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"sub\":4"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":6"), std::string::npos);
}

TEST(TraceRing, ScopeRecordsWithLateKeys) {
  Tracer& tracer = Tracer::Global();
  const uint64_t before = tracer.recorded();
  {
    TraceScope span("test.scope", TraceKeys{});
    span.set_keys(TraceKeys{42, 7, 9});
  }
  ASSERT_EQ(tracer.recorded(), before + 1);
  const std::vector<TraceSpan> spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());
  const TraceSpan& last = spans.back();
  EXPECT_STREQ(last.name, "test.scope");
  EXPECT_EQ(last.keys.sub, 42u);
  EXPECT_EQ(last.keys.host, 7u);
  EXPECT_EQ(last.keys.epoch, 9u);
}

// --- 5. Acceptance: one epoch through the real pipeline ---

TEST(EpochPipeline, SnapshotConsistentAndSpanChainComplete) {
  Topology topo = BuildFatTree(4);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Controller controller;
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  std::vector<HostId> hosts;
  for (size_t a = 0; a < 2; ++a) {
    HostId h = topo.hosts()[a];
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = 4;
    agents.push_back(std::make_unique<EdgeAgent>(h, &topo, &codec, cfg));
    controller.RegisterAgent(agents.back().get());
    hosts.push_back(h);
  }

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Tracer::Global().Clear();

  SubscriptionManager manager(&controller);
  const uint64_t sub = SubscribeTopK(manager, hosts, 100);
  for (auto& agent : agents) {
    IngestSynthetic(agent->tib(), agent->host(), 500, 0x7A,
                    {.ip_space = 512, .switch_space = 24});
  }
  manager.TickEpoch();
  manager.Flush();
  (void)manager.Materialize(sub);

  // (a) Counter consistency across the snapshot diff: every produced
  // delta was folded (in-process delivery: no duplicates, no orphans,
  // no decode path), and both sides saw one delta per host.
  const MetricsSnapshot diff = MetricsRegistry::Global().Snapshot().Diff(before);
  const uint64_t produced = CounterIn(diff, "standing.deltas_produced");
  EXPECT_EQ(produced, hosts.size());
  EXPECT_EQ(produced,
            CounterIn(diff, "sub.deltas_folded") + CounterIn(diff, "sub.deltas_orphaned"));
  EXPECT_EQ(CounterIn(diff, "sub.deltas_reordered"), 0u);
  EXPECT_EQ(CounterIn(diff, "epoch.ticks"), hosts.size());
  EXPECT_GT(CounterIn(diff, "tib.inserts"), 0u);
  EXPECT_GT(CounterIn(diff, "sub.channel.submitted"), 0u);
  EXPECT_EQ(CounterIn(diff, "sub.channel.submitted"), CounterIn(diff, "sub.channel.processed"));

  // (b) Span chain: for each host's epoch-1 delta the stages all appear
  // with the same correlation keys.
  const std::vector<TraceSpan> spans = Tracer::Global().Snapshot();
  for (HostId h : hosts) {
    for (const char* stage : {"epoch.tick", "standing.take_delta", "fold"}) {
      bool found = false;
      for (const TraceSpan& s : spans) {
        if (std::string(s.name) == stage && s.keys.sub == sub && s.keys.host == h &&
            s.keys.epoch == 1) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing span " << stage << " for host " << h;
    }
  }
  bool materialized = false;
  for (const TraceSpan& s : spans) {
    if (std::string(s.name) == "materialize" && s.keys.sub == sub) {
      materialized = true;
    }
  }
  EXPECT_TRUE(materialized);
}

// --- 6. Pulled sources ---

TEST(MetricsSources, TwoLivePipelinesSumAndDestroyedOnesKeepTheirCounters) {
  constexpr int kAlarms = 6;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::latch entered(2);  // each pipeline's drain is inside its subscriber
  std::latch release(1);
  AlarmPipelineStats total;
  {
    AlarmPipelineOptions opts;
    opts.max_batch = 1;
    AlarmPipeline a(opts);
    AlarmPipeline b(opts);
    for (AlarmPipeline* p : {&a, &b}) {
      p->Subscribe([&](const Alarm& alarm) {
        if (alarm.seq == 0) {
          entered.count_down();
        }
        release.wait();
      });
      for (int i = 0; i < kAlarms; ++i) {
        Alarm alarm;
        alarm.host = HostId(i);
        EXPECT_TRUE(p->Submit(alarm));
      }
    }
    entered.wait();

    // Both drains hold their first alarm; the rest are queued.
    const AlarmPipelineStats sa = a.stats();
    const AlarmPipelineStats sb = b.stats();
    const MetricsSnapshot live = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(GaugeIn(live, "alarm.channel.depth") - GaugeIn(before, "alarm.channel.depth"),
              2 * (kAlarms - 1));
    const MetricsSnapshot diff = live.Diff(before);
    EXPECT_EQ(CounterIn(diff, "alarm.channel.submitted"), sa.submitted + sb.submitted);
    EXPECT_EQ(CounterIn(diff, "alarm.channel.submitted"), uint64_t(2 * kAlarms));
    EXPECT_EQ(CounterIn(diff, "alarm.channel.batches"), sa.batches + sb.batches);
    EXPECT_EQ(CounterIn(diff, "alarm.delivered"), sa.delivered + sb.delivered);
    EXPECT_EQ(CounterIn(diff, "alarm.suppressed"), sa.suppressed + sb.suppressed);

    release.count_down();
    a.Flush();
    b.Flush();
    total.submitted = a.stats().submitted + b.stats().submitted;
    total.delivered = a.stats().delivered + b.stats().delivered;
    total.batches = a.stats().batches + b.stats().batches;
  }

  // Destroyed: the counters keep the final totals, the gauge drops out.
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot diff = after.Diff(before);
  EXPECT_EQ(total.submitted, uint64_t(2 * kAlarms));
  EXPECT_EQ(CounterIn(diff, "alarm.channel.submitted"), total.submitted);
  EXPECT_EQ(CounterIn(diff, "alarm.channel.processed"), total.submitted);
  EXPECT_EQ(CounterIn(diff, "alarm.channel.batches"), total.batches);
  EXPECT_EQ(CounterIn(diff, "alarm.delivered"), total.delivered);
  EXPECT_EQ(GaugeIn(after, "alarm.channel.depth"), GaugeIn(before, "alarm.channel.depth"));
}

TEST(MetricsSources, SnapshotsStayMonotoneWhileSourcesComeAndGo) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  constexpr uint64_t kPerSource = 3;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot().Diff(before);
      const uint64_t now = CounterIn(snap, "test.source_churn");
      EXPECT_GE(now, last);
      last = now;
      const int64_t live = GaugeIn(snap, "test.source_churn_live");
      EXPECT_GE(live, 0);
      EXPECT_LE(live, kThreads);
    }
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::atomic<uint64_t> events{0};
        MetricsSource source([&events](MetricsSnapshot& snap) {
          snap.counters["test.source_churn"] += events.load(std::memory_order_relaxed);
          snap.gauges["test.source_churn_live"] += 1;
        });
        for (uint64_t e = 0; e < kPerSource; ++e) {
          events.fetch_add(1, std::memory_order_relaxed);
        }
        if (t == 0 && i % 50 == 0) {
          // A real component too: its channel and drain thread churn
          // alongside the bare sources.
          AlarmPipeline pipeline;
          pipeline.Submit(Alarm{});
        }
      }
    });
  }
  for (auto& th : churners) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot diff = after.Diff(before);
  EXPECT_EQ(CounterIn(diff, "test.source_churn"), uint64_t(kThreads) * kPerThread * kPerSource);
  EXPECT_EQ(GaugeIn(after, "test.source_churn_live"), 0);
  EXPECT_EQ(CounterIn(diff, "alarm.channel.submitted"), CounterIn(diff, "alarm.delivered"));
}

}  // namespace
}  // namespace pathdump
