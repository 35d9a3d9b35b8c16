// Alarm intake pipeline (src/controller/alarm_pipeline.h) coverage:
//  * determinism: the log is sequence-ordered and byte-identical across
//    1/4/16 dispatch workers, with one or many producer threads;
//  * suppression-window dedup and its stats counter;
//  * backpressure: kDropNewest counts rejects, kBlock never loses alarms;
//  * Flush() semantics incl. reentrancy from a subscriber, and drain on
//    destruction;
//  * the per-agent reader/writer lock: concurrent queries into the SAME
//    agent while its data path ingests (this file runs under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/apps/blackhole.h"
#include "src/apps/path_conformance.h"
#include "src/controller/alarm_pipeline.h"
#include "src/controller/controller.h"
#include "src/edge/fleet.h"
#include "src/netsim/network.h"
#include "src/topology/fat_tree.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

Alarm MakeAlarm(HostId host, uint16_t port, SimTime at,
                AlarmReason reason = AlarmReason::kPoorPerf) {
  Alarm a;
  a.host = host;
  a.flow = FiveTuple{10, 20, port, 80, kProtoTcp};
  a.reason = reason;
  a.at = at;
  return a;
}

// --- Determinism across dispatch worker counts ---

TEST(AlarmPipelineTest, SingleProducerLogByteIdenticalAcrossDispatchWorkers) {
  auto run = [](size_t workers) {
    AlarmPipelineOptions opts;
    opts.dispatch_workers = workers;
    opts.max_batch = 16;  // force multiple batches
    AlarmPipeline pipe(opts);
    // A couple of subscribers so dispatch fan-out actually happens.
    std::atomic<uint64_t> sum{0};
    pipe.Subscribe([&sum](const Alarm& a) { sum += a.seq; });
    pipe.Subscribe([&sum](const Alarm& a) { sum += a.at >= 0 ? 1u : 0u; });
    for (int i = 0; i < 500; ++i) {
      pipe.Submit(MakeAlarm(HostId(i % 7), uint16_t(1000 + i), SimTime(i) * kNsPerMs));
    }
    pipe.Flush();
    return pipe.log();
  };
  std::vector<Alarm> base = run(1);
  ASSERT_EQ(base.size(), 500u);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].seq, i);
  }
  for (size_t workers : {size_t(4), size_t(16)}) {
    std::vector<Alarm> log = run(workers);
    EXPECT_EQ(log, base) << workers << " dispatch workers";
  }
}

TEST(AlarmPipelineTest, MultiProducerLogIsSequenceOrderedAndComplete) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 250;
  auto canonical = [](std::vector<Alarm> log) {
    // Producer interleaving is nondeterministic, so canonicalize by
    // (producer = host, index = at) before cross-worker comparison; seq
    // depends on interleaving and is wiped.
    for (Alarm& a : log) {
      a.seq = 0;
    }
    std::sort(log.begin(), log.end(), [](const Alarm& x, const Alarm& y) {
      return x.host != y.host ? x.host < y.host : x.at < y.at;
    });
    return log;
  };
  std::vector<Alarm> base;
  for (size_t workers : {size_t(1), size_t(4), size_t(16)}) {
    AlarmPipelineOptions opts;
    opts.dispatch_workers = workers;
    opts.queue_capacity = 64;  // keep producers bumping into backpressure
    AlarmPipeline pipe(opts);
    std::atomic<uint64_t> seen{0};
    pipe.Subscribe([&seen](const Alarm&) { ++seen; });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pipe, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          pipe.Submit(MakeAlarm(HostId(p), uint16_t(i), SimTime(i)));
        }
      });
    }
    for (std::thread& t : producers) {
      t.join();
    }
    pipe.Flush();
    const std::vector<Alarm>& log = pipe.log();
    ASSERT_EQ(log.size(), size_t(kProducers) * kPerProducer) << workers << " workers";
    EXPECT_EQ(seen.load(), log.size());
    // Sequence-ordered: seq is exactly the arrival total order.
    for (size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seq, i);
    }
    // Per-producer FIFO: each producer's alarms appear in emission order.
    std::vector<SimTime> last(kProducers, -1);
    for (const Alarm& a : log) {
      EXPECT_GT(a.at, last[size_t(a.host)]);
      last[size_t(a.host)] = a.at;
    }
    EXPECT_EQ(pipe.stats().dropped, 0u);  // default kBlock never drops
    if (base.empty()) {
      base = canonical(log);
    } else {
      EXPECT_EQ(canonical(log), base) << workers << " workers";
    }
  }
}

TEST(AlarmPipelineTest, EverySubscriberSeesSequenceOrder) {
  AlarmPipelineOptions opts;
  opts.dispatch_workers = 4;
  opts.max_batch = 8;
  AlarmPipeline pipe(opts);
  constexpr int kSubscribers = 5;
  std::vector<std::vector<uint64_t>> seen(kSubscribers);
  for (int s = 0; s < kSubscribers; ++s) {
    pipe.Subscribe([&seen, s](const Alarm& a) { seen[size_t(s)].push_back(a.seq); });
  }
  for (int i = 0; i < 300; ++i) {
    pipe.Submit(MakeAlarm(1, uint16_t(i), SimTime(i)));
  }
  pipe.Flush();
  for (int s = 0; s < kSubscribers; ++s) {
    ASSERT_EQ(seen[size_t(s)].size(), 300u) << "subscriber " << s;
    for (size_t i = 0; i < seen[size_t(s)].size(); ++i) {
      EXPECT_EQ(seen[size_t(s)][i], i) << "subscriber " << s;
    }
  }
}

// --- Suppression window ---

TEST(AlarmPipelineTest, SuppressionWindowDedupsRepeats) {
  AlarmPipelineOptions opts;
  opts.suppression_window = kNsPerSec;
  AlarmPipeline pipe(opts);
  pipe.Submit(MakeAlarm(1, 1000, 0));                  // admitted
  pipe.Submit(MakeAlarm(1, 1000, kNsPerSec / 2));      // same key, in window
  pipe.Submit(MakeAlarm(1, 1001, kNsPerSec / 2));      // different flow
  pipe.Submit(MakeAlarm(2, 1000, kNsPerSec / 2));      // different host
  pipe.Submit(MakeAlarm(1, 1000, kNsPerSec / 2,
                        AlarmReason::kNoProgress));    // different reason
  pipe.Submit(MakeAlarm(1, 1000, 2 * kNsPerSec));      // window expired
  pipe.Submit(MakeAlarm(1, 1000, 2 * kNsPerSec + 1));  // new window
  pipe.Flush();
  ASSERT_EQ(pipe.log().size(), 5u);
  EXPECT_EQ(pipe.log()[0].at, 0);
  EXPECT_EQ(pipe.log()[4].at, 2 * kNsPerSec);
  AlarmPipelineStats st = pipe.stats();
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.suppressed, 2u);
  EXPECT_EQ(st.delivered, 5u);
}

// --- Backpressure ---

TEST(AlarmPipelineTest, DropNewestPolicyCountsDrops) {
  AlarmPipelineOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch = 4;
  opts.overflow = MpscOverflowPolicy::kDropNewest;
  AlarmPipeline pipe(opts);
  std::promise<void> entered_p;
  std::promise<void> release_p;
  std::future<void> release_f = release_p.get_future();
  std::atomic<bool> entered{false};
  pipe.Subscribe([&](const Alarm&) {
    if (!entered.exchange(true)) {
      entered_p.set_value();
    }
    release_f.wait();
  });
  // Wedge the drain worker inside the subscriber...
  ASSERT_TRUE(pipe.Submit(MakeAlarm(1, 0, 0)));
  entered_p.get_future().wait();
  // ...then overflow the (4-slot) queue: exactly 4 accepted, 96 dropped.
  int accepted = 0;
  for (int i = 1; i <= 100; ++i) {
    accepted += pipe.Submit(MakeAlarm(1, uint16_t(i), SimTime(i))) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 4);
  release_p.set_value();
  pipe.Flush();
  AlarmPipelineStats st = pipe.stats();
  EXPECT_EQ(st.submitted, 5u);
  EXPECT_EQ(st.dropped, 96u);
  EXPECT_EQ(st.delivered, 5u);
  EXPECT_EQ(pipe.log().size(), 5u);
}

TEST(AlarmPipelineTest, BlockPolicyNeverDropsUnderStorm) {
  AlarmPipelineOptions opts;
  opts.queue_capacity = 2;  // tiny bound: producers must block, not lose
  opts.max_batch = 2;
  AlarmPipeline pipe(opts);
  std::atomic<uint64_t> seen{0};
  pipe.Subscribe([&seen](const Alarm&) { ++seen; });
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipe, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(pipe.Submit(MakeAlarm(HostId(p), uint16_t(i), SimTime(i))));
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  pipe.Flush();
  EXPECT_EQ(pipe.log().size(), size_t(kProducers) * kPerProducer);
  EXPECT_EQ(seen.load(), size_t(kProducers) * kPerProducer);
  AlarmPipelineStats st = pipe.stats();
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.submitted, uint64_t(kProducers) * kPerProducer);
}

// --- Flush semantics ---

TEST(AlarmPipelineTest, FlushFromSubscriberDoesNotDeadlock) {
  AlarmPipeline pipe;
  std::atomic<bool> ran{false};
  pipe.Subscribe([&](const Alarm&) {
    pipe.Flush();  // reentrant: must return immediately, not deadlock
    ran = true;
  });
  pipe.Submit(MakeAlarm(1, 1000, 0));
  pipe.Flush();
  EXPECT_TRUE(ran.load());
}

TEST(AlarmPipelineTest, DestructionDrainsEverythingSubmitted) {
  std::atomic<uint64_t> seen{0};
  {
    AlarmPipeline pipe;
    pipe.Subscribe([&seen](const Alarm&) { ++seen; });
    for (int i = 0; i < 200; ++i) {
      pipe.Submit(MakeAlarm(1, uint16_t(i), SimTime(i)));
    }
    // No Flush: the destructor must deliver all 200.
  }
  EXPECT_EQ(seen.load(), 200u);
}

// --- Controller integration ---

TEST(AlarmPipelineTest, ControllerReconfigureCarriesSubscribersAndSinks) {
  Controller controller;
  std::atomic<int> seen{0};
  controller.SubscribeAlarms([&seen](const Alarm&) { ++seen; });
  AlarmHandler sink = controller.MakeAlarmSink();  // made BEFORE reconfigure

  AlarmPipelineOptions opts;
  opts.suppression_window = kNsPerSec;
  controller.ConfigureAlarmPipeline(opts);
  EXPECT_EQ(controller.alarm_pipeline().options().suppression_window, kNsPerSec);

  sink(MakeAlarm(1, 1000, 0));
  sink(MakeAlarm(1, 1000, 1));  // suppressed by the new window
  controller.FlushAlarms();
  EXPECT_EQ(seen.load(), 1);
  ASSERT_EQ(controller.alarm_log().size(), 1u);
  EXPECT_EQ(controller.alarm_log()[0].seq, 0u);
  EXPECT_EQ(controller.alarm_stats().suppressed, 1u);
}

// --- Alarm-driven apps on the pipeline ---

TEST(AlarmPipelineTest, BlackholeMonitorDiagnosesFromAlarm) {
  Topology topo = BuildFatTree(4);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  AgentFleet fleet(&topo, &codec);
  Controller controller;
  controller.RegisterFleet(fleet);
  fleet.SetAlarmHandler(controller.MakeAlarmSink());
  BlackholeMonitor monitor(&controller, &fleet, &router);
  monitor.Start();

  // A sprayed flow expected on 4 ECMP paths; only 3 made it to the
  // destination TIB (a blackhole ate the 4th subflow).
  const FatTreeMeta& m = *topo.fat_tree();
  HostId src = topo.HostsOfTor(m.tor[0][0])[0];
  HostId dst = topo.HostsOfTor(m.tor[1][0])[0];
  FiveTuple flow = testutil::MakeFlow(topo, src, dst, 1000);
  auto paths = router.EcmpPaths(src, dst);
  ASSERT_EQ(paths.size(), 4u);
  for (size_t i = 1; i < paths.size(); ++i) {
    TibRecord r;
    r.flow = flow;
    r.path = CompactPath::FromPath(paths[i]);
    r.stime = 0;
    r.etime = kNsPerSec;
    r.bytes = 10000;
    r.pkts = 10;
    fleet.agent(dst).IngestRecord(r, r.etime);
  }
  fleet.agent(dst).RaiseAlarm(flow, AlarmReason::kNoProgress, {}, kNsPerSec);

  auto diagnoses = monitor.Diagnoses();  // flushes the pipeline
  EXPECT_EQ(monitor.alarms_seen(), 1u);
  ASSERT_EQ(diagnoses.size(), 1u);
  EXPECT_EQ(diagnoses[0].missing.size(), 1u);
  EXPECT_EQ(diagnoses[0].missing[0], paths[0]);
  EXPECT_FALSE(diagnoses[0].candidates.empty());
}

// --- Per-agent reader/writer lock (queries into the SAME agent) ---

TEST(AgentConcurrencyTest, ConcurrentQueriesDuringIngestAreSafe) {
  Topology topo = BuildFatTree(4);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  AgentFleet fleet(&topo, &codec);
  Controller controller;
  controller.RegisterFleet(fleet);
  fleet.SetAlarmHandler(controller.MakeAlarmSink());

  HostId src = topo.hosts()[0];
  HostId dst = topo.hosts().back();
  EdgeAgent& agent = fleet.agent(dst);
  // Every ingested record violates the policy, so the data-path thread
  // also storms the alarm pipeline while the readers run.
  ConformancePolicy policy;
  policy.max_path_switches = 2;
  InstallPathConformance(agent, policy);
  // The §2.3 monitor's periodic body resets retx streaks mid-Tick; a
  // reader polls GetPoorTcpFlows concurrently (both touch retx_).
  agent.InstallPoorTcpMonitor(200 * kNsPerMs);

  constexpr int kRecords = 1500;
  Path path = router.EcmpPaths(src, dst)[0];
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kRecords; ++i) {
      TibRecord r;
      r.flow = testutil::MakeFlow(topo, src, dst, uint16_t(1000 + i % 50));
      r.path = CompactPath::FromPath(path);
      r.stime = SimTime(i);
      r.etime = SimTime(i) + kNsPerMs;
      r.bytes = 1000;
      r.pkts = 1;
      agent.IngestRecord(r, r.etime);
      // A retransmitting packet per record keeps the retx monitor hot and
      // periodically fires the poor-TCP query (timestamps stay inside the
      // idle timeout, so no trajectory eviction muddies the TIB count).
      Packet pkt;
      pkt.flow = r.flow;
      pkt.src_host = src;
      pkt.dst_host = dst;
      pkt.is_retx = true;
      agent.OnPacket(pkt, SimTime(i) * kNsPerMs);
    }
    done = true;
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> observed{0};
  for (int t = 0; t < 5; ++t) {
    readers.emplace_back([&, t] {
      LinkId any{kInvalidNode, kInvalidNode};
      FiveTuple probe = testutil::MakeFlow(topo, src, dst, 1000);
      while (!done.load()) {
        switch (t % 5) {
          case 0:
            observed += agent.GetPaths(probe, any, TimeRange::All()).size();
            break;
          case 1:
            observed += agent.GetFlows(any, TimeRange::All()).size();
            break;
          case 2:
            observed += agent.TopK(5, TimeRange::All()).items.size();
            break;
          case 3:
            observed += agent.GetPoorTcpFlows().size();
            break;
          default:
            observed += agent.GetCount(Flow{probe, {}}, TimeRange::All()).pkts;
            break;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }
  // Quiescent end state is exact: every record landed, every conformance
  // alarm logged (the poor-TCP monitor adds kPoorPerf alarms on top).
  EXPECT_EQ(agent.tib().size(), size_t(kRecords));
  size_t pc_fail = 0;
  for (const Alarm& a : controller.alarm_log()) {
    pc_fail += a.reason == AlarmReason::kPathConformance ? 1 : 0;
  }
  EXPECT_EQ(pc_fail, size_t(kRecords));
  EXPECT_EQ(controller.alarm_stats().dropped, 0u);
  EXPECT_EQ(agent.GetPaths(testutil::MakeFlow(topo, src, dst, 1000),
                           LinkId{kInvalidNode, kInvalidNode}, TimeRange::All())
                .size(),
            1u);
}

}  // namespace
}  // namespace pathdump
