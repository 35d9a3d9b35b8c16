#include <gtest/gtest.h>

#include "src/edge/edge_agent.h"
#include "src/edge/fleet.h"
#include "src/edge/packet_pipeline.h"
#include "src/edge/query.h"
#include "src/edge/tib.h"
#include "src/edge/trajectory_memory.h"
#include "src/netsim/network.h"
#include "src/topology/fat_tree.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

// --- CompactPath / TibRecord ---

TEST(CompactPathTest, RoundTrip) {
  Path p{3, 7, 12, 9, 4};
  CompactPath c = CompactPath::FromPath(p);
  EXPECT_EQ(c.len, 5);
  EXPECT_EQ(c.ToPath(), p);
}

TEST(CompactPathTest, ContainsQueries) {
  CompactPath c = CompactPath::FromPath({1, 2, 3});
  EXPECT_TRUE(c.ContainsSwitch(2));
  EXPECT_FALSE(c.ContainsSwitch(9));
  EXPECT_TRUE(c.ContainsDirectedLink(1, 2));
  EXPECT_TRUE(c.ContainsDirectedLink(2, 3));
  EXPECT_FALSE(c.ContainsDirectedLink(2, 1));
  EXPECT_FALSE(c.ContainsDirectedLink(1, 3));
}

TEST(CompactPathTest, WildcardLinkQueries) {
  CompactPath c = CompactPath::FromPath({1, 2, 3});
  EXPECT_TRUE(c.MatchesLinkQuery(LinkId{kInvalidNode, kInvalidNode}));  // (*, *)
  EXPECT_TRUE(c.MatchesLinkQuery(LinkId{kInvalidNode, 2}));             // (?, 2)
  EXPECT_TRUE(c.MatchesLinkQuery(LinkId{2, kInvalidNode}));             // (2, ?)
  EXPECT_FALSE(c.MatchesLinkQuery(LinkId{kInvalidNode, 1}));  // nothing enters 1
  EXPECT_FALSE(c.MatchesLinkQuery(LinkId{3, kInvalidNode}));  // nothing leaves 3
  EXPECT_TRUE(c.MatchesLinkQuery(LinkId{1, 2}));
  EXPECT_FALSE(c.MatchesLinkQuery(LinkId{3, 2}));
}

TEST(CompactPathTest, SingleSwitchPath) {
  CompactPath c = CompactPath::FromPath({5});
  EXPECT_TRUE(c.MatchesLinkQuery(LinkId{kInvalidNode, kInvalidNode}));
  EXPECT_FALSE(c.MatchesLinkQuery(LinkId{kInvalidNode, 5}));  // no entering link
}

// --- Tib ---

TibRecord MakeRecord(FiveTuple flow, Path path, SimTime s, SimTime e, uint64_t bytes,
                     uint32_t pkts) {
  TibRecord r;
  r.flow = flow;
  r.path = CompactPath::FromPath(path);
  r.stime = s;
  r.etime = e;
  r.bytes = bytes;
  r.pkts = pkts;
  return r;
}

TEST(TibTest, FlowIndexAndTimeFilter) {
  Tib tib;
  FiveTuple f1{1, 2, 10, 80, 6};
  FiveTuple f2{1, 2, 11, 80, 6};
  tib.Insert(MakeRecord(f1, {1, 2, 3}, 0, 100, 1000, 2));
  tib.Insert(MakeRecord(f1, {1, 4, 3}, 200, 300, 500, 1));
  tib.Insert(MakeRecord(f2, {1, 2, 3}, 0, 100, 700, 1));

  EXPECT_EQ(tib.RecordsOfFlow(f1, TimeRange::All()).size(), 2u);
  EXPECT_EQ(tib.RecordsOfFlow(f1, TimeRange{0, 150}).size(), 1u);
  EXPECT_EQ(tib.RecordsOfFlow(f1, TimeRange{150, 400}).size(), 1u);
  EXPECT_EQ(tib.RecordsOfFlow(f2, TimeRange::All()).size(), 1u);
  EXPECT_EQ(tib.RecordsOfFlow(FiveTuple{9, 9, 9, 9, 9}, TimeRange::All()).size(), 0u);
}

TEST(TibTest, ScanFallbackWithoutIndex) {
  TibOptions opt;
  opt.index_by_flow = false;
  Tib tib(opt);
  FiveTuple f1{1, 2, 10, 80, 6};
  tib.Insert(MakeRecord(f1, {1, 2, 3}, 0, 100, 1000, 2));
  EXPECT_EQ(tib.RecordsOfFlow(f1, TimeRange::All()).size(), 1u);
}

TEST(TibTest, LinkQueries) {
  Tib tib;
  FiveTuple f1{1, 2, 10, 80, 6};
  tib.Insert(MakeRecord(f1, {1, 2, 3}, 0, 100, 1000, 2));
  tib.Insert(MakeRecord(f1, {1, 4, 3}, 0, 100, 500, 1));
  // Each record is its own (flow, path) pair, so a FlowList poll counts
  // the matching records, and a CountSummary poll sums exactly them.
  auto flows_on = [&tib](const LinkId& link, const TimeRange& range) {
    return std::get<FlowList>(
               PollTib(tib, {.kind = StandingQuerySpec::Kind::kFlowList,
                             .link = link,
                             .range = range}))
        .flows.size();
  };
  auto count_on = [&tib](const LinkId& link, const TimeRange& range) {
    return std::get<CountSummary>(PollTib(
        tib, {.kind = StandingQuerySpec::Kind::kCountSummary, .link = link, .range = range}));
  };
  EXPECT_EQ(flows_on(LinkId{1, 2}, TimeRange::All()), 1u);
  EXPECT_EQ(flows_on(LinkId{kInvalidNode, 3}, TimeRange::All()), 2u);
  EXPECT_EQ(flows_on(LinkId{kInvalidNode, kInvalidNode}, TimeRange::All()), 2u);
  EXPECT_EQ(flows_on(LinkId{1, 2}, TimeRange{200, 300}), 0u);
  EXPECT_EQ(count_on(LinkId{1, 2}, TimeRange::All()), (CountSummary{1000, 2}));
  EXPECT_EQ(count_on(LinkId{kInvalidNode, 3}, TimeRange::All()), (CountSummary{1500, 3}));
  EXPECT_EQ(count_on(LinkId{1, 2}, TimeRange{200, 300}), CountSummary{});
}

TEST(TibTest, ApproxBytesGrows) {
  Tib tib;
  size_t empty = tib.ApproxBytes();
  for (int i = 0; i < 1000; ++i) {
    FiveTuple f{1, 2, uint16_t(i), 80, 6};
    tib.Insert(MakeRecord(f, {1, 2, 3}, 0, 100, 100, 1));
  }
  EXPECT_GT(tib.ApproxBytes(), empty + 1000 * sizeof(TibRecord) / 2);
  tib.Clear();
  EXPECT_EQ(tib.size(), 0u);
}

// --- TrajectoryMemory ---

Packet MakePacket(FiveTuple flow, std::vector<LinkLabel> tags, uint32_t bytes = 1000,
                  bool fin = false) {
  Packet p;
  p.flow = flow;
  p.tags = std::move(tags);
  p.size_bytes = bytes;
  p.fin = fin;
  return p;
}

TEST(TrajectoryMemoryTest, AggregatesPerPath) {
  TrajectoryMemory mem(5 * kNsPerSec);
  FiveTuple f{1, 2, 10, 80, 6};
  mem.OnPacket(MakePacket(f, {7}), 0);
  mem.OnPacket(MakePacket(f, {7}), 10);
  mem.OnPacket(MakePacket(f, {8}), 20);  // same flow, different path
  EXPECT_EQ(mem.size(), 2u);

  auto snap = mem.Snapshot();
  uint64_t total_bytes = 0;
  for (const auto& r : snap) {
    total_bytes += r.bytes;
  }
  EXPECT_EQ(total_bytes, 3000u);
  EXPECT_EQ(mem.total_updates(), 3u);
}

TEST(TrajectoryMemoryTest, FinTriggersEvictionOnSweep) {
  TrajectoryMemory mem(5 * kNsPerSec);
  FiveTuple f{1, 2, 10, 80, 6};
  mem.OnPacket(MakePacket(f, {7}), 0);
  mem.OnPacket(MakePacket(f, {7}, 500, /*fin=*/true), 100);

  std::vector<TrajectoryMemory::Record> evicted;
  mem.Sweep(200, [&](const TrajectoryMemory::Record& r) { evicted.push_back(r); });
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_TRUE(evicted[0].closed);
  EXPECT_EQ(evicted[0].bytes, 1500u);
  EXPECT_EQ(evicted[0].pkts, 2u);
  EXPECT_EQ(evicted[0].stime, 0);
  EXPECT_EQ(evicted[0].etime, 100);
  EXPECT_EQ(mem.size(), 0u);
}

TEST(TrajectoryMemoryTest, IdleTimeoutEviction) {
  TrajectoryMemory mem(5 * kNsPerSec);
  FiveTuple f{1, 2, 10, 80, 6};
  mem.OnPacket(MakePacket(f, {7}), 0);
  int evicted = 0;
  mem.Sweep(4 * kNsPerSec, [&](const auto&) { ++evicted; });
  EXPECT_EQ(evicted, 0) << "not yet idle long enough";
  mem.Sweep(5 * kNsPerSec, [&](const auto&) { ++evicted; });
  EXPECT_EQ(evicted, 1);
}

TEST(TrajectoryMemoryTest, RstAlsoCloses) {
  TrajectoryMemory mem;
  FiveTuple f{1, 2, 10, 80, 6};
  Packet p = MakePacket(f, {7});
  p.rst = true;
  mem.OnPacket(p, 0);
  int evicted = 0;
  mem.Sweep(1, [&](const auto&) { ++evicted; });
  EXPECT_EQ(evicted, 1);
}

TEST(TrajectoryMemoryTest, FlushEvictsEverything) {
  TrajectoryMemory mem;
  for (uint16_t i = 0; i < 10; ++i) {
    mem.OnPacket(MakePacket(FiveTuple{1, 2, i, 80, 6}, {i}), 0);
  }
  int evicted = 0;
  mem.Flush([&](const auto&) { ++evicted; });
  EXPECT_EQ(evicted, 10);
  EXPECT_EQ(mem.size(), 0u);
}

// --- QueryResult serialization + merge ---

TEST(QueryResultTest, SizesMonotone) {
  FlowSizeHistogram small;
  small.bins[0] = 1;
  FlowSizeHistogram big;
  for (int i = 0; i < 100; ++i) {
    big.bins[i] = 1;
  }
  EXPECT_LT(SerializedBytes(QueryResult{small}), SerializedBytes(QueryResult{big}));
  EXPECT_GT(SerializedBytes(QueryResult{std::monostate{}}), 0u);
}

TEST(QueryResultTest, HistogramMerge) {
  FlowSizeHistogram a;
  a.bins[0] = 2;
  a.bins[1] = 1;
  FlowSizeHistogram b;
  b.bins[1] = 3;
  b.bins[2] = 1;
  QueryResult acc = a;
  MergeQueryResult(acc, QueryResult{b});
  const auto& m = std::get<FlowSizeHistogram>(acc);
  EXPECT_EQ(m.bins.at(0), 2);
  EXPECT_EQ(m.bins.at(1), 4);
  EXPECT_EQ(m.bins.at(2), 1);
}

TEST(QueryResultTest, TopKMergeTrims) {
  TopKFlows a;
  a.k = 2;
  a.items = {{10, FiveTuple{1, 2, 1, 1, 6}}, {5, FiveTuple{1, 2, 2, 1, 6}}};
  TopKFlows b;
  b.k = 2;
  b.items = {{7, FiveTuple{1, 2, 3, 1, 6}}};
  QueryResult acc = a;
  MergeQueryResult(acc, QueryResult{b});
  const auto& t = std::get<TopKFlows>(acc);
  ASSERT_EQ(t.items.size(), 2u);
  EXPECT_EQ(t.items[0].first, 10u);
  EXPECT_EQ(t.items[1].first, 7u);
}

TEST(QueryResultTest, MonostateAccAdoptsInput) {
  QueryResult acc;
  CountSummary c{100, 2};
  MergeQueryResult(acc, QueryResult{c});
  EXPECT_EQ(std::get<CountSummary>(acc).bytes, 100u);
  MergeQueryResult(acc, QueryResult{CountSummary{50, 1}});
  EXPECT_EQ(std::get<CountSummary>(acc).bytes, 150u);
  EXPECT_EQ(std::get<CountSummary>(acc).pkts, 3u);
}

// --- EdgeAgent end-to-end over the per-packet network ---

class EdgeAgentPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = BuildFatTree(4);
    net_ = std::make_unique<Network>(&topo_, NetworkConfig{});
    fleet_ = std::make_unique<AgentFleet>(&topo_, &net_->codec());
    fleet_->AttachTo(*net_);
  }

  // Sends `bytes` from src to dst as a segmented TCP flow ending in FIN.
  FiveTuple SendFlow(HostId src, HostId dst, uint64_t bytes, SimTime at,
                     uint16_t src_port = 10000) {
    FiveTuple flow = testutil::MakeFlow(topo_, src, dst, src_port);
    auto pkts = SegmentFlowHelper(flow, src, dst, bytes);
    SimTime t = at;
    for (Packet& p : pkts) {
      net_->InjectPacket(p, t);
      t += 10 * kNsPerUs;
    }
    return flow;
  }

  static std::vector<Packet> SegmentFlowHelper(const FiveTuple& flow, HostId src, HostId dst,
                                               uint64_t bytes) {
    std::vector<Packet> out;
    uint64_t remaining = bytes;
    uint32_t seq = 0;
    while (remaining > 0) {
      uint32_t sz = uint32_t(std::min<uint64_t>(remaining, kDefaultMss));
      Packet p;
      p.flow = flow;
      p.src_host = src;
      p.dst_host = dst;
      p.seq = seq++;
      p.size_bytes = std::max(sz, kMinPacketBytes);
      remaining -= sz;
      p.fin = remaining == 0;
      out.push_back(p);
    }
    return out;
  }

  Topology topo_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<AgentFleet> fleet_;
};

TEST_F(EdgeAgentPipeline, FlowAppearsInTibAfterFin) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  FiveTuple flow = SendFlow(src, dst, 10000, 0);
  net_->events().RunAll();
  EdgeAgent& agent = fleet_->agent(dst);
  agent.FlushAll(net_->events().now());

  ASSERT_EQ(agent.tib().size(), 1u);
  const TibRecord rec = agent.tib().record(0).value();
  EXPECT_EQ(rec.flow, flow);
  EXPECT_EQ(rec.pkts, 7u);  // ceil(10000/1460)
  EXPECT_GE(rec.bytes, 10000u);
  EXPECT_EQ(rec.path.len, 5);
  EXPECT_EQ(rec.path.sw[0], topo_.TorOfHost(src));
  EXPECT_EQ(rec.path.sw[4], topo_.TorOfHost(dst));
}

TEST_F(EdgeAgentPipeline, HostApiGetters) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  FiveTuple flow = SendFlow(src, dst, 20000, 0);
  net_->events().RunAll();
  EdgeAgent& agent = fleet_->agent(dst);
  agent.FlushAll(net_->events().now());

  LinkId any{kInvalidNode, kInvalidNode};
  auto flows = agent.GetFlows(any, TimeRange::All());
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].id, flow);

  auto paths = agent.GetPaths(flow, any, TimeRange::All());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 5u);

  CountSummary c = agent.GetCount(Flow{flow, paths[0]}, TimeRange::All());
  EXPECT_GE(c.bytes, 20000u);
  EXPECT_EQ(c.pkts, 14u);

  // Count on a wrong path is zero.
  Path wrong = paths[0];
  std::swap(wrong[1], wrong[3]);
  if (wrong != paths[0]) {
    CountSummary zero = agent.GetCount(Flow{flow, wrong}, TimeRange::All());
    EXPECT_EQ(zero.bytes, 0u);
  }

  EXPECT_GT(agent.GetDuration(Flow{flow, {}}, TimeRange::All()), 0);
}

TEST_F(EdgeAgentPipeline, GetFlowsFiltersByLink) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  SendFlow(src, dst, 5000, 0);
  net_->events().RunAll();
  EdgeAgent& agent = fleet_->agent(dst);
  agent.FlushAll(net_->events().now());

  auto paths = agent.GetPaths(agent.tib().record(0)->flow, LinkId{kInvalidNode, kInvalidNode},
                              TimeRange::All());
  ASSERT_EQ(paths.size(), 1u);
  LinkId used{paths[0][1], paths[0][2]};
  EXPECT_EQ(agent.GetFlows(used, TimeRange::All()).size(), 1u);
  LinkId unused{paths[0][2], paths[0][1]};  // reverse direction unused
  EXPECT_EQ(agent.GetFlows(unused, TimeRange::All()).size(), 0u);
}

TEST_F(EdgeAgentPipeline, PoorTcpFlowsAndAlarms) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  EdgeAgent& dst_agent = fleet_->agent(dst);

  std::vector<Alarm> alarms;
  dst_agent.SetAlarmHandler([&](const Alarm& a) { alarms.push_back(a); });

  FiveTuple flow = testutil::MakeFlow(topo_, src, dst);
  // Three consecutive retransmitted segments (same seq, is_retx).
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.flow = flow;
    p.src_host = src;
    p.dst_host = dst;
    p.seq = 5;
    p.is_retx = true;
    net_->InjectPacket(p, SimTime(i) * kNsPerMs);
  }
  net_->events().RunAll();

  auto poor = dst_agent.GetPoorTcpFlows(3);
  ASSERT_EQ(poor.size(), 1u);
  EXPECT_EQ(poor[0], flow);

  // The §2.3 monitoring query raises POOR_PERF for each poor flow.
  dst_agent.InstallQuery(0, [](EdgeAgent& a, SimTime now) {
    for (const FiveTuple& f : a.GetPoorTcpFlows(3)) {
      a.RaiseAlarm(f, AlarmReason::kPoorPerf, {}, now);
    }
  });
  dst_agent.Tick(net_->events().now() + kNsPerSec);
  ASSERT_FALSE(alarms.empty());
  EXPECT_EQ(alarms[0].reason, AlarmReason::kPoorPerf);
  EXPECT_EQ(alarms[0].flow, flow);

  // Forward progress clears the consecutive counter.
  Packet ok;
  ok.flow = flow;
  ok.src_host = src;
  ok.dst_host = dst;
  ok.seq = 6;
  net_->InjectPacket(ok, net_->events().now() + kNsPerSec);
  net_->events().RunAll();
  EXPECT_TRUE(dst_agent.GetPoorTcpFlows(3).empty());
}

TEST_F(EdgeAgentPipeline, RecordHooksFire) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  EdgeAgent& agent = fleet_->agent(dst);
  int fired = 0;
  int id = agent.AddRecordHook([&](EdgeAgent&, const TibRecord&, SimTime) { ++fired; });
  SendFlow(src, dst, 1000, 0);
  net_->events().RunAll();
  agent.FlushAll(net_->events().now());
  EXPECT_EQ(fired, 1);
  agent.RemoveRecordHook(id);
  SendFlow(src, dst, 1000, net_->events().now() + kNsPerSec, 10001);
  net_->events().RunAll();
  agent.FlushAll(net_->events().now());
  EXPECT_EQ(fired, 1);
}

TEST_F(EdgeAgentPipeline, InstalledPeriodicQueryRunsAtPeriod) {
  EdgeAgent& agent = fleet_->agent(topo_.hosts().front());
  int runs = 0;
  int id = agent.InstallQuery(kNsPerSec, [&](EdgeAgent&, SimTime) { ++runs; });
  agent.Tick(0);
  agent.Tick(kNsPerMs);  // within the period: must not run again
  EXPECT_EQ(runs, 1);
  agent.Tick(kNsPerSec + 1);
  EXPECT_EQ(runs, 2);
  agent.UninstallQuery(id);
  agent.Tick(3 * kNsPerSec);
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(agent.InstalledQueryCount(), 0u);
}

TEST_F(EdgeAgentPipeline, TrajectoryCacheHitsOnRepeatedPath) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  EdgeAgent& agent = fleet_->agent(dst);
  SendFlow(src, dst, 1000, 0, 10000);
  SendFlow(src, dst, 1000, kNsPerMs, 10000);  // same 5-tuple -> same path
  net_->events().RunAll();
  agent.FlushAll(net_->events().now());
  EXPECT_GE(agent.cache_stats().hits + agent.cache_stats().misses, 1u);
  EXPECT_EQ(agent.decode_failures(), 0u);
  // FlushAll drained the trajectory memory into the TIB.
  EXPECT_TRUE(agent.MemorySnapshot().empty());
}

TEST_F(EdgeAgentPipeline, BogusTagsRaiseInfeasiblePathAlarm) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  EdgeAgent& agent = fleet_->agent(dst);
  std::vector<Alarm> alarms;
  agent.SetAlarmHandler([&](const Alarm& a) { alarms.push_back(a); });

  // Hand the agent a packet whose trajectory contradicts the topology (a
  // switch inserted a wrong ID, §2.4).
  Packet p;
  p.flow = testutil::MakeFlow(topo_, src, dst);
  p.src_host = src;
  p.dst_host = dst;
  p.fin = true;
  p.tags = {kMaxVlanLabel};  // out of any valid label range for k=4
  agent.OnPacket(p, 0);
  agent.FlushAll(kNsPerSec);

  EXPECT_EQ(agent.tib().size(), 0u);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].reason, AlarmReason::kInfeasiblePath);
  EXPECT_EQ(agent.decode_failures(), 1u);
}

TEST_F(EdgeAgentPipeline, FlowSizeDistributionAndTopK) {
  HostId src = topo_.hosts().front();
  HostId dst = topo_.hosts().back();
  EdgeAgent& agent = fleet_->agent(dst);
  SendFlow(src, dst, 5000, 0, 10001);
  SendFlow(src, dst, 50000, 0, 10002);
  SendFlow(src, dst, 500000, 0, 10003);
  net_->events().RunAll();
  agent.FlushAll(net_->events().now());

  FlowSizeHistogram h =
      agent.FlowSizeDistribution(LinkId{kInvalidNode, kInvalidNode}, TimeRange::All(), 10000);
  int64_t total = 0;
  for (auto& [bin, count] : h.bins) {
    total += count;
  }
  EXPECT_EQ(total, 3);

  TopKFlows top = agent.TopK(2, TimeRange::All());
  ASSERT_EQ(top.items.size(), 2u);
  EXPECT_GE(top.items[0].first, top.items[1].first);
  EXPECT_GE(top.items[0].first, 500000u);
}

// --- PacketPipeline (Fig. 13 machinery) ---

TEST(PacketPipelineTest, PathDumpStripsTagsBaselineDoesNot) {
  PacketPipeline pathdump(true);
  PacketPipeline vanilla(false);
  Packet p;
  p.flow = FiveTuple{1, 2, 3, 4, 6};
  p.tags = {5, 9};
  Packet q = p;
  pathdump.Process(p, 0);
  vanilla.Process(q, 0);
  EXPECT_TRUE(p.tags.empty()) << "PathDump must strip trajectory headers";
  EXPECT_EQ(q.tags.size(), 2u);
  EXPECT_EQ(pathdump.memory().size(), 1u);
  EXPECT_EQ(vanilla.memory().size(), 0u);
}

}  // namespace
}  // namespace pathdump
