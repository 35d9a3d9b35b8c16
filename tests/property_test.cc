// Property-based suites: system-wide invariants checked across sweeps of
// topology sizes, load-balancing modes, tag sequences, and tree shapes.

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "src/cherrypick/codec.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/edge/fleet.h"
#include "src/fluidsim/fluid.h"
#include "src/netsim/network.h"
#include "src/tcp/segmenter.h"
#include "src/topology/fat_tree.h"
#include "src/topology/vl2.h"
#include "src/workload/flow_size.h"
#include "src/workload/traffic_gen.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

// --- Decode(Encode(path)) == path for every packet the network delivers,
// across topology kinds and load-balancing modes. ---

struct PipelineParam {
  TopologyKind kind;
  LoadBalanceMode mode;
};

// Names each case by its fields. Without it gtest prints the raw bytes of
// the struct, padding included, so the discovered test names would change
// from run to run.
void PrintTo(const PipelineParam& param, std::ostream* os) {
  *os << (param.kind == TopologyKind::kFatTree ? "FatTree" : "Vl2") << '_'
      << (param.mode == LoadBalanceMode::kEcmpHash ? "EcmpHash" : "PacketSpray");
}

class DecodeEquivalence : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(DecodeEquivalence, EveryDeliveredPacketDecodesToItsTrace) {
  PipelineParam param = GetParam();
  Topology topo = param.kind == TopologyKind::kFatTree ? BuildFatTree(4)
                                                       : BuildVl2(8, 4, 3, 2);
  NetworkConfig cfg;
  cfg.lb_mode = param.mode;
  Network net(&topo, cfg);

  uint64_t checked = 0;
  net.SetDefaultSink([&](const Packet& pkt, SimTime) {
    auto decoded = net.codec().Decode(pkt.src_host, pkt.dst_host, pkt.dscp, pkt.tags);
    ASSERT_TRUE(decoded.has_value())
        << "undecodable: " << PathToString(pkt.trace) << " tags=" << pkt.tags.size();
    ASSERT_EQ(*decoded, pkt.trace);
    ++checked;
  });

  // All-pairs, several packets per pair so spraying explores paths.
  int port = 10000;
  for (HostId src : topo.hosts()) {
    for (HostId dst : topo.hosts()) {
      if (src == dst) {
        continue;
      }
      for (int i = 0; i < (param.mode == LoadBalanceMode::kPacketSpray ? 6 : 1); ++i) {
        Packet p;
        p.flow = testutil::MakeFlow(topo, src, dst, uint16_t(port++));
        p.src_host = src;
        p.dst_host = dst;
        net.InjectPacket(p, 0);
      }
    }
  }
  net.events().RunAll();
  EXPECT_EQ(net.stats().dropped, 0u);
  EXPECT_GT(checked, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndModes, DecodeEquivalence,
    ::testing::Values(PipelineParam{TopologyKind::kFatTree, LoadBalanceMode::kEcmpHash},
                      PipelineParam{TopologyKind::kFatTree, LoadBalanceMode::kPacketSpray},
                      PipelineParam{TopologyKind::kVl2, LoadBalanceMode::kEcmpHash},
                      PipelineParam{TopologyKind::kVl2, LoadBalanceMode::kPacketSpray}));

// --- Decoder fuzz: arbitrary tag sequences must never crash and must only
// accept trajectories that are feasible w.r.t. the topology. ---

class DecoderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzz, RandomTagsEitherRejectOrYieldFeasiblePath) {
  int k = GetParam();
  Topology topo = BuildFatTree(k);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Rng rng(uint64_t(k) * 31 + 7);

  const auto& hosts = topo.hosts();
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    HostId src = hosts[rng.UniformInt(uint32_t(hosts.size()))];
    HostId dst = hosts[rng.UniformInt(uint32_t(hosts.size()))];
    if (src == dst) {
      continue;
    }
    std::vector<LinkLabel> tags;
    uint32_t n = rng.UniformInt(4);
    for (uint32_t i = 0; i < n; ++i) {
      tags.push_back(LinkLabel(rng.UniformInt(kMaxVlanLabel + 2)));
    }
    auto decoded = codec.Decode(src, dst, 0, tags);
    if (!decoded) {
      continue;
    }
    ++accepted;
    // Feasibility: endpoints are the hosts' ToRs, consecutive switches are
    // adjacent, and re-encoding the decoded path yields exactly the tags.
    ASSERT_FALSE(decoded->empty());
    EXPECT_EQ(decoded->front(), topo.TorOfHost(src));
    EXPECT_EQ(decoded->back(), topo.TorOfHost(dst));
    for (size_t i = 0; i + 1 < decoded->size(); ++i) {
      EXPECT_TRUE(topo.Adjacent((*decoded)[i], (*decoded)[i + 1]))
          << PathToString(*decoded);
    }
    auto [re_dscp, re_tags] = testutil::EncodeAlongPath(codec, src, dst, *decoded);
    EXPECT_EQ(re_tags, tags) << "decode accepted tags the encoder would not produce for "
                             << PathToString(*decoded);
  }
  // Random tags are overwhelmingly infeasible, but some valid ones occur.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Ks, DecoderFuzz, ::testing::Values(4, 6, 8));

// --- Fluid engine and per-packet engine agree on ECMP path selection and
// byte accounting for identical flow sets. ---

TEST(FluidVsNetsim, SameFlowsSamePathsSameBytes) {
  Topology topo = BuildFatTree(4);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);

  WebSearchFlowSizes sizes;
  TrafficGenerator gen(&topo, &sizes);
  TrafficParams params;
  params.flows_per_sec_per_host = 3;
  params.duration = kNsPerSec / 2;
  params.seed = 99;
  auto flows = gen.Generate(params);
  ASSERT_GT(flows.size(), 15u);

  // Per-packet run.
  NetworkConfig cfg;
  Network net(&topo, cfg);
  AgentFleet packet_fleet(&topo, &net.codec());
  packet_fleet.AttachTo(net);
  for (const FlowDesc& f : flows) {
    SimTime t = f.start;
    for (Packet& p : SegmentFlow(f.tuple, f.src, f.dst, f.bytes)) {
      net.InjectPacket(p, t);
      t += kNsPerUs;
    }
  }
  net.events().RunAll();
  packet_fleet.FlushAll(net.events().now());

  // Fluid run.
  FluidConfig fcfg;
  AgentFleet fluid_fleet(&topo, &codec);
  FluidSimulation fluid(&topo, &router, fcfg);
  fluid.Run(flows, &fluid_fleet, nullptr);

  for (const FlowDesc& f : flows) {
    LinkId any{kInvalidNode, kInvalidNode};
    auto packet_paths = packet_fleet.agent(f.dst).GetPaths(f.tuple, any, TimeRange::All());
    auto fluid_paths = fluid_fleet.agent(f.dst).GetPaths(f.tuple, any, TimeRange::All());
    ASSERT_EQ(packet_paths.size(), 1u) << FlowToString(f.tuple);
    ASSERT_EQ(fluid_paths.size(), 1u);
    EXPECT_EQ(packet_paths[0], fluid_paths[0])
        << "engines disagree on the ECMP path for " << FlowToString(f.tuple);

    CountSummary pc = packet_fleet.agent(f.dst).GetCount(Flow{f.tuple, {}}, TimeRange::All());
    CountSummary fc = fluid_fleet.agent(f.dst).GetCount(Flow{f.tuple, {}}, TimeRange::All());
    // Packet engine pads sub-64B tails; tolerate that delta.
    EXPECT_NEAR(double(pc.bytes), double(fc.bytes), 128.0);
    EXPECT_EQ(pc.pkts, fc.pkts);
  }
}

// --- Multi-level queries must equal direct queries for every tree shape. ---

struct TreeShape {
  int hosts;
  int top;
  int fanout;
};

class TreeShapeSweep : public ::testing::TestWithParam<TreeShape> {};

TEST_P(TreeShapeSweep, MultiLevelMatchesDirect) {
  TreeShape shape = GetParam();
  Topology topo = BuildFatTree(8);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Router router(&topo);
  AgentFleet fleet(&topo, &codec);
  Controller controller;

  Rng rng(uint64_t(shape.hosts) * 31 + uint64_t(shape.fanout));
  std::vector<HostId> hosts;
  for (int i = 0; i < shape.hosts; ++i) {
    HostId h = topo.hosts()[size_t(i)];
    hosts.push_back(h);
    controller.RegisterAgent(&fleet.agent(h));
    // A few random records per host.
    for (int r = 0; r < 20; ++r) {
      HostId src = topo.hosts()[rng.UniformInt(uint32_t(topo.hosts().size()))];
      if (src == h) {
        continue;
      }
      TibRecord rec;
      rec.flow = testutil::MakeFlow(topo, src, h, uint16_t(1000 + r));
      rec.path = CompactPath::FromPath(router.EcmpPaths(src, h)[0]);
      rec.stime = 0;
      rec.etime = kNsPerSec;
      rec.bytes = 1000 + rng.UniformInt(1000000);
      rec.pkts = 10;
      fleet.agent(h).IngestRecord(rec, rec.etime);
    }
  }

  // Tree well-formedness.
  AggregationTree tree = BuildAggregationTree(hosts, shape.top, shape.fanout);
  EXPECT_EQ(tree.size(), hosts.size());
  std::set<HostId> seen;
  for (const AggregationNode& n : tree.nodes) {
    EXPECT_TRUE(seen.insert(n.host).second);
    EXPECT_LE(int(n.children.size()), std::max(shape.fanout, shape.top));
  }

  Controller::QueryFn query = [](EdgeAgent& a) -> QueryResult {
    return a.TopK(7, TimeRange::All());
  };
  auto [dres, ds] = controller.Execute(hosts, query);
  auto [mres, ms] = controller.ExecuteMultiLevel(hosts, query, shape.top, shape.fanout);
  auto dt = std::get<TopKFlows>(dres);
  auto mt = std::get<TopKFlows>(mres);
  dt.k = 7;
  mt.k = 7;
  dt.Finalize();
  mt.Finalize();
  ASSERT_EQ(dt.items.size(), mt.items.size());
  for (size_t i = 0; i < dt.items.size(); ++i) {
    EXPECT_EQ(dt.items[i].first, mt.items[i].first) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeShapeSweep,
                         ::testing::Values(TreeShape{1, 7, 4}, TreeShape{7, 7, 4},
                                           TreeShape{8, 7, 4}, TreeShape{30, 7, 4},
                                           TreeShape{30, 2, 2}, TreeShape{30, 1, 1},
                                           TreeShape{64, 3, 9}, TreeShape{64, 16, 2}));

// --- Spray fairness: multinomial subflow split stays near-uniform. ---

class SpraySizes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpraySizes, SubflowBytesNearUniform) {
  uint64_t bytes = GetParam();
  Topology topo = BuildFatTree(4);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  AgentFleet fleet(&topo, &codec);
  FluidConfig cfg;
  cfg.lb_mode = LoadBalanceMode::kPacketSpray;
  FluidSimulation fluid(&topo, &router, cfg);

  FlowDesc f;
  f.src = topo.hosts().front();
  f.dst = topo.hosts().back();
  f.bytes = bytes;
  f.tuple = testutil::MakeFlow(topo, f.src, f.dst);
  fluid.Run({f}, &fleet, nullptr);

  auto& tib = fleet.agent(f.dst).tib();
  ASSERT_EQ(tib.size(), 4u);
  uint64_t total = 0;
  for (const TibRecord& rec : tib.records()) {
    EXPECT_NEAR(double(rec.bytes), double(bytes) / 4.0, double(bytes) / 4.0 * 0.05 + 256);
    total += rec.bytes;
  }
  EXPECT_NEAR(double(total), double(bytes), double(bytes) * 0.02 + 512);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpraySizes,
                         ::testing::Values(100000ull, 1000000ull, 10000000ull, 100000000ull));

// --- TimeRange filtering boundary sweep over the TIB. ---

class TimeRangeSweep : public ::testing::TestWithParam<int> {};

TEST_P(TimeRangeSweep, OverlapSemantics) {
  // Record lives [100, 200].  Parameter selects a probe range; expected
  // containment follows the closed-record/half-open-range rule.
  struct Probe {
    TimeRange range;
    bool hit;
  };
  const Probe probes[] = {
      {{0, 50}, false},   {{0, 100}, false},  {{0, 101}, true},  {{150, 160}, true},
      {{200, 300}, true}, {{201, 300}, false}, {{0, kSimTimeMax}, true},
  };
  const Probe& probe = probes[size_t(GetParam())];

  Tib tib;
  TibRecord rec;
  rec.flow = FiveTuple{1, 2, 3, 4, 6};
  rec.path = CompactPath::FromPath({1, 2, 3});
  rec.stime = 100;
  rec.etime = 200;
  rec.bytes = 10;
  rec.pkts = 1;
  tib.Insert(rec);
  EXPECT_EQ(tib.RecordsOfFlow(rec.flow, probe.range).size(), probe.hit ? 1u : 0u);
  EXPECT_EQ(tib.RecordsOnLink(LinkId{1, 2}, probe.range).size(), probe.hit ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Probes, TimeRangeSweep, ::testing::Range(0, 7));

// --- Trajectory memory aggregation is exact under random packet orders. ---

TEST(TrajectoryMemoryProperty, ByteAndPacketConservation) {
  Rng rng(5);
  TrajectoryMemory mem(kSimTimeMax);  // no idle eviction during the test
  uint64_t expect_bytes = 0;
  uint32_t expect_pkts = 0;
  for (int i = 0; i < 10000; ++i) {
    Packet p;
    p.flow = FiveTuple{1, 2, uint16_t(rng.UniformInt(50)), 80, 6};
    p.size_bytes = 64 + rng.UniformInt(1400);
    if (rng.Bernoulli(0.5)) {
      p.tags.push_back(LinkLabel(rng.UniformInt(16)));
    }
    expect_bytes += p.size_bytes;
    expect_pkts += 1;
    mem.OnPacket(p, SimTime(i));
  }
  uint64_t got_bytes = 0;
  uint32_t got_pkts = 0;
  mem.Flush([&](const TrajectoryMemory::Record& r) {
    got_bytes += r.bytes;
    got_pkts += r.pkts;
  });
  EXPECT_EQ(got_bytes, expect_bytes);
  EXPECT_EQ(got_pkts, expect_pkts);
}

}  // namespace
}  // namespace pathdump
