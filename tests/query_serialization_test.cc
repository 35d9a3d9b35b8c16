// Wire-format accounting and merge-algebra tests for QueryResult, plus
// assorted edge-case semantics (CompactPath truncation, RPC cost model,
// degenerate aggregation trees, VL2 fluid paths).

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "src/common/rng.h"
#include "src/controller/aggregation_tree.h"
#include "src/controller/rpc_model.h"
#include "src/edge/fleet.h"
#include "src/edge/query.h"
#include "src/edge/standing_query.h"
#include "src/fluidsim/fluid.h"
#include "src/topology/vl2.h"
#include "src/transport/wire.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

// --- Golden serialized sizes (the constants Figs. 11/12 traffic rests on) ---

TEST(SerializationGolden, FixedFraming) {
  // Header-only payloads.
  EXPECT_EQ(SerializedBytes(QueryResult{std::monostate{}}), 16u);
  EXPECT_EQ(SerializedBytes(QueryResult{CountSummary{1, 2}}), 32u);

  // Histogram: 16 header + 8 binwidth + 12/bin.
  FlowSizeHistogram h;
  h.bins[0] = 5;
  h.bins[7] = 1;
  EXPECT_EQ(SerializedBytes(QueryResult{h}), 16u + 8u + 2u * 12u);

  // Top-k: 16 + 21/item.
  TopKFlows t;
  t.items = {{100, FiveTuple{}}, {50, FiveTuple{}}, {10, FiveTuple{}}};
  EXPECT_EQ(SerializedBytes(QueryResult{t}), 16u + 3u * 21u);

  // FlowList: 16 + (13 + 1 + 4*len)/flow.
  FlowList fl;
  fl.flows.push_back(Flow{FiveTuple{}, {1, 2, 3}});
  EXPECT_EQ(SerializedBytes(QueryResult{fl}), 16u + 13u + 1u + 12u);

  // PathList: 16 + (1 + 4*len)/path.
  PathList pl;
  pl.paths.push_back({1, 2, 3, 4, 5});
  pl.paths.push_back({9});
  EXPECT_EQ(SerializedBytes(QueryResult{pl}), 16u + (1u + 20u) + (1u + 4u));
}

// --- Serialize / merge / size-accounting consistency ---
//
// For every payload with a wire size, the three views must agree: the
// size is a pure function of the content, merging re-derives the size
// from the merged content (never by adding the inputs' sizes), and the
// per-item constants match the golden framing above.

using Kind = StandingQuerySpec::Kind;

StandingQuerySpec SpecOf(Kind kind) {
  StandingQuerySpec spec;
  spec.kind = kind;
  return spec;
}

TEST(SerializationConsistency, FoldStatePerFlowGoldenMergeAndMaterialize) {
  using FlowSum = FoldState::FlowSum;
  const FiveTuple f10{1, 2, 10, 80, kProtoTcp};
  const FiveTuple f20{1, 2, 20, 80, kProtoTcp};
  const FiveTuple f30{1, 2, 30, 80, kProtoTcp};
  // Golden framing for both per-flow kinds: 16-byte header + 21 per flow
  // (the per-flow item size of a TopKFlows result).
  FoldState a;
  a.flows = {{f10, 100}, {f20, 200}};
  for (Kind kind : {Kind::kTopK, Kind::kFlowSizeHistogram}) {
    EXPECT_EQ(FoldState{}.SerializedSize(kind), 16u);
    EXPECT_EQ(a.SerializedSize(kind), 16u + 2u * 21u);
  }

  // Merge sums per flow: a then b (one shared flow) leaves three flows
  // with the shared one summed, in first-appearance order.
  FoldState b;
  b.flows = {{f20, 50}, {f30, 300}};
  FoldState ab;
  ab.Merge(a);
  ab.Merge(b);
  EXPECT_EQ(ab.flows, (std::vector<FlowSum>{{f10, 100}, {f20, 250}, {f30, 300}}));
  EXPECT_EQ(ab.size(), 3u);
  FoldState ba;
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(ba.flows, (std::vector<FlowSum>{{f20, 250}, {f30, 300}, {f10, 100}}));

  // Key-disjoint shard states merge by concatenation.
  std::vector<FoldState> shards(2);
  shards[0].flows = {{f20, 250}};
  shards[1].flows = {{f30, 300}, {f10, 100}};
  EXPECT_EQ(FoldState::MergeShards(shards), ba);

  // Materialization does not depend on the order of the flows.
  StandingQuerySpec topk = SpecOf(Kind::kTopK);
  topk.k = 2;
  const TopKFlows top = std::get<TopKFlows>(MaterializeStandingResult(topk, ab));
  EXPECT_EQ(top.items, (std::vector<std::pair<uint64_t, FiveTuple>>{{300, f30}, {250, f20}}));
  EXPECT_EQ(MaterializeStandingResult(topk, ba), QueryResult(top));
  StandingQuerySpec hist = SpecOf(Kind::kFlowSizeHistogram);
  hist.bin_width = 200;
  const FlowSizeHistogram h = std::get<FlowSizeHistogram>(MaterializeStandingResult(hist, ab));
  EXPECT_EQ(h.bins, (std::map<int64_t, int64_t>{{0, 1}, {1, 2}}));
  EXPECT_EQ(MaterializeStandingResult(hist, ba), QueryResult(h));
}

TEST(SerializationConsistency, FoldStateRecordKindsGoldenMergeAndMaterialize) {
  using FlowItem = FoldState::FlowItem;
  const FiveTuple f10{1, 2, 10, 80, kProtoTcp};
  const FiveTuple f20{1, 2, 20, 80, kProtoTcp};
  const CompactPath p12 = CompactPath::FromPath({1, 2});
  const CompactPath p123 = CompactPath::FromPath({1, 2, 3});

  // FlowList framing: 16 header + (8 id + 13 tuple + 1 + 4*path_len) per
  // distinct (flow, path) item — no byte or packet counts.
  FoldState list;
  list.flow_items = {FlowItem{5, f10, p12}, FlowItem{9, f20, p123}};
  EXPECT_EQ(list.SerializedSize(Kind::kFlowList), 16u + (22u + 8u) + (22u + 12u));
  // CountSummary framing: 16 header + one 16-byte (bytes, pkts) pair,
  // whatever number of records the sums cover — even none.
  EXPECT_EQ(FoldState{}.SerializedSize(Kind::kCountSummary), 32u);
  FoldState count;
  count.count = CountSummary{1400, 7};
  EXPECT_EQ(count.SerializedSize(Kind::kCountSummary), 32u);
  EXPECT_EQ(count.size(), 1u);
  EXPECT_TRUE(FoldState{}.empty());
  EXPECT_FALSE(count.empty());

  // Merge dedups (flow, path) on first occurrence keeping the smaller id,
  // and materializes in first-appearance (ascending id) order.
  const StandingQuerySpec list_spec = SpecOf(Kind::kFlowList);
  FoldState folded;
  folded.Merge(list);
  FoldState later;
  later.flow_items = {FlowItem{3, f20, p123}, FlowItem{12, f10, p12}, FlowItem{14, f10, p123}};
  folded.Merge(later);
  EXPECT_EQ(folded.flow_items,
            (std::vector<FlowItem>{{5, f10, p12}, {3, f20, p123}, {14, f10, p123}}));
  const FlowList fl = std::get<FlowList>(MaterializeStandingResult(list_spec, folded));
  EXPECT_EQ(fl.flows, (std::vector<Flow>{{f20, {1, 2, 3}}, {f10, {1, 2}}, {f10, {1, 2, 3}}}));
  // Materialize reads no dedup index.
  EXPECT_EQ(MaterializeStandingResult(list_spec, folded.WithoutIndex()), QueryResult{fl});

  // Key-disjoint shard states concatenate: no dedup across shards.
  std::vector<FoldState> shards(2);
  shards[0].flow_items = {FlowItem{9, f20, p123}};
  shards[1].flow_items = {FlowItem{5, f10, p12}};
  shards[0].count = CountSummary{900, 4};
  shards[1].count = CountSummary{500, 3};
  const FoldState merged = FoldState::MergeShards(shards);
  EXPECT_EQ(merged.flow_items, (std::vector<FlowItem>{{9, f20, p123}, {5, f10, p12}}));
  EXPECT_EQ(merged.count, count.count);

  // Counts sum across merges.
  FoldState total;
  total.Merge(count);
  total.Merge(count);
  EXPECT_EQ(MaterializeStandingResult(SpecOf(Kind::kCountSummary), total),
            QueryResult(CountSummary{2800, 14}));
}

TEST(SerializationConsistency, QueryDeltaFramingAndMaterialization) {
  QueryDelta d;
  d.subscription_id = 7;
  d.host = 3;
  d.epoch = 1;
  // Empty delta: 24-byte sub/host/epoch framing + payload header.
  EXPECT_EQ(d.SerializedSize(), 24u + 16u);
  d.payload.flows = {{FiveTuple{1, 2, 10, 80, kProtoTcp}, 500},
                     {FiveTuple{1, 2, 20, 80, kProtoTcp}, 900}};
  EXPECT_EQ(d.SerializedSize(), 24u + 16u + 2u * 21u);

  // Materializing the folded payload yields a result whose size obeys
  // the golden framing for its own type.
  FoldState folded;
  folded.Merge(d.payload);
  StandingQuerySpec topk;
  topk.kind = StandingQuerySpec::Kind::kTopK;
  topk.k = 10;
  QueryResult r = MaterializeStandingResult(topk, folded);
  EXPECT_EQ(SerializedBytes(r), 16u + 2u * 21u);
  StandingQuerySpec hist;
  hist.kind = StandingQuerySpec::Kind::kFlowSizeHistogram;
  hist.bin_width = 1000;
  QueryResult h = MaterializeStandingResult(hist, folded);
  // Two flows in bins 0 and... 500/1000 = 0 and 900/1000 = 0: one bin.
  EXPECT_EQ(std::get<FlowSizeHistogram>(h).bins.size(), 1u);
  EXPECT_EQ(SerializedBytes(h), 16u + 8u + 1u * 12u);
}

TEST(SerializationConsistency, MergedResultSizesTrackContent) {
  // Audit of the existing result types: after a merge, SerializedBytes
  // must equal the golden framing recomputed from the merged content.
  FlowSizeHistogram ha;
  ha.bins[0] = 1;
  ha.bins[3] = 2;
  FlowSizeHistogram hb;
  hb.bins[3] = 1;
  hb.bins[9] = 4;
  QueryResult hacc = ha;
  MergeQueryResult(hacc, QueryResult{hb});
  const auto& hm = std::get<FlowSizeHistogram>(hacc);
  EXPECT_EQ(SerializedBytes(hacc), 16u + 8u + hm.bins.size() * 12u);
  EXPECT_EQ(hm.bins.size(), 3u);  // shared bin merged, not duplicated

  TopKFlows ta;
  ta.k = 2;
  ta.items = {{100, FiveTuple{1, 2, 1, 80, kProtoTcp}}, {90, FiveTuple{1, 2, 2, 80, kProtoTcp}}};
  TopKFlows tb;
  tb.k = 2;
  tb.items = {{95, FiveTuple{1, 2, 3, 80, kProtoTcp}}};
  QueryResult tacc = ta;
  MergeQueryResult(tacc, QueryResult{tb});
  const auto& tm = std::get<TopKFlows>(tacc);
  // Truncated to k by the merge — size reflects the survivors only.
  EXPECT_EQ(tm.items.size(), 2u);
  EXPECT_EQ(SerializedBytes(tacc), 16u + tm.items.size() * 21u);

  FlowList fa;
  fa.flows.push_back(Flow{FiveTuple{1, 2, 3, 4, 6}, {1, 2}});
  FlowList fb;
  fb.flows.push_back(Flow{FiveTuple{1, 2, 5, 4, 6}, {3}});
  QueryResult facc = fa;
  MergeQueryResult(facc, QueryResult{fb});
  // Concatenating lists: merged size = sum of parts minus one header.
  EXPECT_EQ(SerializedBytes(facc),
            SerializedBytes(QueryResult{fa}) + SerializedBytes(QueryResult{fb}) - 16u);

  CountSummary ca{10, 2};
  CountSummary cb{5, 1};
  QueryResult cacc = ca;
  MergeQueryResult(cacc, QueryResult{cb});
  // Fixed-size payloads merge without growing.
  EXPECT_EQ(SerializedBytes(cacc), 32u);
}

// --- Merge algebra: order independence where the semantics demand it ---

TEST(MergeAlgebra, HistogramMergeIsCommutative) {
  FlowSizeHistogram a;
  a.bins[0] = 3;
  a.bins[2] = 1;
  FlowSizeHistogram b;
  b.bins[2] = 4;
  b.bins[5] = 2;

  QueryResult ab = a;
  MergeQueryResult(ab, QueryResult{b});
  QueryResult ba = b;
  MergeQueryResult(ba, QueryResult{a});
  EXPECT_EQ(std::get<FlowSizeHistogram>(ab).bins, std::get<FlowSizeHistogram>(ba).bins);
}

TEST(MergeAlgebra, TopKMergeIsOrderIndependentOnKeys) {
  auto item = [](uint64_t bytes, uint16_t port) {
    return std::pair<uint64_t, FiveTuple>{bytes, FiveTuple{1, 2, port, 80, 6}};
  };
  TopKFlows a;
  a.k = 3;
  a.items = {item(50, 1), item(40, 2), item(30, 3)};
  TopKFlows b;
  b.k = 3;
  b.items = {item(45, 4), item(35, 5)};

  QueryResult ab = a;
  MergeQueryResult(ab, QueryResult{b});
  QueryResult ba = b;
  MergeQueryResult(ba, QueryResult{a});
  auto ka = std::get<TopKFlows>(ab);
  auto kb = std::get<TopKFlows>(ba);
  ka.Finalize();
  kb.Finalize();
  ASSERT_EQ(ka.items.size(), kb.items.size());
  for (size_t i = 0; i < ka.items.size(); ++i) {
    EXPECT_EQ(ka.items[i].first, kb.items[i].first);
  }
  // Trimmed to k with the right survivors: 50, 45, 40.
  EXPECT_EQ(ka.items[0].first, 50u);
  EXPECT_EQ(ka.items[2].first, 40u);
}

TEST(MergeAlgebra, TopKMergeIsAssociativeOnKeys) {
  auto item = [](uint64_t bytes, uint16_t port) {
    return std::pair<uint64_t, FiveTuple>{bytes, FiveTuple{1, 2, port, 80, 6}};
  };
  TopKFlows parts[3];
  for (int i = 0; i < 3; ++i) {
    parts[i].k = 2;
    parts[i].items = {item(uint64_t(10 * (i + 1)), uint16_t(i * 2)),
                      item(uint64_t(10 * (i + 1) + 5), uint16_t(i * 2 + 1))};
  }
  // (a+b)+c
  QueryResult left = parts[0];
  MergeQueryResult(left, QueryResult{parts[1]});
  MergeQueryResult(left, QueryResult{parts[2]});
  // a+(b+c)
  QueryResult right_inner = parts[1];
  MergeQueryResult(right_inner, QueryResult{parts[2]});
  QueryResult right = parts[0];
  MergeQueryResult(right, right_inner);

  auto lk = std::get<TopKFlows>(left);
  auto rk = std::get<TopKFlows>(right);
  lk.Finalize();
  rk.Finalize();
  ASSERT_EQ(lk.items.size(), rk.items.size());
  for (size_t i = 0; i < lk.items.size(); ++i) {
    EXPECT_EQ(lk.items[i].first, rk.items[i].first);
  }
}

TEST(MergeAlgebra, ListMergesConcatenate) {
  FlowList a;
  a.flows.push_back(Flow{FiveTuple{1, 2, 3, 4, 6}, {1}});
  FlowList b;
  b.flows.push_back(Flow{FiveTuple{1, 2, 5, 4, 6}, {2}});
  QueryResult acc = a;
  MergeQueryResult(acc, QueryResult{b});
  EXPECT_EQ(std::get<FlowList>(acc).flows.size(), 2u);

  PathList pa;
  pa.paths.push_back({1});
  QueryResult pacc = pa;
  MergeQueryResult(pacc, QueryResult{PathList{{{2, 3}}}});
  EXPECT_EQ(std::get<PathList>(pacc).paths.size(), 2u);
}

// --- CompactPath truncation semantics ---

TEST(CompactPathLimits, OverlongPathsTruncateDeterministically) {
  Path longer{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CompactPath c = CompactPath::FromPath(longer);
  EXPECT_EQ(c.len, CompactPath::kMaxSwitches);
  Path back = c.ToPath();
  EXPECT_EQ(back.size(), size_t(CompactPath::kMaxSwitches));
  for (int i = 0; i < CompactPath::kMaxSwitches; ++i) {
    EXPECT_EQ(back[size_t(i)], longer[size_t(i)]);
  }
}

// --- RPC cost model arithmetic ---

TEST(RpcModelTest, TransferMath) {
  RpcModel rpc;
  rpc.per_message_overhead_seconds = 0.001;
  rpc.bandwidth_bytes_per_sec = 1000.0;
  EXPECT_DOUBLE_EQ(rpc.TransferSeconds(0), 0.001);
  EXPECT_DOUBLE_EQ(rpc.TransferSeconds(500), 0.001 + 0.5);
  // Bigger payloads strictly cost more.
  EXPECT_LT(rpc.TransferSeconds(10), rpc.TransferSeconds(1000));
}

// --- Degenerate aggregation trees ---

TEST(AggregationDegenerate, ChainTree) {
  std::vector<HostId> hosts{1, 2, 3, 4, 5};
  AggregationTree chain = BuildAggregationTree(hosts, 1, 1);
  EXPECT_EQ(chain.roots.size(), 1u);
  EXPECT_EQ(chain.depth(), 5);
  for (const AggregationNode& n : chain.nodes) {
    EXPECT_LE(n.children.size(), 1u);
  }
}

TEST(AggregationDegenerate, FlatTree) {
  std::vector<HostId> hosts{1, 2, 3, 4, 5};
  AggregationTree flat = BuildAggregationTree(hosts, 100, 4);
  EXPECT_EQ(flat.roots.size(), 5u);
  EXPECT_EQ(flat.depth(), 1);
}

// --- Fluid on VL2 ---

TEST(Vl2Fluid, PathsAreLegalAndBytesConserved) {
  Topology topo = BuildVl2(8, 4, 3, 2);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  AgentFleet fleet(&topo, &codec);
  FluidConfig cfg;
  FluidSimulation fluid(&topo, &router, cfg);

  std::vector<FlowDesc> flows;
  uint16_t port = 10000;
  for (HostId src : topo.hosts()) {
    for (HostId dst : topo.hosts()) {
      if (src == dst) {
        continue;
      }
      FlowDesc f;
      f.src = src;
      f.dst = dst;
      f.bytes = 5000;
      f.tuple = testutil::MakeFlow(topo, src, dst, port++);
      flows.push_back(f);
    }
  }
  auto stats = fluid.Run(flows, &fleet, nullptr);
  EXPECT_EQ(stats.flows, flows.size());

  uint64_t total_bytes = 0;
  size_t records = 0;
  for (EdgeAgent* agent : fleet.all()) {
    for (const TibRecord& rec : agent->tib().records()) {
      ++records;
      total_bytes += rec.bytes;
      // Legal VL2 path shapes: 1 (intra-rack), 3 (shared agg), 5 switches.
      EXPECT_TRUE(rec.path.len == 1 || rec.path.len == 3 || rec.path.len == 5)
          << int(rec.path.len);
    }
  }
  EXPECT_EQ(records, flows.size());
  EXPECT_EQ(total_bytes, uint64_t(flows.size()) * 5000u);
}

// --- GetFlows dedup + GetDuration multi-record semantics ---

TEST(AgentSemantics, GetFlowsDedupsAndDurationSpans) {
  Topology topo = BuildVl2(4, 4, 2, 2);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  EdgeAgent agent(topo.hosts().back(), &topo, &codec);

  FiveTuple flow = testutil::MakeFlow(topo, topo.hosts().front(), topo.hosts().back());
  Router router(&topo);
  Path path = router.EcmpPaths(topo.hosts().front(), topo.hosts().back())[0];
  // Two time-disjoint records of the same (flow, path).
  for (int i = 0; i < 2; ++i) {
    TibRecord rec;
    rec.flow = flow;
    rec.path = CompactPath::FromPath(path);
    rec.stime = SimTime(i) * 10 * kNsPerSec;
    rec.etime = rec.stime + kNsPerSec;
    rec.bytes = 1000;
    rec.pkts = 1;
    agent.IngestRecord(rec, rec.etime);
  }
  LinkId any{kInvalidNode, kInvalidNode};
  EXPECT_EQ(agent.GetFlows(any, TimeRange::All()).size(), 1u)
      << "same (flow, path) must appear once";
  EXPECT_EQ(agent.GetPaths(flow, any, TimeRange::All()).size(), 1u);
  // Duration spans from first stime to last etime: 11 seconds.
  EXPECT_EQ(agent.GetDuration(Flow{flow, path}, TimeRange::All()), 11 * kNsPerSec);
  // Range restricted to the first record: 1 second.
  EXPECT_EQ(agent.GetDuration(Flow{flow, path}, TimeRange{0, 5 * kNsPerSec}), kNsPerSec);
}

// Two distinct paths of one flow whose 64-bit CompactPath::HashKey values
// collide: every per-flow query must tell them apart by exact equality,
// and getPaths must agree with getFlows.
TEST(AgentSemantics, HashCollidingPathsStayDistinct) {
  Topology topo = BuildVl2(4, 4, 2, 2);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  EdgeAgent agent(topo.hosts().back(), &topo, &codec);

  const Path a = {52830, 1459577729};
  const Path b = {5411, 1369665158};
  ASSERT_EQ(CompactPath::FromPath(a).HashKey(), CompactPath::FromPath(b).HashKey());
  const FiveTuple flow{1, 2, 10, 80, kProtoTcp};
  for (const auto& [path, stime, bytes] :
       {std::tuple{a, SimTime(0), uint64_t(1000)}, std::tuple{b, 5 * kNsPerSec, uint64_t(300)}}) {
    TibRecord rec;
    rec.flow = flow;
    rec.path = CompactPath::FromPath(path);
    rec.stime = stime;
    rec.etime = stime + kNsPerSec;
    rec.bytes = bytes;
    rec.pkts = 1;
    agent.IngestRecord(rec, rec.etime);
  }

  const LinkId any{kInvalidNode, kInvalidNode};
  std::vector<Path> listed;
  for (const Flow& f : agent.GetFlows(any, TimeRange::All())) {
    if (f.id == flow) {
      listed.push_back(f.path);
    }
  }
  EXPECT_EQ(listed, (std::vector<Path>{a, b}));
  EXPECT_EQ(agent.GetPaths(flow, any, TimeRange::All()), listed);
  EXPECT_EQ(agent.GetPathsLive(flow, any, TimeRange::All()), listed);
  EXPECT_EQ(agent.GetPaths(flow, LinkId{b[0], b[1]}, TimeRange::All()), std::vector<Path>{b});
  EXPECT_EQ(agent.GetCount(Flow{flow, a}, TimeRange::All()), (CountSummary{1000, 1}));
  EXPECT_EQ(agent.GetCount(Flow{flow, b}, TimeRange::All()), (CountSummary{300, 1}));
  EXPECT_EQ(agent.GetCount(Flow{flow, {}}, TimeRange::All()), (CountSummary{1300, 2}));
  EXPECT_EQ(agent.GetDuration(Flow{flow, b}, TimeRange::All()), kNsPerSec);
  EXPECT_EQ(agent.GetDuration(Flow{flow, {}}, TimeRange::All()), 6 * kNsPerSec);
}

// --- Adversarial frame decoding (src/transport/wire.h) ---
//
// The transport decoder is total: every truncated, oversized, or
// bit-flipped frame must come back as a specific WireError — never a
// crash, never a silently wrong object.  The CRC covers the whole
// header (crc field zeroed) plus the payload, so single-bit detection
// is deterministic, not probabilistic.

using transport::DecodedFrame;
using transport::DecodeFrame;
using transport::FrameType;
using transport::kFrameHeaderBytes;
using transport::kMaxFramePayload;
using transport::WireError;

QueryDelta MakeWireDelta(StandingQuerySpec::Kind kind) {
  QueryDelta d;
  d.subscription_id = 42;
  d.host = 7;
  d.kind = kind;
  d.epoch = 3;
  switch (kind) {
    case Kind::kTopK:
    case Kind::kFlowSizeHistogram:
      d.payload.flows = {{FiveTuple{1, 2, 10, 80, kProtoTcp}, 500},
                         {FiveTuple{3, 4, 20, 443, kProtoUdp}, 900}};
      break;
    case Kind::kFlowList:
      d.payload.flow_items = {
          {5, FiveTuple{1, 2, 10, 80, kProtoTcp}, CompactPath::FromPath({1, 2})},
          {9, FiveTuple{3, 4, 20, 443, kProtoUdp}, CompactPath::FromPath({1, 2, 3})}};
      break;
    case Kind::kCountSummary:
      d.payload.count = CountSummary{1400, 7};
      break;
  }
  return d;
}

// Fixes up the frame CRC after a deliberate header/payload tamper, so a
// test can reach the checks that run *after* the checksum.
void RestampCrc(std::vector<uint8_t>& frame) {
  uint8_t hdr[kFrameHeaderBytes];
  std::memcpy(hdr, frame.data(), kFrameHeaderBytes);
  hdr[12] = hdr[13] = hdr[14] = hdr[15] = 0;
  uint32_t crc = transport::Crc32(hdr, kFrameHeaderBytes);
  crc = transport::Crc32(frame.data() + kFrameHeaderBytes, frame.size() - kFrameHeaderBytes, crc);
  std::memcpy(frame.data() + 12, &crc, 4);
}

void PutLe(std::vector<uint8_t>& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(uint8_t(v >> (8 * i)));
  }
}

std::vector<uint8_t> FlowItemBytes(const FiveTuple& t, uint64_t bytes) {
  std::vector<uint8_t> out;
  PutLe(out, t.src_ip, 4);
  PutLe(out, t.dst_ip, 4);
  PutLe(out, t.src_port, 2);
  PutLe(out, t.dst_port, 2);
  PutLe(out, t.protocol, 1);
  PutLe(out, bytes, 8);
  return out;
}

std::vector<uint8_t> ListItemBytes(uint64_t id, const FiveTuple& t, const Path& path) {
  std::vector<uint8_t> out;
  PutLe(out, id, 8);
  std::vector<uint8_t> tuple = FlowItemBytes(t, 0);
  out.insert(out.end(), tuple.begin(), tuple.begin() + 13);
  PutLe(out, path.size(), 1);
  for (SwitchId sw : path) {
    PutLe(out, sw, 4);
  }
  return out;
}

// A CRC-valid delta-shaped frame around hand-written items, so a test
// can hand the decoder payloads the encoder never produces.
std::vector<uint8_t> HandEncodedDeltaFrame(FrameType type, StandingQuerySpec::Kind kind,
                                           const std::vector<std::vector<uint8_t>>& items) {
  std::vector<uint8_t> payload;
  PutLe(payload, 42, 8);  // subscription
  PutLe(payload, 7, 4);   // host
  PutLe(payload, uint8_t(kind), 1);
  PutLe(payload, 0, 3);
  PutLe(payload, 3, 8);  // epoch
  for (const std::vector<uint8_t>& item : items) {
    payload.insert(payload.end(), item.begin(), item.end());
  }
  std::vector<uint8_t> frame;
  PutLe(frame, transport::kFrameMagic, 4);
  PutLe(frame, transport::kWireVersion, 1);
  PutLe(frame, uint8_t(type), 1);
  PutLe(frame, 0, 2);
  PutLe(frame, payload.size(), 4);
  PutLe(frame, 0, 4);  // crc, stamped below
  frame.insert(frame.end(), payload.begin(), payload.end());
  RestampCrc(frame);
  return frame;
}

// A flow-keyed, path-filtered subscribe spec: every optional v3 field set.
StandingQuerySpec KeyedSpec() {
  return {.kind = Kind::kCountSummary,
          .link = LinkId{3, kInvalidNode},
          .range = TimeRange{100, 900},
          .flow = FiveTuple{1, 2, 10, 80, kProtoTcp},
          .path = CompactPath::FromPath({3, 4, 5})};
}

std::vector<uint8_t> KeyedSubscribeFrame() {
  std::vector<uint8_t> frame;
  transport::EncodeSubscribeFrame(17, KeyedSpec(), frame);
  return frame;
}

TEST(WireAdversarial, QueryDeltaRoundTripsAllKindsAtModeledSize) {
  for (StandingQuerySpec::Kind kind :
       {StandingQuerySpec::Kind::kTopK, StandingQuerySpec::Kind::kFlowSizeHistogram,
        StandingQuerySpec::Kind::kFlowList, StandingQuerySpec::Kind::kCountSummary}) {
    const QueryDelta d = MakeWireDelta(kind);
    std::vector<uint8_t> frame;
    const size_t n = transport::EncodeQueryDeltaFrame(d, frame);
    // The invariant the repo's byte accounting rests on: real frame
    // bytes == the size the model has always charged.
    EXPECT_EQ(n, d.SerializedSize());
    EXPECT_EQ(frame.size(), n);
    DecodedFrame out;
    ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kOk);
    EXPECT_EQ(out.type, FrameType::kQueryDelta);
    EXPECT_EQ(out.delta, d) << "kind " << int(uint8_t(kind));
  }
}

TEST(WireAdversarial, PerFlowDeltaPayloadBytesAreGolden) {
  QueryDelta d;
  d.subscription_id = 7;
  d.host = 3;
  d.kind = Kind::kTopK;
  d.epoch = 1;
  // Appended out of flow order: the encoder sorts.
  d.payload.flows = {{FiveTuple{1, 2, 20, 80, kProtoTcp}, 900},
                     {FiveTuple{1, 2, 10, 80, kProtoTcp}, 500}};
  std::vector<uint8_t> frame;
  ASSERT_EQ(transport::EncodeQueryDeltaFrame(d, frame), 16u + 24u + 2u * 21u);
  // The version-1 bytes: the framing, then the flows ascending by flow.
  const std::vector<uint8_t> golden = {
      // subscription 7, host 3, kind kTopK + 3 pad bytes, epoch 1
      7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
      // flow (1, 2, 10, 80, tcp), 500 bytes
      1, 0, 0, 0, 2, 0, 0, 0, 10, 0, 80, 0, 6, 0xF4, 0x01, 0, 0, 0, 0, 0, 0,
      // flow (1, 2, 20, 80, tcp), 900 bytes
      1, 0, 0, 0, 2, 0, 0, 0, 20, 0, 80, 0, 6, 0x84, 0x03, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes, frame.end()), golden);
}

TEST(WireAdversarial, SubscribePayloadBytesAreGolden) {
  // Unkeyed: flags 0, nothing after the range.
  std::vector<uint8_t> frame;
  transport::EncodeSubscribeFrame(
      17, {.kind = Kind::kTopK, .k = 5, .link = LinkId{3, 7}, .range = TimeRange{100, 900}},
      frame);
  const std::vector<uint8_t> unkeyed = {
      // subscription 17, kind kTopK, flags 0, 2 pad bytes
      17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      // link (3, 7), k 5, bin width 10000
      3, 0, 0, 0, 7, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x27, 0, 0, 0, 0, 0, 0,
      // range [100, 900)
      100, 0, 0, 0, 0, 0, 0, 0, 0x84, 0x03, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes, frame.end()), unkeyed);

  // Keyed: flags 3, then the packed 5-tuple and the path.
  frame = KeyedSubscribeFrame();
  const std::vector<uint8_t> keyed = {
      // subscription 17, kind kCountSummary, flags 3, 2 pad bytes
      17, 0, 0, 0, 0, 0, 0, 0, 3, 3, 0, 0,
      // link (3, *), k 0, bin width 10000
      3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0x27, 0, 0, 0, 0, 0,
      0,
      // range [100, 900)
      100, 0, 0, 0, 0, 0, 0, 0, 0x84, 0x03, 0, 0, 0, 0, 0, 0,
      // flow (1, 2, 10, 80, tcp)
      1, 0, 0, 0, 2, 0, 0, 0, 10, 0, 80, 0, 6,
      // path of 3 switches: 3, 4, 5
      3, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0};
  EXPECT_EQ(std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes, frame.end()), keyed);
}

TEST(WireAdversarial, KeyedSubscribeRoundTripsAndMalformedSpecsAreRejected) {
  DecodedFrame out;
  // Each optional field alone and both together round-trip.
  StandingQuerySpec flow_only = KeyedSpec();
  flow_only.path.reset();
  StandingQuerySpec path_only = KeyedSpec();
  path_only.flow.reset();
  for (const StandingQuerySpec& spec : {KeyedSpec(), flow_only, path_only}) {
    std::vector<uint8_t> f;
    transport::EncodeSubscribeFrame(17, spec, f);
    ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
    EXPECT_EQ(out.spec, spec);
  }

  // Offsets into the keyed payload: flags at 9, the path length after
  // the 52 fixed bytes and the 13-byte tuple.
  const size_t flags_at = kFrameHeaderBytes + 9;
  const size_t path_len_at = kFrameHeaderBytes + 52 + 13;
  const std::vector<uint8_t> base = KeyedSubscribeFrame();
  auto decode_tampered = [&](size_t at, uint8_t value) {
    std::vector<uint8_t> f = base;
    f[at] = value;
    RestampCrc(f);
    return DecodeFrame(f.data(), f.size(), &out);
  };
  // Unknown flag bits.
  EXPECT_EQ(decode_tampered(flags_at, 0x07), WireError::kBadPayload);
  EXPECT_EQ(decode_tampered(flags_at, 0x83), WireError::kBadPayload);
  // A path longer than CompactPath::kMaxSwitches.
  EXPECT_EQ(decode_tampered(path_len_at, CompactPath::kMaxSwitches + 1), WireError::kBadPayload);
  // The path flag cleared: the path becomes trailing bytes.
  EXPECT_EQ(decode_tampered(flags_at, 0x01), WireError::kBadPayload);
  {  // The path flag set on a flow-only spec: the path is missing.
    std::vector<uint8_t> f;
    transport::EncodeSubscribeFrame(17, flow_only, f);
    f[flags_at] = 0x03;
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadPayload);
  }
  {  // A version-2 frame is refused, not misparsed.
    std::vector<uint8_t> f = base;
    f[4] = 2;
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadVersion);
  }
}

TEST(WireAdversarial, NonzeroReservedAndPadBytesAreRejected) {
  // One valid frame of every type, with the payload offsets of its pad
  // bytes; byte 6 and 7 of every header are the reserved u16.
  std::vector<std::pair<std::vector<uint8_t>, std::vector<size_t>>> frames(11);
  transport::EncodeHelloFrame(9, 4321, 7, frames[0].first);
  transport::EncodeQueryDeltaFrame(MakeWireDelta(Kind::kTopK), frames[1].first);
  frames[1].second = {13, 14, 15};
  Alarm alarm;
  alarm.paths = {{1, 2, 3}};
  transport::EncodeAlarmFrame(alarm, frames[2].first);
  frames[3].first = KeyedSubscribeFrame();
  frames[3].second = {10, 11};
  transport::EncodeEpochTickFrame(5, frames[4].first);
  transport::EncodeAckFrame(5, 99, frames[5].first);
  frames[5].second = {4, 5, 6, 7};
  transport::EncodeIngestFrame(1000, 0xA1, 2048, 24, frames[6].first);
  transport::EncodeShutdownFrame(frames[7].first);
  transport::EncodeByeFrame(13, frames[8].first);
  transport::EncodeResyncRequestFrame(3, frames[9].first);
  QueryDelta snapshot = MakeWireDelta(Kind::kFlowList);
  snapshot.snapshot = true;
  transport::EncodeSnapshotFrame(snapshot, frames[10].first);
  frames[10].second = {13, 14, 15};

  for (const auto& [base, pads] : frames) {
    DecodedFrame out;
    ASSERT_EQ(DecodeFrame(base.data(), base.size(), &out), WireError::kOk);
    const int type = int(base[5]);
    std::vector<size_t> offsets = {6, 7};
    for (size_t pad : pads) {
      offsets.push_back(kFrameHeaderBytes + pad);
    }
    for (size_t at : offsets) {
      std::vector<uint8_t> f = base;
      f[at] = 0x01;
      RestampCrc(f);
      EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadPayload)
          << "frame type " << type << ", byte " << at;
    }
  }
}

TEST(WireAdversarial, NonCanonicalDeltaPayloadsAreRejected) {
  const FiveTuple f10{1, 2, 10, 80, kProtoTcp};
  const FiveTuple f20{1, 2, 20, 80, kProtoTcp};
  auto decode = [](FrameType type, Kind kind, const std::vector<std::vector<uint8_t>>& items) {
    const std::vector<uint8_t> f = HandEncodedDeltaFrame(type, kind, items);
    DecodedFrame out;
    return DecodeFrame(f.data(), f.size(), &out);
  };
  const FrameType delta = FrameType::kQueryDelta;

  // Per-flow items strictly ascending by flow.  A flow named twice would
  // otherwise fold silently into one map entry.
  EXPECT_EQ(decode(delta, Kind::kTopK, {FlowItemBytes(f10, 5), FlowItemBytes(f20, 9)}),
            WireError::kOk);
  EXPECT_EQ(decode(delta, Kind::kTopK, {FlowItemBytes(f10, 5), FlowItemBytes(f10, 9)}),
            WireError::kBadPayload);
  EXPECT_EQ(decode(delta, Kind::kFlowSizeHistogram,
                   {FlowItemBytes(f20, 9), FlowItemBytes(f10, 5)}),
            WireError::kBadPayload);

  // FlowList items strictly ascending by id.
  EXPECT_EQ(decode(delta, Kind::kFlowList,
                   {ListItemBytes(5, f10, {1, 2}), ListItemBytes(9, f20, {1, 2, 3})}),
            WireError::kOk);
  EXPECT_EQ(decode(delta, Kind::kFlowList,
                   {ListItemBytes(9, f20, {1, 2, 3}), ListItemBytes(5, f10, {1, 2})}),
            WireError::kBadPayload);
  EXPECT_EQ(decode(delta, Kind::kFlowList,
                   {ListItemBytes(5, f10, {1, 2}), ListItemBytes(5, f20, {1, 2, 3})}),
            WireError::kBadPayload);

  // A CountSummary payload is exactly one pair, and not all-zero in a
  // delta; an all-zero snapshot is a legal baseline.
  std::vector<uint8_t> pair;
  PutLe(pair, 1400, 8);
  PutLe(pair, 7, 8);
  std::vector<uint8_t> zero(16, 0);
  EXPECT_EQ(decode(delta, Kind::kCountSummary, {pair}), WireError::kOk);
  EXPECT_EQ(decode(delta, Kind::kCountSummary, {pair, pair}), WireError::kBadPayload);
  EXPECT_EQ(decode(delta, Kind::kCountSummary, {{pair.begin(), pair.begin() + 8}}),
            WireError::kBadPayload);
  EXPECT_EQ(decode(delta, Kind::kCountSummary, {}), WireError::kBadPayload);
  EXPECT_EQ(decode(delta, Kind::kCountSummary, {zero}), WireError::kBadPayload);
  EXPECT_EQ(decode(FrameType::kSnapshot, Kind::kCountSummary, {zero}), WireError::kOk);
}

TEST(WireAdversarial, AlarmRoundTripsWithPaths) {
  Alarm a;
  a.host = 11;
  a.flow = FiveTuple{1, 2, 10, 80, kProtoTcp};
  a.reason = AlarmReason::kPathConformance;
  a.paths = {{1, 2, 3}, {4, 5}};
  a.at = 123456789;
  std::vector<uint8_t> frame;
  const size_t n = transport::EncodeAlarmFrame(a, frame);
  EXPECT_EQ(n, transport::AlarmWireBytes(a));
  DecodedFrame out;
  ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kOk);
  EXPECT_EQ(out.type, FrameType::kAlarm);
  EXPECT_EQ(out.alarm, a);
}

TEST(WireAdversarial, ControlFramesRoundTrip) {
  std::vector<uint8_t> f;
  DecodedFrame out;

  transport::EncodeHelloFrame(9, 4321, 7, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.type, FrameType::kHello);
  EXPECT_EQ(out.host, 9u);
  EXPECT_EQ(out.pid, 4321u);
  EXPECT_EQ(out.incarnation, 7u);

  f.clear();
  transport::EncodeResyncRequestFrame(0xBEEFu, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.type, FrameType::kResyncRequest);
  EXPECT_EQ(out.subscription_id, 0xBEEFu);

  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kFlowSizeHistogram;
  spec.bin_width = 777;
  spec.link = LinkId{3, 7};
  spec.range = TimeRange{100, 900};
  f.clear();
  transport::EncodeSubscribeFrame(17, spec, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.subscription_id, 17u);
  EXPECT_EQ(out.spec, spec);

  f.clear();
  transport::EncodeEpochTickFrame(0xABCDEF, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.token, 0xABCDEFu);

  f.clear();
  transport::EncodeAckFrame(5, 99, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.host, 5u);
  EXPECT_EQ(out.token, 99u);

  f.clear();
  transport::EncodeIngestFrame(1000, 0xA1, 2048, 24, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.ingest_count, 1000u);
  EXPECT_EQ(out.ingest_seed, 0xA1u);
  EXPECT_EQ(out.ingest_ip_space, 2048u);
  EXPECT_EQ(out.ingest_switch_space, 24u);

  f.clear();
  transport::EncodeShutdownFrame(f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.type, FrameType::kShutdown);

  f.clear();
  transport::EncodeByeFrame(13, f);
  ASSERT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOk);
  EXPECT_EQ(out.type, FrameType::kBye);
  EXPECT_EQ(out.host, 13u);
}

TEST(WireAdversarial, SnapshotFramesRoundTripAndAllowEmpty) {
  // A snapshot is QueryDelta-shaped on the wire but its own frame type,
  // and — unlike a delta — an EMPTY snapshot is legal (a restarted
  // agent with an empty TIB still re-baselines the stream).
  for (auto kind :
       {StandingQuerySpec::Kind::kTopK, StandingQuerySpec::Kind::kFlowList}) {
    QueryDelta d = MakeWireDelta(kind);
    d.snapshot = true;
    std::vector<uint8_t> frame;
    const size_t n = transport::EncodeSnapshotFrame(d, frame);
    EXPECT_EQ(n, d.SerializedSize());
    DecodedFrame out;
    ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kOk);
    EXPECT_EQ(out.type, FrameType::kSnapshot);
    EXPECT_TRUE(out.delta.snapshot);
    EXPECT_EQ(out.delta, d) << "kind " << int(uint8_t(kind));

    QueryDelta empty = MakeWireDelta(kind);
    empty.snapshot = true;
    empty.payload = FoldState{};
    frame.clear();
    transport::EncodeSnapshotFrame(empty, frame);
    ASSERT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kOk);
    EXPECT_TRUE(out.delta.snapshot);
    EXPECT_EQ(out.delta, empty);

    // The same empty payload as a plain QueryDelta frame stays illegal.
    frame.clear();
    transport::EncodeQueryDeltaFrame(empty, frame);
    EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kBadPayload);
  }
}

TEST(WireAdversarial, TruncationAtEveryPrefixIsRejected) {
  std::vector<uint8_t> delta;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kFlowList), delta);
  for (const std::vector<uint8_t>& frame : {delta, KeyedSubscribeFrame()}) {
    ASSERT_GT(frame.size(), kFrameHeaderBytes);
    for (size_t len = 0; len < frame.size(); ++len) {
      DecodedFrame out;
      const WireError err = DecodeFrame(frame.data(), len, &out);
      EXPECT_EQ(err, WireError::kTruncated) << "type " << int(frame[5]) << ", prefix " << len;
    }
  }
}

TEST(WireAdversarial, TrailingBytesAreRejectedAsOversized) {
  std::vector<uint8_t> frame;
  transport::EncodeAckFrame(1, 2, frame);
  frame.push_back(0x00);  // ring messages carry exactly one frame
  DecodedFrame out;
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), &out), WireError::kOversized);
}

TEST(WireAdversarial, HeaderFieldTampersAreCategorized) {
  std::vector<uint8_t> base;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kTopK), base);
  DecodedFrame out;

  {  // Magic stomped: not a frame at all (checked before the CRC).
    std::vector<uint8_t> f = base;
    f[0] ^= 0xFF;
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadMagic);
  }
  {  // Future version, CRC restamped so the version check is what fires.
    std::vector<uint8_t> f = base;
    f[4] = transport::kWireVersion + 1;
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadVersion);
  }
  {  // Unknown frame type, CRC restamped.
    std::vector<uint8_t> f = base;
    f[5] = 0xEE;
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadType);
  }
  {  // Declared length beyond the cap: rejected before any allocation.
    std::vector<uint8_t> f = base;
    const uint32_t huge = uint32_t(kMaxFramePayload) + 1;
    std::memcpy(f.data() + 8, &huge, 4);
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOversized);
  }
  {  // Declared length grown within the cap: frame claims bytes the
    // buffer doesn't have.
    std::vector<uint8_t> f = base;
    uint32_t len;
    std::memcpy(&len, f.data() + 8, 4);
    len += 8;
    std::memcpy(f.data() + 8, &len, 4);
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kTruncated);
  }
  {  // Declared length shrunk: trailing bytes.
    std::vector<uint8_t> f = base;
    uint32_t len;
    std::memcpy(&len, f.data() + 8, 4);
    len -= 8;
    std::memcpy(f.data() + 8, &len, 4);
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kOversized);
  }
  {  // Unknown standing kind in the delta framing, CRC restamped: the
    // per-type payload decoder rejects it.
    std::vector<uint8_t> f = base;
    f[kFrameHeaderBytes + 12] = 0x09;  // kind byte, after 8 sub_id + 4 host
    RestampCrc(f);
    EXPECT_EQ(DecodeFrame(f.data(), f.size(), &out), WireError::kBadPayload);
  }
  {  // Record item declaring an impossible path length, CRC restamped.
    std::vector<uint8_t> rec;
    transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kFlowList), rec);
    // Payload: 24B delta framing, then 8 id + 13 tuple put the first
    // item's path-length byte at offset 45.
    rec[kFrameHeaderBytes + 45] = 0xFF;
    RestampCrc(rec);
    EXPECT_EQ(DecodeFrame(rec.data(), rec.size(), &out), WireError::kBadPayload);
  }
}

TEST(WireAdversarial, EverySingleBitFlipIsDetected) {
  // CRC-32 detects all single-bit errors deterministically, so this is
  // an exhaustive guarantee, not a sample: flip each bit of the frame
  // in turn and every mutant must be rejected with a counted category.
  std::vector<uint8_t> delta;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kCountSummary), delta);
  for (const std::vector<uint8_t>& base : {delta, KeyedSubscribeFrame()}) {
    for (size_t bit = 0; bit < base.size() * 8; ++bit) {
      std::vector<uint8_t> f = base;
      f[bit / 8] ^= uint8_t(1u << (bit % 8));
      DecodedFrame out;
      const WireError err = DecodeFrame(f.data(), f.size(), &out);
      EXPECT_NE(err, WireError::kOk)
          << "type " << int(base[5]) << ", bit " << bit << " slipped through";
    }
  }
}

TEST(WireAdversarial, SeededFuzzRejectsRandomCorruption) {
  // Beyond single bits: seeded random burst corruption (offset, width,
  // value all drawn from the PCG stream) must always come back as an
  // error and never crash.  Deterministic seed -> reproducible failures.
  std::vector<uint8_t> delta;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kFlowList), delta);
  const std::vector<uint8_t> subscribe = KeyedSubscribeFrame();
  Rng rng(0xF00DFACE);
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    // Even iterations corrupt the delta, odd ones the keyed subscribe.
    const std::vector<uint8_t>& base = iter % 2 == 0 ? delta : subscribe;
    std::vector<uint8_t> f = base;
    const size_t burst = 1 + rng.UniformInt(8);
    for (size_t b = 0; b < burst; ++b) {
      const size_t at = rng.UniformInt(uint32_t(f.size()));
      f[at] ^= uint8_t(1 + rng.UniformInt(255));  // nonzero: guaranteed change
    }
    if (std::memcmp(f.data(), base.data(), base.size()) == 0) {
      continue;  // bursts cancelled each other out
    }
    DecodedFrame out;
    const WireError err = DecodeFrame(f.data(), f.size(), &out);
    EXPECT_NE(err, WireError::kOk) << "iter " << iter;
    rejected += (err != WireError::kOk);
  }
  EXPECT_GT(rejected, 3900);  // the loop really ran
}

}  // namespace
}  // namespace pathdump
