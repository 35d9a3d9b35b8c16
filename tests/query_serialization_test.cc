// Wire-format accounting and merge-algebra tests for QueryResult, plus
// assorted edge-case semantics (CompactPath truncation, RPC cost model,
// degenerate aggregation trees, VL2 fluid paths).

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/flow_delta.h"
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

TEST(SerializationConsistency, FlowBytesDeltaGoldenAndApplyToAgree) {
  auto item = [](uint16_t port, uint64_t bytes) {
    return std::pair<FiveTuple, uint64_t>{FiveTuple{1, 2, port, 80, kProtoTcp}, bytes};
  };
  // Golden framing: 16-byte header + 21 per item (same per-flow item
  // size as TopKFlows).
  FlowBytesDelta empty;
  EXPECT_EQ(empty.SerializedSize(), 16u);
  FlowBytesDelta a;
  a.items = {item(10, 100), item(20, 200)};
  EXPECT_EQ(a.SerializedSize(), 16u + 2u * 21u);

  // ApplyTo folds by integer sums: applying a then b (one shared flow)
  // leaves three flows with the shared one summed — in either order.
  FlowBytesDelta b;
  b.items = {item(20, 50), item(30, 300)};
  FlowBytesMap ab;
  a.ApplyTo(ab);
  b.ApplyTo(ab);
  FlowBytesMap ba;
  b.ApplyTo(ba);
  a.ApplyTo(ba);
  EXPECT_EQ(ab, ba);
  ASSERT_EQ(ab.size(), 3u);
  EXPECT_EQ(ab.at(item(10, 0).first), 100u);
  EXPECT_EQ(ab.at(item(20, 0).first), 250u);
  EXPECT_EQ(ab.at(item(30, 0).first), 300u);
}

TEST(SerializationConsistency, QueryDeltaFramingAndMaterialization) {
  QueryDelta d;
  d.subscription_id = 7;
  d.host = 3;
  d.epoch = 1;
  // Empty delta: 24-byte sub/host/epoch framing + payload header.
  EXPECT_EQ(d.SerializedSize(), 24u + 16u);
  d.payload.items = {{FiveTuple{1, 2, 10, 80, kProtoTcp}, 500},
                     {FiveTuple{1, 2, 20, 80, kProtoTcp}, 900}};
  EXPECT_EQ(d.SerializedSize(), 24u + 16u + 2u * 21u);

  // Materializing the folded payload yields a result whose size obeys
  // the golden framing for its own type.
  FlowBytesMap folded;
  d.payload.ApplyTo(folded);
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

TEST(SerializationConsistency, RecordDeltaFramingFoldAndMaterialization) {
  // Per-record framing: 16 header + (8 id + 13 tuple + 8 bytes + 4 pkts
  // + 1 + 4*path_len)/item.
  RecordDelta rd;
  rd.items.push_back(RecordDeltaItem{5, FiveTuple{1, 2, 10, 80, kProtoTcp}, {1, 2}, 500, 3});
  rd.items.push_back(RecordDeltaItem{9, FiveTuple{1, 2, 20, 80, kProtoTcp}, {1, 2, 3}, 900, 4});
  EXPECT_EQ(rd.SerializedSize(), 16u + (33u + 1u + 8u) + (33u + 1u + 12u));

  // A QueryDelta carries the record payload's size under the same 24-byte
  // framing as the per-flow shape.
  QueryDelta d;
  d.records = rd;
  EXPECT_EQ(d.SerializedSize(), 24u + rd.SerializedSize());

  // Folding dedups (flow, path) by minimum id and materializes in
  // first-appearance (ascending id) order; CountSummary sums every item.
  StandingQuerySpec list_spec;
  list_spec.kind = StandingQuerySpec::Kind::kFlowList;
  RecordFoldState state;
  state.Fold(list_spec, rd);
  RecordDelta dup;  // same (flow, path) as item 1 but a later id
  dup.items.push_back(RecordDeltaItem{12, FiveTuple{1, 2, 10, 80, kProtoTcp}, {1, 2}, 100, 1});
  state.Fold(list_spec, dup);
  QueryResult list = MaterializeStandingRecords(list_spec, state);
  const auto& fl = std::get<FlowList>(list);
  ASSERT_EQ(fl.flows.size(), 2u);
  EXPECT_EQ(fl.flows[0].id.src_port, 10);  // id 5 before id 9
  EXPECT_EQ(fl.flows[1].id.src_port, 20);

  StandingQuerySpec count_spec;
  count_spec.kind = StandingQuerySpec::Kind::kCountSummary;
  RecordFoldState cstate;
  cstate.Fold(count_spec, rd);
  cstate.Fold(count_spec, dup);
  QueryResult count = MaterializeStandingRecords(count_spec, cstate);
  EXPECT_EQ(std::get<CountSummary>(count), (CountSummary{1500, 8}));
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
  if (kind == StandingQuerySpec::Kind::kTopK ||
      kind == StandingQuerySpec::Kind::kFlowSizeHistogram) {
    d.payload.items = {{FiveTuple{1, 2, 10, 80, kProtoTcp}, 500},
                       {FiveTuple{3, 4, 20, 443, kProtoUdp}, 900}};
  } else {
    d.records.items.push_back(
        RecordDeltaItem{5, FiveTuple{1, 2, 10, 80, kProtoTcp}, {1, 2}, 500, 3});
    d.records.items.push_back(
        RecordDeltaItem{9, FiveTuple{3, 4, 20, 443, kProtoUdp}, {1, 2, 3}, 900, 4});
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
    empty.payload.items.clear();
    empty.records.items.clear();
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
  std::vector<uint8_t> frame;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kFlowList), frame);
  ASSERT_GT(frame.size(), kFrameHeaderBytes);
  for (size_t len = 0; len < frame.size(); ++len) {
    DecodedFrame out;
    const WireError err = DecodeFrame(frame.data(), len, &out);
    EXPECT_EQ(err, WireError::kTruncated) << "prefix " << len;
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
    // Payload: 24B delta framing, then 8 id + 13 tuple + 8 bytes + 4
    // pkts put the first item's path-length byte at offset 57.
    rec[kFrameHeaderBytes + 57] = 0xFF;
    RestampCrc(rec);
    EXPECT_EQ(DecodeFrame(rec.data(), rec.size(), &out), WireError::kBadPayload);
  }
}

TEST(WireAdversarial, EverySingleBitFlipIsDetected) {
  // CRC-32 detects all single-bit errors deterministically, so this is
  // an exhaustive guarantee, not a sample: flip each bit of the frame
  // in turn and every mutant must be rejected with a counted category.
  std::vector<uint8_t> base;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kCountSummary), base);
  for (size_t bit = 0; bit < base.size() * 8; ++bit) {
    std::vector<uint8_t> f = base;
    f[bit / 8] ^= uint8_t(1u << (bit % 8));
    DecodedFrame out;
    const WireError err = DecodeFrame(f.data(), f.size(), &out);
    EXPECT_NE(err, WireError::kOk) << "bit " << bit << " slipped through";
  }
}

TEST(WireAdversarial, SeededFuzzRejectsRandomCorruption) {
  // Beyond single bits: seeded random burst corruption (offset, width,
  // value all drawn from the PCG stream) must always come back as an
  // error and never crash.  Deterministic seed -> reproducible failures.
  std::vector<uint8_t> base;
  transport::EncodeQueryDeltaFrame(MakeWireDelta(StandingQuerySpec::Kind::kFlowList), base);
  Rng rng(0xF00DFACE);
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
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
