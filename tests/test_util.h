// Shared helpers for the PathDump test suite.

#ifndef PATHDUMP_TESTS_TEST_UTIL_H_
#define PATHDUMP_TESTS_TEST_UTIL_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/cherrypick/codec.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/edge/edge_agent.h"
#include "src/edge/standing_query.h"
#include "src/edge/tib.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace pathdump {
namespace testutil {

// One synthetic TIB entry terminating at `host` (agent index `a` of the
// queried population): random remote source, one of its real ECMP paths,
// heavy-tailed size.  The topology-aware sibling of MakeSyntheticRecords
// (src/workload/synthetic_records.h), shared with
// bench/query_bench_common.h.  Consumes a fixed number of rng draws so
// record streams are reproducible wherever the same seed is used.
inline TibRecord MakeEcmpRecord(const Topology& topo, const Router& router, size_t a,
                                HostId host, int e, Rng& rng) {
  const std::vector<HostId>& all_hosts = topo.hosts();
  HostId src = all_hosts[rng.UniformInt(uint32_t(all_hosts.size()))];
  if (src == host) {
    src = all_hosts[(a + 1) % all_hosts.size()];
  }
  std::vector<Path> paths = router.EcmpPaths(src, host);
  const Path& path = paths[rng.UniformInt(uint32_t(paths.size()))];

  TibRecord rec;
  rec.flow.src_ip = topo.IpOfHost(src);
  rec.flow.dst_ip = topo.IpOfHost(host);
  rec.flow.src_port = uint16_t(1024 + (e & 0xFFFF) % 60000);
  rec.flow.dst_port = uint16_t(80 + (e >> 16));
  rec.flow.protocol = kProtoTcp;
  rec.path = CompactPath::FromPath(path);
  rec.stime = SimTime(rng.UniformInt(3600)) * kNsPerSec;
  rec.etime = rec.stime + SimTime(rng.UniformInt(5000)) * kNsPerMs;
  rec.bytes = uint64_t(rng.Pareto(1000.0, 1.3));
  rec.pkts = uint32_t(rec.bytes / 1460 + 1);
  return rec;
}

// Walks `path` (switch sequence) from src to dst, applying the CherryPick
// encoder at each hop exactly as a switch pipeline would, and returns the
// resulting (dscp, tags-in-push-order) trajectory header.
inline std::pair<LinkLabel, std::vector<LinkLabel>> EncodeAlongPath(
    const CherryPickCodec& codec, HostId src, HostId dst, const Path& path) {
  LinkLabel dscp = 0;
  std::vector<LinkLabel> tags;
  for (size_t i = 0; i < path.size(); ++i) {
    NodeId in = (i == 0) ? NodeId(src) : path[i - 1];
    NodeId out = (i + 1 < path.size()) ? path[i + 1] : NodeId(dst);
    TagAction act = codec.OnForward(path[i], in, out, dst, int(tags.size()), dscp);
    if (act.push_vlan) {
      tags.push_back(act.vlan);
    }
    if (act.set_dscp) {
      dscp = act.dscp;
    }
  }
  return {dscp, tags};
}

// A FiveTuple between two hosts with distinguishable ports.
inline FiveTuple MakeFlow(const Topology& topo, HostId src, HostId dst, uint16_t src_port = 10000,
                          uint16_t dst_port = 80, uint8_t proto = kProtoTcp) {
  FiveTuple t;
  t.src_ip = topo.IpOfHost(src);
  t.dst_ip = topo.IpOfHost(dst);
  t.src_port = src_port;
  t.dst_port = dst_port;
  t.protocol = proto;
  return t;
}

// The paper's Fig. 9 scenario topology: a chain of switches S1..S6 with
// hosts A (at S1) and B (at S6); S2..S5 can be misconfigured into a loop.
//
//   A - S1 - S2 - S3 - S4 - S6 - B
//                  \    |
//                   \   |
//                    \  |
//                     S5
//
// Links: S1-S2, S2-S3, S3-S4, S4-S5, S5-S2, S4-S6 (S5 closes the loop).
struct LoopScenario {
  Topology topo;
  HostId host_a = kInvalidNode;
  HostId host_b = kInvalidNode;
  SwitchId s1, s2, s3, s4, s5, s6;
};

inline LoopScenario BuildLoopScenario() {
  LoopScenario sc;
  Topology& t = sc.topo;
  sc.s1 = t.AddSwitch(NodeRole::kTor, -1, 0, "S1");
  sc.s2 = t.AddSwitch(NodeRole::kAgg, -1, 1, "S2");
  sc.s3 = t.AddSwitch(NodeRole::kAgg, -1, 2, "S3");
  sc.s4 = t.AddSwitch(NodeRole::kAgg, -1, 3, "S4");
  sc.s5 = t.AddSwitch(NodeRole::kAgg, -1, 4, "S5");
  sc.s6 = t.AddSwitch(NodeRole::kTor, -1, 5, "S6");
  t.AddLink(sc.s1, sc.s2);
  t.AddLink(sc.s2, sc.s3);
  t.AddLink(sc.s3, sc.s4);
  t.AddLink(sc.s4, sc.s5);
  t.AddLink(sc.s5, sc.s2);
  t.AddLink(sc.s4, sc.s6);
  sc.host_a = t.AddHost(-1, 0, "A");
  t.AddLink(sc.host_a, sc.s1);
  sc.host_b = t.AddHost(-1, 1, "B");
  t.AddLink(sc.host_b, sc.s6);
  return sc;
}

// --- Polls of the standing kinds ---

// The four standing kinds at one parameter set, in Kind order — TopK
// over every link (the paper API's TopK), the rest on `link`.
inline std::vector<StandingQuerySpec> FourKindSpecs(size_t k, const LinkId& link,
                                                    int64_t bin_width) {
  using Kind = StandingQuerySpec::Kind;
  return {{.kind = Kind::kTopK, .k = k},
          {.kind = Kind::kFlowSizeHistogram, .bin_width = bin_width, .link = link},
          {.kind = Kind::kFlowList, .link = link},
          {.kind = Kind::kCountSummary, .link = link}};
}

// A Controller::QueryFn that polls `spec` on each agent.
inline std::function<QueryResult(EdgeAgent&)> PollOf(const StandingQuerySpec& spec) {
  return [spec](EdgeAgent& a) -> QueryResult { return a.Poll(spec); };
}

}  // namespace testutil
}  // namespace pathdump

#endif  // PATHDUMP_TESTS_TEST_UTIL_H_
