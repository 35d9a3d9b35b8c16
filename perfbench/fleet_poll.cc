// fleet_poll: 16 in-process agents with static TIBs answer a single
// client's Controller::Execute polls, round-robin over four kinds.  Loads
// the read side: TIB shard scans, per-host aggregation and TopK finalize,
// the controller's fan-out pool and the ordered reduce.  Ingest and
// transport stay idle.

#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cherrypick/codec.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/topology/routing.h"
#include "tests/test_util.h"

namespace perfbench {
namespace {

using pathdump::CherryPickCodec;
using pathdump::Controller;
using pathdump::EdgeAgent;
using pathdump::EdgeAgentConfig;
using pathdump::FlowList;
using pathdump::HostId;
using pathdump::LinkId;
using pathdump::LinkLabelMap;
using pathdump::QueryResult;
using pathdump::Rng;
using pathdump::Router;
using pathdump::TibRecord;
using pathdump::TimeRange;
using pathdump::Topology;

constexpr int kFatTreeK = 8;
constexpr size_t kAgents = 16;  // the hosts of pod 0
constexpr int kRecordsPerAgent = 20000;
constexpr size_t kShards = 4;
constexpr size_t kWorkers = 4;  // caller + 3 pool threads
constexpr size_t kTopK = 1000;
constexpr int kWarmupRounds = 4;
constexpr int64_t kMinRounds = 110;  // p90 needs 100 samples per kind

constexpr int kKinds = 4;
const char* const kKindName[kKinds] = {"topk", "flowdist", "flows", "count"};
const char* const kRootName[kKinds] = {"poll.topk", "poll.flowdist", "poll.flows", "poll.count"};

struct FleetInputs {
  std::vector<HostId> hosts;
  std::vector<std::vector<TibRecord>> records;  // per agent
};

FleetInputs GenerateInputs(uint64_t seed, Fingerprint& fp) {
  Topology topo = pathdump::BuildFatTree(kFatTreeK);
  Router router(&topo);
  const pathdump::FatTreeMeta& meta = *topo.fat_tree();
  FleetInputs in;
  for (HostId h : topo.hosts()) {
    const auto& pod0 = meta.tor[0];
    if (std::find(pod0.begin(), pod0.end(), topo.TorOfHost(h)) != pod0.end()) {
      in.hosts.push_back(h);
    }
  }
  in.hosts.resize(std::min(in.hosts.size(), kAgents));
  Rng rng(seed, 0xF1EE7);
  for (size_t a = 0; a < in.hosts.size(); ++a) {
    std::vector<TibRecord>& recs = in.records.emplace_back();
    recs.reserve(kRecordsPerAgent);
    for (int e = 0; e < kRecordsPerAgent; ++e) {
      recs.push_back(pathdump::testutil::MakeEcmpRecord(topo, router, a, in.hosts[a], e, rng));
      const TibRecord& r = recs.back();
      fp.Add(r.flow.src_ip);
      fp.Add(r.flow.src_port);
      fp.Add(r.flow.dst_port);
      fp.Add(r.bytes);
      fp.Add(r.stime);
      fp.Add(r.etime);
      for (int i = 0; i < r.path.len; ++i) {
        fp.Add(r.path.sw[size_t(i)]);
      }
    }
    fp.Count(recs.size());
  }
  return in;
}

struct FleetBed {
  Topology topo;
  std::unique_ptr<LinkLabelMap> labels;
  std::unique_ptr<CherryPickCodec> codec;
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  // Declared after the agents: its pool threads stop first.
  Controller controller;
  LinkId probe;  // core -> agg down-link into pod 0
};

std::unique_ptr<FleetBed> SetUpBed(const FleetInputs& in) {
  auto bed = std::make_unique<FleetBed>();
  bed->topo = pathdump::BuildFatTree(kFatTreeK);
  bed->labels = std::make_unique<LinkLabelMap>(&bed->topo);
  bed->codec = std::make_unique<CherryPickCodec>(&bed->topo, bed->labels.get());
  EdgeAgentConfig cfg;
  cfg.tib_options.num_shards = kShards;
  for (size_t a = 0; a < in.hosts.size(); ++a) {
    auto agent = std::make_unique<EdgeAgent>(in.hosts[a], &bed->topo, bed->codec.get(), cfg);
    for (const TibRecord& rec : in.records[a]) {
      agent->tib().Insert(rec);
    }
    bed->controller.RegisterAgent(agent.get());
    bed->agents.push_back(std::move(agent));
  }
  bed->controller.SetWorkerThreads(kWorkers);
  const pathdump::FatTreeMeta& meta = *bed->topo.fat_tree();
  bed->probe = LinkId{meta.core[0], meta.agg[0][0]};
  return bed;
}

Controller::QueryFn QueryOf(int kind, LinkId probe) {
  switch (kind) {
    case 0:
      return [](EdgeAgent& a) -> QueryResult { return a.TopK(kTopK, TimeRange::All()); };
    case 1:
      return [probe](EdgeAgent& a) -> QueryResult {
        return a.FlowSizeDistribution(probe, TimeRange::All());
      };
    case 2:
      return [probe](EdgeAgent& a) -> QueryResult {
        return FlowList{a.GetFlows(probe, TimeRange::All())};
      };
    default:
      return [probe](EdgeAgent& a) -> QueryResult {
        return a.CountOnLink(probe, TimeRange::All());
      };
  }
}

struct Reference {
  QueryResult result;
  size_t response_bytes = 0;
};

double ResidentMb(const FleetBed& bed) {
  size_t bytes = 0;
  for (const auto& a : bed.agents) {
    bytes += a->tib().bytes_resident();
  }
  return double(bytes) / (1024.0 * 1024.0);
}

class FleetPoll : public Workload {
 public:
  const char* name() const override { return "fleet_poll"; }
  const char* inputs() const override { return "records"; }

  void Generate(uint64_t seed, Fingerprint& fp) override { in_ = GenerateInputs(seed, fp); }

  // Builds and preloads the fleet, then runs the warm-up rounds.  The
  // references are computed once, on the first build, with one worker.
  void SetUp(PhaseResult& out) override {
    bed_.reset();
    bed_ = SetUpBed(in_);
    if (fns_.empty()) {
      Controller sequential;
      for (const auto& a : bed_->agents) {
        sequential.RegisterAgent(a.get());
      }
      for (int k = 0; k < kKinds; ++k) {
        fns_.push_back(QueryOf(k, bed_->probe));
        auto [result, stats] = sequential.Execute(in_.hosts, fns_.back());
        refs_[k] = Reference{std::move(result), stats.response_bytes};
      }
    }
    PhaseResult warmup;  // checked, not counted
    for (int r = 0; r < kWarmupRounds; ++r) {
      for (int k = 0; k < kKinds; ++k) {
        Poll(k, fns_[size_t(k)], warmup);
      }
    }
    if (warmup.failed > 0) {
      out.Fail(0, warmup.errors.front());
    }
  }

  // Round-robin rounds over the four kinds; one sample per poll.
  void Measure(double seconds, PhaseResult& out) override {
    if (ms_[0].empty()) {
      resident_start_ = ResidentMb(*bed_);
    }
    const int64_t start = NowNs();
    do {
      for (int k = 0; k < kKinds; ++k) {
        ms_[k].push_back(Poll(k, fns_[size_t(k)], out));
      }
    } while (double(NowNs() - start) / 1e9 < seconds);
  }

  void Report(PhaseResult& out) override {
    while (int64_t(ms_[0].size()) < kMinRounds) {
      Measure(0, out);
    }
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = kKindName[k];
      out.e2e[name + "_p50_ms"] = {Median(ms_[k], name + "_p50_ms"), "ms"};
      out.e2e[name + "_p90_ms"] = {Percentile(ms_[k], 0.9, name + "_p90_ms"), "ms"};
      out.layer[name + "_p50_ms.first_half"] = {Median(FirstHalf(ms_[k]), name + " first half"),
                                                "ms"};
      out.layer[name + "_p50_ms.second_half"] = {
          Median(SecondHalf(ms_[k]), name + " second half"), "ms"};
    }
    out.layer["fleet.tib_resident_mb.start"] = {resident_start_, "MB"};
    out.layer["fleet.tib_resident_mb.end"] = {ResidentMb(*bed_), "MB"};
  }

  // The harness's own QueryFn wrapper stamps each per-host scan; fan-out
  // and reduce spans are derived from those stamps.
  void Trace(double seconds, SpanLog& spans, PhaseResult& out) override {
    std::vector<size_t> slot_of(bed_->topo.node_count(), 0);
    for (size_t i = 0; i < in_.hosts.size(); ++i) {
      slot_of[in_.hosts[i]] = i;
    }
    struct Stamp {
      int64_t start = 0;
      int64_t end = 0;
    };
    std::vector<Stamp> stamps(in_.hosts.size());
    std::vector<Controller::QueryFn> traced_fns;
    for (int k = 0; k < kKinds; ++k) {
      traced_fns.push_back([&stamps, &slot_of, inner = fns_[size_t(k)]](EdgeAgent& a) {
        Stamp& s = stamps[slot_of[a.host()]];
        s.start = NowNs();
        QueryResult r = inner(a);
        s.end = NowNs();
        return r;
      });
    }
    std::vector<double> scan[kKinds], fanout[kKinds], busy[kKinds], reduce[kKinds], total[kKinds];
    size_t response_bytes[kKinds] = {};
    const Budget budget{seconds, kMinRounds};
    uint64_t op = 0;
    int64_t rounds = 0;
    const int64_t start = NowNs();
    while (!budget.Done(start, rounds)) {
      for (int k = 0; k < kKinds; ++k) {
        int64_t call = 0, ret = 0;
        total[k].push_back(Poll(k, traced_fns[size_t(k)], out, &response_bytes[k], &call, &ret));
        ++op;
        const int64_t root = spans.Add(kRootName[k], call, ret, -1, op);
        int64_t first = ret, last = call, busy_ns = 0;
        for (const Stamp& s : stamps) {
          spans.Add("edge.scan", s.start, s.end, root, op);
          scan[k].push_back(double(s.end - s.start) / 1e6);
          first = std::min(first, s.start);
          last = std::max(last, s.end);
          busy_ns += s.end - s.start;
        }
        spans.Add("controller.reduce", last, ret, root, op);
        const int64_t span_ns = std::max<int64_t>(last - first, 1);
        fanout[k].push_back(double(span_ns) / 1e6);
        busy[k].push_back(double(busy_ns) / (double(kWorkers) * double(span_ns)));
        reduce[k].push_back(double(ret - last) / 1e6);
      }
      ++rounds;
    }
    const std::vector<int64_t> self = SelfTimes(spans.spans());
    for (int k = 0; k < kKinds; ++k) {
      const std::string name = kKindName[k];
      out.layer["scan_ms." + name] = {Median(scan[k], "scan_ms." + name), "ms"};
      out.layer["fanout_ms." + name] = {Median(fanout[k], "fanout_ms." + name), "ms"};
      out.layer["pool_busy_ratio." + name] = {Median(busy[k], "pool_busy_ratio." + name),
                                              "ratio"};
      out.layer["reduce_ms." + name] = {Median(reduce[k], "reduce_ms." + name), "ms"};
      out.layer["response_kb." + name] = {double(response_bytes[k]) / 1e3, "KB"};
      out.layer["unattributed_share.poll_" + name] = {
          UnattributedShare(spans.spans(), self, kRootName[k]), "ratio"};
    }
    out.layer["tracing_overhead.fleet_poll"] = {
        OverheadPct(Median(ms_[0], "topk_p50_ms"), Median(total[0], "traced topk_p50_ms"), false),
        "%"};
  }

  // Every poll was checked against its reference as it returned.
  void Finish(PhaseResult&) override { bed_.reset(); }

 private:
  // One poll, checked against its kind's reference.  Returns the Execute
  // time in ms.
  double Poll(int kind, const Controller::QueryFn& fn, PhaseResult& out,
              size_t* response_bytes = nullptr, int64_t* call_ns = nullptr,
              int64_t* ret_ns = nullptr) {
    const int64_t t0 = NowNs();
    auto [result, stats] = bed_->controller.Execute(in_.hosts, fn);
    const int64_t t1 = NowNs();
    ++out.attempted;
    const Reference& ref = refs_[kind];
    if (!(result == ref.result) || stats.response_bytes != ref.response_bytes) {
      out.Fail(1, std::string("fleet_poll: ") + kKindName[kind] + " differs from its reference");
    }
    if (response_bytes != nullptr) {
      *response_bytes = stats.response_bytes;
    }
    if (call_ns != nullptr) {
      *call_ns = t0;
      *ret_ns = t1;
    }
    return double(t1 - t0) / 1e6;
  }

  FleetInputs in_;
  std::unique_ptr<FleetBed> bed_;
  std::vector<Controller::QueryFn> fns_;
  Reference refs_[kKinds];
  std::vector<double> ms_[kKinds];
  double resident_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetPoll() { return std::make_unique<FleetPoll>(); }

}  // namespace perfbench
