// edge_ingest: one EdgeAgent takes a pre-generated packet stream through
// OnPacket.  Loads the per-packet and per-record data path (trajectory
// memory, trajectory cache + CherryPick decode, TIB insert and segment
// eviction, standing-query hooks); polls and transport stay idle.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/cherrypick/codec.h"
#include "src/cherrypick/trajectory_cache.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/edge/standing_query.h"
#include "src/edge/trajectory_memory.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/topology/routing.h"
#include "tests/test_util.h"

namespace perfbench {
namespace {

using pathdump::CherryPickCodec;
using pathdump::Controller;
using pathdump::CountSummary;
using pathdump::EdgeAgent;
using pathdump::EdgeAgentConfig;
using pathdump::HostId;
using pathdump::LinkLabelMap;
using pathdump::Packet;
using pathdump::Path;
using pathdump::Rng;
using pathdump::Router;
using pathdump::SimTime;
using pathdump::StandingQueryAccumulator;
using pathdump::StandingQuerySpec;
using pathdump::SubscriptionManager;
using pathdump::Tib;
using pathdump::TibMemoryStats;
using pathdump::TibRecord;
using pathdump::Topology;
using pathdump::TopKFlows;
using pathdump::TrajectoryCache;
using pathdump::TrajectoryMemory;

constexpr int kFatTreeK = 16;
// Bounded flow population: distinct 5-tuples, each pinned to one ECMP
// path, so the retx, trajectory-memory and fold maps stop growing.
constexpr uint32_t kFlowPoolBits = 14;
constexpr uint32_t kFlowPool = 1u << kFlowPoolBits;
constexpr uint32_t kHotSources = 32;        // half the flows come from these
constexpr uint32_t kActiveFlows = 4096;     // flows open at any time
constexpr uint32_t kStreamPackets = 1u << 22;  // replayed cyclically
constexpr SimTime kStepNs = 1000;           // simulated time per packet
constexpr SimTime kSweepPeriod = 5 * pathdump::kNsPerMs;  // a sweep every 5000 packets
constexpr int64_t kEpochPackets = 50000;    // 10 sweeps, then one EpochTick
constexpr size_t kTibCeiling = size_t(4) << 20;
constexpr size_t kShards = 4;
constexpr int64_t kWarmupPackets = 1'500'000;
constexpr int64_t kMinBlocks = 40;          // epoch intervals per pass, at least
constexpr int64_t kMinTracedBlocks = 100;   // the sweep p99 needs 1000 sweeps
constexpr int kSampleEvery = 128;           // traced pass: 1 in N plain packets
constexpr size_t kCaptureCap = 200'000;     // records kept for the replays

// Stream entry: pool index | fin << 14 | size << 15.
constexpr uint32_t kFinBit = 1u << kFlowPoolBits;
constexpr int kSizeShift = kFlowPoolBits + 1;

struct EdgeInputs {
  HostId dst = pathdump::kInvalidNode;
  std::vector<Packet> templates;  // one per flow-pool entry: 5-tuple + header
  std::vector<uint32_t> stream;
};

EdgeInputs GenerateInputs(uint64_t seed, Fingerprint& fp) {
  Topology topo = pathdump::BuildFatTree(kFatTreeK);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Router router(&topo);
  Rng rng(seed, 0xED6E);

  EdgeInputs in;
  const std::vector<HostId>& hosts = topo.hosts();
  in.dst = hosts[0];
  auto random_source = [&] { return hosts[1 + rng.UniformInt(uint32_t(hosts.size() - 1))]; };
  std::vector<HostId> hot;
  while (hot.size() < kHotSources) {
    const HostId h = random_source();
    if (std::find(hot.begin(), hot.end(), h) == hot.end()) {
      hot.push_back(h);
    }
  }

  std::unordered_map<HostId, std::vector<Path>> paths_of;
  in.templates.resize(kFlowPool);
  for (uint32_t i = 0; i < kFlowPool; ++i) {
    const HostId src = i < kFlowPool / 2 ? hot[rng.UniformInt(kHotSources)] : random_source();
    auto [it, fresh] = paths_of.try_emplace(src);
    if (fresh) {
      it->second = router.EcmpPaths(src, in.dst);
    }
    const Path& path = it->second[rng.UniformInt(uint32_t(it->second.size()))];
    auto [dscp, tags] = pathdump::testutil::EncodeAlongPath(codec, src, in.dst, path);
    Packet& p = in.templates[i];
    p.flow = pathdump::testutil::MakeFlow(topo, src, in.dst, uint16_t(1024 + i), 80);
    p.src_host = src;
    p.dst_host = in.dst;
    p.dscp = dscp;
    p.tags = std::move(tags);
    fp.Add(p.flow.src_ip);
    fp.Add(p.flow.src_port);
    fp.Add(p.dscp);
    for (auto t : p.tags) {
      fp.Add(t);
    }
  }

  // Active slots draw new flows half from the hot and half from the cold
  // half of the pool; a flow sends 2..32 packets and ends with a FIN.
  std::vector<uint32_t> free_lists[2];
  for (uint32_t i = 0; i < kFlowPool; ++i) {
    free_lists[i < kFlowPool / 2 ? 0 : 1].push_back(i);
  }
  auto take_flow = [&]() -> uint32_t {
    int cls = rng.Bernoulli(0.5) ? 0 : 1;
    if (free_lists[cls].empty()) {
      cls ^= 1;
    }
    std::vector<uint32_t>& list = free_lists[cls];
    const size_t j = rng.UniformInt(uint32_t(list.size()));
    const uint32_t idx = list[j];
    list[j] = list.back();
    list.pop_back();
    return idx;
  };
  struct Slot {
    uint32_t idx;
    uint32_t remaining;
  };
  std::vector<Slot> slots(kActiveFlows);
  for (Slot& s : slots) {
    s = Slot{take_flow(), 2 + rng.UniformInt(31)};
  }
  in.stream.reserve(kStreamPackets);
  for (uint32_t n = 0; n < kStreamPackets; ++n) {
    Slot& s = slots[rng.UniformInt(kActiveFlows)];
    const uint32_t size = rng.Bernoulli(0.6) ? 1460 : 64 + rng.UniformInt(1397);
    const bool fin = --s.remaining == 0;
    const uint32_t entry = s.idx | (fin ? kFinBit : 0) | (size << kSizeShift);
    in.stream.push_back(entry);
    fp.Add(entry);
    if (fin) {
      free_lists[s.idx < kFlowPool / 2 ? 0 : 1].push_back(s.idx);
      s = Slot{take_flow(), 2 + rng.UniformInt(31)};
    }
  }
  fp.Count(in.stream.size());
  return in;
}

// Everything the workload constructs: the set-up that setup_s times.
struct EdgeBed {
  Topology topo;
  std::unique_ptr<LinkLabelMap> labels;
  std::unique_ptr<CherryPickCodec> codec;
  Controller controller;
  std::unique_ptr<EdgeAgent> agent;
  // Declared after the agent: its destructor detaches from it.
  std::unique_ptr<SubscriptionManager> manager;
  uint64_t topk_sub = 0;
  uint64_t count_sub = 0;
};

EdgeAgentConfig AgentConfig() {
  EdgeAgentConfig cfg;
  cfg.sweep_period = kSweepPeriod;
  cfg.tib_options.num_shards = kShards;
  cfg.tib_options.max_memory_bytes = kTibCeiling;
  return cfg;
}

// TopK with k covering the whole flow pool, so the materialized list is
// the controller's entire fold state (the stationarity diagnostic).
StandingQuerySpec TopKSpec() {
  StandingQuerySpec s;
  s.kind = StandingQuerySpec::Kind::kTopK;
  s.k = kFlowPool;
  return s;
}

StandingQuerySpec CountSpec() {
  StandingQuerySpec s;
  s.kind = StandingQuerySpec::Kind::kCountSummary;  // wildcard link
  return s;
}

std::unique_ptr<EdgeBed> SetUpBed(HostId dst) {
  auto bed = std::make_unique<EdgeBed>();
  bed->topo = pathdump::BuildFatTree(kFatTreeK);
  bed->labels = std::make_unique<LinkLabelMap>(&bed->topo);
  bed->codec = std::make_unique<CherryPickCodec>(&bed->topo, bed->labels.get());
  bed->agent = std::make_unique<EdgeAgent>(dst, &bed->topo, bed->codec.get(), AgentConfig());
  bed->controller.RegisterAgent(bed->agent.get());
  bed->manager = std::make_unique<SubscriptionManager>(&bed->controller);
  bed->topk_sub = bed->manager->Subscribe({dst}, TopKSpec());
  bed->count_sub = bed->manager->Subscribe({dst}, CountSpec());
  return bed;
}

// Feeds the stream into the agent, advancing simulated time a fixed step
// per packet and mirroring the agent's sweep schedule (a packet crosses a
// sweep when now >= next sweep, exactly EdgeAgent::OnPacket's test).
class Feeder {
 public:
  Feeder(EdgeInputs& in, EdgeAgent& agent) : in_(in), agent_(agent) {}

  // One epoch interval: kEpochPackets packets, then EpochTick.  When
  // `spans` is set, times every sweep-crossing packet, one in
  // kSampleEvery plain packets, and the EpochTick.
  void Block(SpanLog* spans) {
    for (int64_t i = 0; i < kEpochPackets; ++i) {
      Packet& p = Next();
      const bool crosses = now_ >= next_sweep_;
      if (crosses) {
        next_sweep_ = now_ + kSweepPeriod;
      }
      if (spans != nullptr && (crosses || packets_ % kSampleEvery == 0)) {
        const int64_t t0 = NowNs();
        agent_.OnPacket(p, now_);
        const int64_t t1 = NowNs();
        spans->Add(crosses ? "edge_agent.sweep" : "edge_agent.on_packet", t0, t1, -1, ++op_);
      } else {
        agent_.OnPacket(p, now_);
      }
      now_ += kStepNs;
      ++packets_;
    }
    if (spans != nullptr) {
      const int64_t t0 = NowNs();
      agent_.EpochTick();
      spans->Add("edge_agent.epoch_tick", t0, NowNs(), -1, ++op_);
    } else {
      agent_.EpochTick();
    }
  }

  SimTime now() const { return now_; }
  uint64_t fed_bytes() const { return fed_bytes_; }
  uint64_t fed_pkts() const { return uint64_t(packets_); }

 private:
  Packet& Next() {
    const uint32_t e = in_.stream[pos_];
    pos_ = pos_ + 1 == in_.stream.size() ? 0 : pos_ + 1;
    Packet& p = in_.templates[e & (kFlowPool - 1)];
    p.fin = (e & kFinBit) != 0;
    p.size_bytes = e >> kSizeShift;
    fed_bytes_ += p.size_bytes;
    return p;
  }

  EdgeInputs& in_;
  EdgeAgent& agent_;
  size_t pos_ = 0;
  SimTime now_ = pathdump::kNsPerSec;
  SimTime next_sweep_ = 0;
  int64_t packets_ = 0;
  uint64_t fed_bytes_ = 0;
  uint64_t op_ = 0;
};

double ResidentMb(const EdgeAgent& agent) {
  return double(agent.tib().bytes_resident()) / (1024.0 * 1024.0);
}

double FoldStateFlows(EdgeBed& bed) {
  const auto r = bed.manager->Materialize(bed.topk_sub);
  const auto* topk = std::get_if<TopKFlows>(&r);
  return topk == nullptr ? 0 : double(topk->items.size());
}

// Standalone replay of the run's packet stream through TrajectoryMemory,
// with sweeps at the agent's cadence (untimed).  Returns ns per update.
double ReplayTrajectoryMemory(EdgeInputs& in) {
  TrajectoryMemory memory;
  std::vector<double> ns_per_update;
  SimTime now = pathdump::kNsPerSec;
  const int64_t per_sweep = kSweepPeriod / kStepNs;
  const size_t total = std::min<size_t>(in.stream.size(), 1'000'000);
  for (size_t base = 0; base + size_t(per_sweep) <= total; base += size_t(per_sweep)) {
    const int64_t t0 = NowNs();
    for (int64_t i = 0; i < per_sweep; ++i) {
      const uint32_t e = in.stream[base + size_t(i)];
      Packet& p = in.templates[e & (kFlowPool - 1)];
      p.fin = (e & kFinBit) != 0;
      p.size_bytes = e >> kSizeShift;
      memory.OnPacket(p, now);
      now += kStepNs;
    }
    ns_per_update.push_back(double(NowNs() - t0) / double(per_sweep));
    memory.Sweep(now, [](const TrajectoryMemory::Record&) {});
  }
  return Median(ns_per_update, "trajectory_memory.update_ns");
}

// Replays the captured records' headers through a standalone trajectory
// cache; times CherryPickCodec::Decode on each miss.  Returns p50 in us.
double ReplayDecode(const EdgeBed& bed, const EdgeInputs& in,
                    const std::vector<TibRecord>& records) {
  TrajectoryCache cache(AgentConfig().trajectory_cache_capacity);
  std::vector<double> us;
  for (const TibRecord& rec : records) {
    // Pool entry i sends from port 1024 + i.
    const Packet& p = in.templates[uint32_t(rec.flow.src_port - 1024) & (kFlowPool - 1)];
    if (cache.Lookup(p.flow.src_ip, p.dscp, p.tags)) {
      continue;
    }
    const int64_t t0 = NowNs();
    std::optional<Path> path = bed.codec->Decode(p.src_host, in.dst, p.dscp, p.tags);
    us.push_back(double(NowNs() - t0) / 1e3);
    if (path) {
      cache.Insert(p.flow.src_ip, p.dscp, p.tags, *path);
    }
  }
  return Median(us, "cherrypick.decode_us");
}

// Replays the captured records into a Tib with the agent's options and the
// same two standing accumulators; seals (and drains the accumulators) every
// `per_epoch` records, untimed.  Returns ns per insert.
double ReplayTibInsert(HostId dst, const std::vector<TibRecord>& records, size_t per_epoch) {
  Tib tib(AgentConfig().tib_options);
  StandingQueryAccumulator topk(1, dst, TopKSpec(), &tib);
  StandingQueryAccumulator count(2, dst, CountSpec(), &tib);
  std::vector<double> ns;
  per_epoch = std::max<size_t>(per_epoch, 1);
  for (size_t base = 0; base < records.size(); base += per_epoch) {
    const size_t end = std::min(records.size(), base + per_epoch);
    const int64_t t0 = NowNs();
    for (size_t i = base; i < end; ++i) {
      tib.Insert(records[i]);
    }
    ns.push_back(double(NowNs() - t0) / double(end - base));
    topk.TakeDelta();
    count.TakeDelta();
    tib.SealEpoch();
  }
  return Median(ns, "tib.insert_ns");
}

void TracedPass(EdgeBed& bed, EdgeInputs& in, Feeder& feeder, const Budget& budget,
                SpanLog& spans, double untraced_pps, PhaseResult& out) {
  std::vector<TibRecord> captured;
  captured.reserve(kCaptureCap);
  const int hook = bed.agent->AddRecordHook([&captured](EdgeAgent&, const TibRecord& r, SimTime) {
    if (captured.size() < kCaptureCap) {
      captured.push_back(r);
    }
  });
  const pathdump::TrajectoryCacheStats cache0 = bed.agent->cache_stats();
  const TibMemoryStats tib0 = bed.agent->tib().MemoryStats();
  const size_t first_span = spans.spans().size();
  std::vector<double> pps;
  const int64_t start = NowNs();
  while (!budget.Done(start, int64_t(pps.size()))) {
    const int64_t t0 = NowNs();
    feeder.Block(&spans);
    pps.push_back(double(kEpochPackets) * 1e9 / double(NowNs() - t0));
  }
  bed.agent->RemoveRecordHook(hook);
  out.attempted += pps.size();
  const pathdump::TrajectoryCacheStats cache1 = bed.agent->cache_stats();
  const TibMemoryStats tib1 = bed.agent->tib().MemoryStats();

  std::vector<double> on_packet_ns, sweep_us, tick_us;
  const std::vector<Span>& all = spans.spans();
  for (size_t i = first_span; i < all.size(); ++i) {
    const double ns = double(all[i].end_ns - all[i].start_ns);
    const std::string name = all[i].name;
    if (name == "edge_agent.on_packet") {
      on_packet_ns.push_back(ns);
    } else if (name == "edge_agent.sweep") {
      sweep_us.push_back(ns / 1e3);
    } else {
      tick_us.push_back(ns / 1e3);
    }
  }
  const double traced_pps = Median(pps, "traced ingest_pps");
  const double lookups = double((cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  const double inserted = double(tib1.inserted_records - tib0.inserted_records);
  MetricMap& m = out.layer;
  m["edge_agent.on_packet_ns"] = {Median(on_packet_ns, "edge_agent.on_packet_ns"), "ns"};
  m["edge_agent.sweep_p50_us"] = {Percentile(sweep_us, 0.5, "edge_agent.sweep_p50_us"), "us"};
  m["edge_agent.sweep_p99_us"] = {Percentile(sweep_us, 0.99, "edge_agent.sweep_p99_us"), "us"};
  m["edge_agent.epoch_tick_us"] = {Median(tick_us, "edge_agent.epoch_tick_us"), "us"};
  m["trajectory_memory.update_ns"] = {ReplayTrajectoryMemory(in), "ns"};
  m["cherrypick.cache_hit_ratio"] = {
      lookups > 0 ? double(cache1.hits - cache0.hits) / lookups : 0, "ratio"};
  m["cherrypick.cache_lookups"] = {lookups, "count"};
  m["cherrypick.decode_us"] = {ReplayDecode(bed, in, captured), "us"};
  m["tib.insert_ns"] = {
      ReplayTibInsert(in.dst, captured, size_t(inserted / double(std::max<size_t>(pps.size(), 1)))),
      "ns"};
  m["tib.records_per_sweep"] = {inserted / double(sweep_us.size()), "count"};
  m["tib.evicted_records"] = {double(tib1.evicted_records - tib0.evicted_records), "count"};
  m["tib.resident_mb"] = {ResidentMb(*bed.agent), "MB"};
  m["tracing_overhead.edge_ingest"] = {OverheadPct(untraced_pps, traced_pps, true), "%"};
}

class EdgeIngest : public Workload {
 public:
  const char* name() const override { return "edge_ingest"; }
  const char* inputs() const override { return "packets"; }

  void Generate(uint64_t seed, Fingerprint& fp) override { in_ = GenerateInputs(seed, fp); }

  // Builds the agent and subscriptions, then warms up until the TIB sits
  // at its ceiling and the fold state holds the whole flow pool.
  void SetUp(PhaseResult&) override {
    feeder_.reset();
    bed_.reset();
    bed_ = SetUpBed(in_.dst);
    feeder_ = std::make_unique<Feeder>(in_, *bed_->agent);
    for (int64_t p = 0; p < kWarmupPackets; p += kEpochPackets) {
      feeder_->Block(nullptr);
    }
  }

  // One sample per epoch interval: its packets per second.
  void Measure(double seconds, PhaseResult& out) override {
    if (pps_.empty()) {
      resident_start_ = ResidentMb(*bed_->agent);
      fold_start_ = FoldStateFlows(*bed_);
    }
    const int64_t start = NowNs();
    do {
      const int64_t t0 = NowNs();
      feeder_->Block(nullptr);
      pps_.push_back(double(kEpochPackets) * 1e9 / double(NowNs() - t0));
      ++out.attempted;
    } while (double(NowNs() - start) / 1e9 < seconds);
  }

  void Report(PhaseResult& out) override {
    while (int64_t(pps_.size()) < kMinBlocks) {
      Measure(0, out);
    }
    std::vector<double> q = pps_;
    std::sort(q.begin(), q.end());
    std::printf("edge_ingest: %zu epoch intervals, pps q1 %.0f median %.0f q3 %.0f\n", q.size(),
                q[q.size() / 4], q[q.size() / 2], q[3 * q.size() / 4]);
    out.e2e["ingest_pps"] = {Median(pps_, "ingest_pps"), "1/s"};
    out.layer["ingest_pps.first_half"] = {Median(FirstHalf(pps_), "ingest_pps.first_half"), "1/s"};
    out.layer["ingest_pps.second_half"] = {Median(SecondHalf(pps_), "ingest_pps.second_half"),
                                           "1/s"};
    out.layer["edge.tib_resident_mb.start"] = {resident_start_, "MB"};
    out.layer["edge.tib_resident_mb.end"] = {ResidentMb(*bed_->agent), "MB"};
    out.layer["edge.fold_state_flows.start"] = {fold_start_, "count"};
    out.layer["edge.fold_state_flows.end"] = {FoldStateFlows(*bed_), "count"};
  }

  void Trace(double seconds, SpanLog& spans, PhaseResult& out) override {
    TracedPass(*bed_, in_, *feeder_, Budget{seconds, kMinTracedBlocks}, spans,
               Median(pps_, "ingest_pps"), out);
  }

  // Everything fed is counted exactly once by the wildcard CountSummary,
  // eviction accounting is exact, and nothing failed to decode.
  void Finish(PhaseResult& out) override {
    bed_->agent->FlushAll(feeder_->now());
    bed_->agent->EpochTick();
    const auto counted = bed_->manager->Materialize(bed_->count_sub);
    const auto* c = std::get_if<CountSummary>(&counted);
    if (c == nullptr || c->bytes != feeder_->fed_bytes() || c->pkts != feeder_->fed_pkts()) {
      out.Fail(out.attempted, "edge_ingest: CountSummary does not match the packets fed");
    }
    const TibMemoryStats ms = bed_->agent->tib().MemoryStats();
    if (ms.retained_records != ms.inserted_records - ms.evicted_records) {
      out.Fail(out.attempted, "edge_ingest: retained != inserted - evicted");
    }
    if (bed_->agent->decode_failures() != 0) {
      out.Fail(out.attempted, "edge_ingest: trajectory decode failures");
    }
    feeder_.reset();
    bed_.reset();
  }

 private:
  EdgeInputs in_;
  std::unique_ptr<EdgeBed> bed_;
  std::unique_ptr<Feeder> feeder_;
  std::vector<double> pps_;
  double resident_start_ = 0;
  double fold_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeEdgeIngest() { return std::make_unique<EdgeIngest>(); }

}  // namespace perfbench
