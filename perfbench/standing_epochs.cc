// standing_epochs: two agents on the shared-memory transport, run as
// harness threads standing in for agent processes (same client, rings and
// frames as examples/agent_worker.cpp).  Loads the push path: TakeDelta
// and SealEpoch, wire encode, ring push, reactor drain and decode, fold
// and materialize.  Packet processing and poll fan-out stay idle.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "perfbench/workloads.h"
#include "src/cherrypick/codec.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/topology/routing.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"
#include "tests/test_util.h"

namespace perfbench {
namespace {

using pathdump::CherryPickCodec;
using pathdump::Controller;
using pathdump::CountSummary;
using pathdump::EdgeAgent;
using pathdump::EdgeAgentConfig;
using pathdump::Flow;
using pathdump::FlowList;
using pathdump::HostId;
using pathdump::LinkId;
using pathdump::LinkLabelMap;
using pathdump::QueryDelta;
using pathdump::QueryResult;
using pathdump::Rng;
using pathdump::Router;
using pathdump::StandingQuerySpec;
using pathdump::SubscriptionManager;
using pathdump::TibRecord;
using pathdump::TopKFlows;
using pathdump::Topology;
using pathdump::transport::ShmAgentClient;
using pathdump::transport::TransportHub;
using pathdump::transport::TransportOptions;
using pathdump::transport::TransportStats;

constexpr int kFatTreeK = 8;
constexpr size_t kAgents = 2;
constexpr uint32_t kPoolRecords = 20000;  // bounded per-agent record pool
constexpr uint32_t kBatch = 1000;         // records per agent before each epoch
constexpr int kScheduleCycles = 8;        // pool permutations drawn up front, cycled
constexpr size_t kTibCeiling = size_t(1) << 20;
constexpr size_t kShards = 4;
constexpr size_t kTopK = 100;
constexpr int kRefreshEvery = 10;
constexpr int kWarmupEpochs = 60;    // three passes over the pool
constexpr int64_t kMinEpochs = 1010;  // p99 needs 1000 samples
constexpr int64_t kAckTimeoutUs = 10'000'000;

std::string ShmPrefix() { return "/pathdump.perfbench." + std::to_string(getpid()) + "."; }

struct StandingInputs {
  std::vector<HostId> hosts;
  std::vector<std::vector<TibRecord>> pool;       // per agent
  std::vector<std::vector<uint16_t>> schedule;    // per agent: pool indices in insert order
};

StandingInputs GenerateInputs(uint64_t seed, Fingerprint& fp) {
  Topology topo = pathdump::BuildFatTree(kFatTreeK);
  Router router(&topo);
  Rng rng(seed, 0x57A7D);
  StandingInputs in;
  for (size_t a = 0; a < kAgents; ++a) {
    const HostId host = topo.hosts()[a];
    in.hosts.push_back(host);
    std::vector<TibRecord>& pool = in.pool.emplace_back();
    for (uint32_t e = 0; e < kPoolRecords; ++e) {
      pool.push_back(pathdump::testutil::MakeEcmpRecord(topo, router, a, host, int(e), rng));
      fp.Add(pool.back().flow.src_ip);
      fp.Add(pool.back().bytes);
      for (int i = 0; i < pool.back().path.len; ++i) {
        fp.Add(pool.back().path.sw[size_t(i)]);
      }
    }
    // Each cycle inserts every pool record once, in a fresh random order,
    // so flows recur and the controller's fold state is flat after one.
    std::vector<uint16_t>& order = in.schedule.emplace_back();
    for (int c = 0; c < kScheduleCycles; ++c) {
      std::vector<uint16_t> perm(kPoolRecords);
      for (uint32_t i = 0; i < kPoolRecords; ++i) {
        perm[i] = uint16_t(i);
      }
      for (uint32_t i = kPoolRecords - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.UniformInt(i + 1)]);
      }
      order.insert(order.end(), perm.begin(), perm.end());
    }
    for (uint16_t i : order) {
      fp.Add(i);
    }
    fp.Count(pool.size() + order.size());
  }
  return in;
}

// What an agent thread measured during one traced epoch.
struct AgentEpoch {
  uint64_t token = 0;
  int64_t wake_ns = 0;  // entered EpochTick
  int64_t end_ns = 0;   // EpochTick returned
  std::vector<std::pair<int64_t, int64_t>> sinks;  // MakeDeltaSink() calls
};

// Thread standing in for an agent process: the ShmAgentThread pattern of
// bench/bench_transport.cc, with the delta sink and EpochTick stamped from
// the harness's own code when tracing is on.
class AgentThread {
 public:
  AgentThread(const std::string& shm_name, HostId host, const Topology* topo,
              const CherryPickCodec* codec)
      : host_(host) {
    client_ = ShmAgentClient::Open(shm_name);
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = kShards;
    cfg.tib_options.max_memory_bytes = kTibCeiling;
    agent_ = std::make_unique<EdgeAgent>(host, topo, codec, cfg);
    if (client_ != nullptr) {
      thread_ = std::thread([this] { Run(); });
    }
  }
  ~AgentThread() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  AgentThread(const AgentThread&) = delete;
  AgentThread& operator=(const AgentThread&) = delete;

  bool connected() const { return client_ != nullptr; }
  // Safe from the harness thread between epochs (the Tib locks itself).
  EdgeAgent& agent() { return *agent_; }
  void SetTraced(bool on) { traced_.store(on, std::memory_order_release); }
  std::vector<AgentEpoch> TakeEpochs() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(epochs_, {});
  }

 private:
  void Run() {
    client_->SendHello(host_);
    while (!stop_.load(std::memory_order_acquire)) {
      pathdump::transport::DecodedFrame cmd;
      if (!client_->PollCommand(&cmd, 100'000)) {
        continue;
      }
      switch (cmd.type) {
        case pathdump::transport::FrameType::kSubscribe:
          agent_->RegisterStandingQuery(cmd.subscription_id, cmd.spec, WrappedSink());
          break;
        case pathdump::transport::FrameType::kEpochTick:
          Tick(cmd.token);
          client_->SendAck(host_, cmd.token);
          break;
        case pathdump::transport::FrameType::kShutdown:
          client_->SendBye(host_);
          return;
        default:
          break;
      }
    }
  }

  void Tick(uint64_t token) {
    if (!traced_.load(std::memory_order_acquire)) {
      agent_->EpochTick();
      return;
    }
    current_ = AgentEpoch{token, NowNs(), 0, {}};
    agent_->EpochTick();
    current_.end_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    epochs_.push_back(std::move(current_));
  }

  EdgeAgent::DeltaSink WrappedSink() {
    return [this, inner = client_->MakeDeltaSink()](QueryDelta&& delta) {
      if (!traced_.load(std::memory_order_acquire)) {
        inner(std::move(delta));
        return;
      }
      const int64_t t0 = NowNs();
      inner(std::move(delta));
      current_.sinks.emplace_back(t0, NowNs());
    };
  }

  const HostId host_;
  std::unique_ptr<ShmAgentClient> client_;
  std::unique_ptr<EdgeAgent> agent_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> traced_{false};
  AgentEpoch current_;  // agent thread only
  std::mutex mu_;
  std::vector<AgentEpoch> epochs_;  // guarded by mu_
  std::thread thread_;  // last: joins before the state above dies
};

struct StandingBed {
  Topology topo;
  std::unique_ptr<LinkLabelMap> labels;
  std::unique_ptr<CherryPickCodec> codec;
  Controller controller;
  std::unique_ptr<SubscriptionManager> manager;
  std::unique_ptr<TransportHub> hub;
  std::vector<std::unique_ptr<AgentThread>> agents;
  LinkId link;  // agg -> ToR down-link above both agents
  uint64_t topk_sub = 0, list_sub = 0, count_sub = 0;

  StandingBed() = default;
  StandingBed(const StandingBed&) = delete;
  StandingBed& operator=(const StandingBed&) = delete;
  ~StandingBed() {
    if (hub != nullptr) {
      hub->SendShutdown();
    }
    agents.clear();
    hub.reset();
    manager.reset();
  }
};

// Builds the bed; returns null (after tearing down) if the agents never
// connect.  Ends with one empty epoch, so every Subscribe frame has been
// applied before the first insert.
std::unique_ptr<StandingBed> SetUpBed(const StandingInputs& in, const std::string& prefix) {
  auto bed = std::make_unique<StandingBed>();
  bed->topo = pathdump::BuildFatTree(kFatTreeK);
  bed->labels = std::make_unique<LinkLabelMap>(&bed->topo);
  bed->codec = std::make_unique<CherryPickCodec>(&bed->topo, bed->labels.get());
  bed->manager = std::make_unique<SubscriptionManager>(&bed->controller);
  TransportOptions options;
  options.backend = TransportOptions::Backend::kSharedMemory;
  options.shm_prefix = prefix;
  bed->hub = std::make_unique<TransportHub>(&bed->controller, bed->manager.get(), options);
  for (HostId host : in.hosts) {
    bed->agents.push_back(std::make_unique<AgentThread>(bed->hub->AddShmPeer(host), host,
                                                        &bed->topo, bed->codec.get()));
    if (!bed->agents.back()->connected()) {
      return nullptr;
    }
  }
  if (!bed->hub->WaitForHellos(kAckTimeoutUs)) {
    return nullptr;
  }
  const pathdump::FatTreeMeta& meta = *bed->topo.fat_tree();
  bed->link = LinkId{meta.agg[0][0], meta.tor[0][0]};
  StandingQuerySpec topk;
  topk.kind = StandingQuerySpec::Kind::kTopK;
  topk.k = kTopK;
  StandingQuerySpec list;
  list.kind = StandingQuerySpec::Kind::kFlowList;
  list.link = bed->link;
  StandingQuerySpec count;
  count.kind = StandingQuerySpec::Kind::kCountSummary;
  count.link = bed->link;
  bed->topk_sub = bed->hub->Subscribe(in.hosts, topk);
  bed->list_sub = bed->hub->Subscribe(in.hosts, list);
  bed->count_sub = bed->hub->Subscribe(in.hosts, count);
  if (!bed->hub->WaitForAcks(bed->hub->SendEpochTick(), kAckTimeoutUs)) {
    return nullptr;
  }
  return bed;
}

// The harness's own account of what it inserted, from which it computes
// the expected result of every refresh.
struct Reference {
  struct Host {
    pathdump::FlowBytesMap bytes;
    std::vector<bool> listed;  // pool index already in `flows`
    std::vector<Flow> flows;   // first appearance order, on the link
    CountSummary count;
  };
  std::vector<Host> hosts;

  QueryResult TopK() const {
    QueryResult acc;
    for (const Host& h : hosts) {
      TopKFlows t;
      t.k = kTopK;
      for (const auto& [flow, bytes] : h.bytes) {
        t.items.emplace_back(bytes, flow);
      }
      t.Finalize();
      pathdump::MergeQueryResult(acc, t);
    }
    return acc;
  }
  QueryResult Flows() const {
    QueryResult acc;
    for (const Host& h : hosts) {
      pathdump::MergeQueryResult(acc, FlowList{h.flows});
    }
    return acc;
  }
  QueryResult Count() const {
    QueryResult acc;
    for (const Host& h : hosts) {
      pathdump::MergeQueryResult(acc, h.count);
    }
    return acc;
  }
};

// Drives epochs against one bed: untimed inserts, then the timed epoch,
// and every kRefreshEvery-th epoch a timed refresh checked against the
// reference.
class EpochLoop {
 public:
  EpochLoop(const StandingInputs& in, StandingBed& bed) : in_(in), bed_(bed) {
    ref_.hosts.resize(in.hosts.size());
    for (auto& h : ref_.hosts) {
      h.listed.assign(kPoolRecords, false);
    }
  }

  struct Sample {
    double epoch_ms = 0;
    bool refreshed = false;
    double refresh_ms = 0;
    double insert_ns = 0;  // per record, this epoch's batch
    int64_t e0 = 0, t1 = 0, t2 = 0, t3 = 0;      // epoch stamps
    int64_t r0 = 0, r1 = 0, r2 = 0, r3 = 0;      // refresh stamps
    uint64_t token = 0;
  };

  Sample Epoch(PhaseResult& out) {
    Sample s;
    s.insert_ns = InsertBatch();
    s.e0 = NowNs();
    s.token = bed_.hub->SendEpochTick();
    s.t1 = NowNs();
    const bool acked = bed_.hub->WaitForAcks(s.token, kAckTimeoutUs);
    s.t2 = NowNs();
    bed_.hub->Flush();
    s.t3 = NowNs();
    s.epoch_ms = double(s.t3 - s.e0) / 1e6;
    ++out.attempted;
    if (!acked) {
      out.Fail(1, "standing_epochs: epoch ack timed out");
    }
    if (++epochs_ % kRefreshEvery != 0) {
      return s;
    }
    s.refreshed = true;
    s.r0 = NowNs();
    const QueryResult topk = bed_.manager->Materialize(bed_.topk_sub);
    s.r1 = NowNs();
    const QueryResult flows = bed_.manager->Materialize(bed_.list_sub);
    s.r2 = NowNs();
    const QueryResult count = bed_.manager->Materialize(bed_.count_sub);
    s.r3 = NowNs();
    s.refresh_ms = double(s.r3 - s.r0) / 1e6;
    ++out.attempted;
    if (!(topk == ref_.TopK()) || !(flows == ref_.Flows()) || !(count == ref_.Count())) {
      out.Fail(1, "standing_epochs: refresh differs from the reference");
    }
    return s;
  }

  double FoldStateFlows() const {
    const QueryResult r = bed_.manager->Materialize(bed_.list_sub);
    const auto* list = std::get_if<FlowList>(&r);
    return list == nullptr ? 0 : double(list->flows.size());
  }

 private:
  // Inserts one batch per agent; returns ns per insert (reference upkeep
  // excluded).
  double InsertBatch() {
    int64_t insert_ns = 0;
    for (size_t a = 0; a < in_.hosts.size(); ++a) {
      const std::vector<uint16_t>& order = in_.schedule[a];
      const size_t base = cursor_;
      EdgeAgent& agent = bed_.agents[a]->agent();
      const int64_t t0 = NowNs();
      for (uint32_t i = 0; i < kBatch; ++i) {
        agent.tib().Insert(in_.pool[a][order[(base + i) % order.size()]]);
      }
      insert_ns += NowNs() - t0;
      Reference::Host& h = ref_.hosts[a];
      for (uint32_t i = 0; i < kBatch; ++i) {
        const uint16_t idx = order[(base + i) % order.size()];
        const TibRecord& rec = in_.pool[a][idx];
        h.bytes[rec.flow] += rec.bytes;
        if (rec.path.MatchesLinkQuery(bed_.link)) {
          h.count.bytes += rec.bytes;
          h.count.pkts += rec.pkts;
          if (!h.listed[idx]) {
            h.listed[idx] = true;
            h.flows.push_back(Flow{rec.flow, rec.path.ToPath()});
          }
        }
      }
    }
    cursor_ = (cursor_ + kBatch) % in_.schedule[0].size();
    return double(insert_ns) / double(kBatch * in_.hosts.size());
  }

  const StandingInputs& in_;
  StandingBed& bed_;
  Reference ref_;
  size_t cursor_ = 0;
  int64_t epochs_ = 0;
};

double ResidentMb(StandingBed& bed) {
  size_t bytes = 0;
  for (auto& a : bed.agents) {
    bytes += a->agent().tib().bytes_resident();
  }
  return double(bytes) / (1024.0 * 1024.0);
}

void TracedPass(StandingBed& bed, EpochLoop& loop, const Budget& budget, SpanLog& spans,
                double untraced_p50, PhaseResult& out) {
  for (auto& a : bed.agents) {
    a->SetTraced(true);
  }
  const TransportStats ts0 = bed.hub->stats();
  const pathdump::SubscriptionManagerStats ms0 = bed.manager->stats();
  std::vector<double> epoch_ms, wake_us, tick_us, send_us, ack_us, flush_us, insert_ns;
  std::vector<double> mat_ms[3];
  const char* const mat_name[3] = {"subscription.materialize.topk",
                                   "subscription.materialize.flowlist",
                                   "subscription.materialize.count"};
  uint64_t op = 0;
  const int64_t start = NowNs();
  while (!budget.Done(start, int64_t(epoch_ms.size()))) {
    const EpochLoop::Sample s = loop.Epoch(out);
    ++op;
    epoch_ms.push_back(s.epoch_ms);
    insert_ns.push_back(s.insert_ns);
    ack_us.push_back(double(s.t2 - s.t1) / 1e3);
    flush_us.push_back(double(s.t3 - s.t2) / 1e3);
    const int64_t root = spans.Add("epoch", s.e0, s.t3, -1, op);
    spans.Add("transport.send_epoch_tick", s.e0, s.t1, root, op);
    const int64_t ack = spans.Add("transport.wait_for_acks", s.t1, s.t2, root, op);
    spans.Add("transport.flush", s.t2, s.t3, root, op);
    for (auto& a : bed.agents) {
      for (const AgentEpoch& e : a->TakeEpochs()) {
        if (e.token != s.token) {
          continue;  // the set-up barrier epoch
        }
        // Measured from the SendEpochTick call: the woken agent often
        // enters EpochTick before that call returns.
        wake_us.push_back(double(e.wake_ns - s.e0) / 1e3);
        spans.Add("transport.cmd_wake", s.e0, e.wake_ns, ack, op);
        const int64_t tick = spans.Add("edge.epoch_tick", e.wake_ns, e.end_ns, ack, op);
        int64_t sink_ns = 0;
        for (const auto& [a0, a1] : e.sinks) {
          spans.Add("transport.delta_sink", a0, a1, tick, op);
          send_us.push_back(double(a1 - a0) / 1e3);
          sink_ns += a1 - a0;
        }
        tick_us.push_back(double(e.end_ns - e.wake_ns - sink_ns) / 1e3);
      }
    }
    if (s.refreshed) {
      ++op;
      const int64_t refresh = spans.Add("refresh", s.r0, s.r3, -1, op);
      const int64_t stamps[4] = {s.r0, s.r1, s.r2, s.r3};
      for (int i = 0; i < 3; ++i) {
        spans.Add(mat_name[i], stamps[i], stamps[i + 1], refresh, op);
        mat_ms[i].push_back(double(stamps[i + 1] - stamps[i]) / 1e6);
      }
    }
  }
  for (auto& a : bed.agents) {
    a->SetTraced(false);
  }
  const TransportStats ts1 = bed.hub->stats();
  const pathdump::SubscriptionManagerStats ms1 = bed.manager->stats();
  const double epochs = double(epoch_ms.size());
  const std::vector<Span>& traced = spans.spans();
  const std::vector<int64_t> self = SelfTimes(traced);
  MetricMap& m = out.layer;
  m["transport.cmd_wake_us"] = {Median(wake_us, "transport.cmd_wake_us"), "us"};
  m["standing.tick_us"] = {Median(tick_us, "standing.tick_us"), "us"};
  m["transport.send_us"] = {Median(send_us, "transport.send_us"), "us"};
  m["transport.ack_wait_us"] = {Median(ack_us, "transport.ack_wait_us"), "us"};
  m["transport.ack_pickup_us"] = {MedianSelfUs(traced, self, "transport.wait_for_acks"), "us"};
  m["subscription.flush_us"] = {Median(flush_us, "subscription.flush_us"), "us"};
  m["materialize_ms.topk"] = {Median(mat_ms[0], "materialize_ms.topk"), "ms"};
  m["materialize_ms.flowlist"] = {Median(mat_ms[1], "materialize_ms.flowlist"), "ms"};
  m["materialize_ms.count"] = {Median(mat_ms[2], "materialize_ms.count"), "ms"};
  m["transport.frames_per_epoch"] = {double(ts1.frames - ts0.frames) / epochs, "count"};
  m["transport.bytes_per_epoch"] = {double(ts1.bytes - ts0.bytes) / epochs, "B"};
  m["transport.blocked_pushes"] = {double(ts1.blocked_pushes - ts0.blocked_pushes), "count"};
  m["subscription.deltas_folded_per_epoch"] = {
      double(ms1.deltas_folded - ms0.deltas_folded) / epochs, "count"};
  m["subscription.flow_updates_per_epoch"] = {
      double(ms1.flow_updates - ms0.flow_updates) / epochs, "count"};
  m["standing.tib_insert_ns"] = {Median(insert_ns, "standing.tib_insert_ns"), "ns"};
  m["unattributed_share.epoch"] = {UnattributedShare(traced, self, "epoch"), "ratio"};
  m["unattributed_share.refresh"] = {UnattributedShare(traced, self, "refresh"), "ratio"};
  m["tracing_overhead.standing_epochs"] = {
      OverheadPct(untraced_p50, Median(epoch_ms, "traced epoch_p50_ms"), false), "%"};
}

class StandingEpochs : public Workload {
 public:
  StandingEpochs() : prefix_(ShmPrefix()) {}
  // Tears the hub and agent threads down, then sweeps the segment prefix
  // so no exit path leaves a segment behind.
  ~StandingEpochs() override {
    loop_.reset();
    bed_.reset();
    pathdump::transport::CleanupShmByPrefix(prefix_);
  }

  const char* name() const override { return "standing_epochs"; }
  const char* inputs() const override { return "records"; }

  void Generate(uint64_t seed, Fingerprint& fp) override { in_ = GenerateInputs(seed, fp); }

  // Hub, agent threads, Hellos and subscriptions, then the warm-up epochs
  // that fill the TIB ceilings and the fold state.
  void SetUp(PhaseResult& out) override {
    loop_.reset();
    bed_.reset();
    bed_ = SetUpBed(in_, prefix_);
    if (bed_ == nullptr) {
      throw std::runtime_error("standing_epochs: shm agents never connected");
    }
    loop_ = std::make_unique<EpochLoop>(in_, *bed_);
    PhaseResult warmup;  // checked, not counted
    for (int e = 0; e < kWarmupEpochs; ++e) {
      loop_->Epoch(warmup);
    }
    if (warmup.failed > 0) {
      out.Fail(0, warmup.errors.front());
    }
  }

  void Measure(double seconds, PhaseResult& out) override {
    if (epoch_ms_.empty()) {
      resident_start_ = ResidentMb(*bed_);
      fold_start_ = loop_->FoldStateFlows();
    }
    const int64_t start = NowNs();
    do {
      const EpochLoop::Sample s = loop_->Epoch(out);
      epoch_ms_.push_back(s.epoch_ms);
      if (s.refreshed) {
        refresh_ms_.push_back(s.refresh_ms);
      }
    } while (double(NowNs() - start) / 1e9 < seconds);
  }

  void Report(PhaseResult& out) override {
    while (int64_t(epoch_ms_.size()) < kMinEpochs) {
      Measure(0, out);
    }
    std::vector<double> q = epoch_ms_;
    std::sort(q.begin(), q.end());
    const size_t n = q.size();
    std::printf("standing_epochs: %zu epochs, ms q1 %.3f median %.3f q3 %.3f p99 %.3f\n", n,
                q[n / 4], q[n / 2], q[3 * n / 4], q[n * 99 / 100]);
    out.e2e["epoch_p50_ms"] = {Median(epoch_ms_, "epoch_p50_ms"), "ms"};
    out.e2e["epoch_p99_ms"] = {Percentile(epoch_ms_, 0.99, "epoch_p99_ms"), "ms"};
    out.e2e["materialize_p50_ms"] = {Median(refresh_ms_, "materialize_p50_ms"), "ms"};
    out.e2e["materialize_p90_ms"] = {Percentile(refresh_ms_, 0.9, "materialize_p90_ms"), "ms"};
    out.layer["epoch_p50_ms.first_half"] = {Median(FirstHalf(epoch_ms_), "epoch first half"),
                                            "ms"};
    out.layer["epoch_p50_ms.second_half"] = {Median(SecondHalf(epoch_ms_), "epoch second half"),
                                             "ms"};
    out.layer["standing.tib_resident_mb.start"] = {resident_start_, "MB"};
    out.layer["standing.tib_resident_mb.end"] = {ResidentMb(*bed_), "MB"};
    out.layer["standing.fold_state_flows.start"] = {fold_start_, "count"};
    out.layer["standing.fold_state_flows.end"] = {loop_->FoldStateFlows(), "count"};
  }

  void Trace(double seconds, SpanLog& spans, PhaseResult& out) override {
    TracedPass(*bed_, *loop_, Budget{seconds, kMinEpochs}, spans,
               Median(epoch_ms_, "epoch_p50_ms"), out);
  }

  // Zero decode errors and sequence gaps over the run; the teardown must
  // unlink every segment, so the sweep after it must find none.
  void Finish(PhaseResult& out) override {
    const TransportStats ts = bed_->hub->stats();
    if (ts.decode_errors != 0 || ts.seq_gaps != 0) {
      out.Fail(out.attempted, "standing_epochs: transport decode errors or sequence gaps");
    }
    loop_.reset();
    bed_.reset();
    if (pathdump::transport::CleanupShmByPrefix(prefix_) != 0) {
      out.Fail(out.attempted, "standing_epochs: shared-memory segments left behind");
    }
  }

 private:
  const std::string prefix_;
  StandingInputs in_;
  std::unique_ptr<StandingBed> bed_;
  std::unique_ptr<EpochLoop> loop_;
  std::vector<double> epoch_ms_, refresh_ms_;
  double resident_start_ = 0;
  double fold_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStandingEpochs() { return std::make_unique<StandingEpochs>(); }

}  // namespace perfbench
