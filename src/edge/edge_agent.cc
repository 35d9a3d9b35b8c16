#include "src/edge/edge_agent.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

const char* AlarmReasonName(AlarmReason reason) {
  switch (reason) {
    case AlarmReason::kPoorPerf:
      return "POOR_PERF";
    case AlarmReason::kPathConformance:
      return "PC_FAIL";
    case AlarmReason::kInfeasiblePath:
      return "INFEASIBLE_PATH";
    case AlarmReason::kNoProgress:
      return "NO_PROGRESS";
  }
  return "?";
}

EdgeAgent::EdgeAgent(HostId host, const Topology* topo, const CherryPickCodec* codec,
                     EdgeAgentConfig config)
    : host_(host),
      topo_(topo),
      codec_(codec),
      config_(config),
      memory_(config.idle_timeout),
      cache_(config.trajectory_cache_capacity),
      tib_(config.tib_options) {
  if (config_.packet_log_capacity > 0) {
    packet_log_ = std::make_unique<PacketLog>(config_.packet_log_capacity);
  }
}

std::optional<Path> EdgeAgent::DecodeHeader(IpAddr src_ip, LinkLabel dscp,
                                            const std::vector<LinkLabel>& tags) {
  std::optional<Path> path = cache_.Lookup(src_ip, dscp, tags);
  if (path) {
    return path;
  }
  HostId src_host = topo_->HostOfIp(src_ip);
  if (src_host != kInvalidNode) {
    path = codec_->Decode(src_host, host_, dscp, tags);
  }
  if (path) {
    cache_.Insert(src_ip, dscp, tags, *path);
  }
  return path;
}

void EdgeAgent::OnPacket(const Packet& pkt, SimTime now) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // tcpretrans-equivalent instrumentation.
    if (pkt.is_retx) {
      retx_.OnRetransmission(pkt.flow, now);
    } else {
      retx_.OnProgress(pkt.flow);
    }
    // The trajectory header is recorded, then conceptually stripped before
    // the packet continues to the upper stack (§3.2).
    memory_.OnPacket(pkt, now);
    // Optional per-packet log (the paper's future-work extension).
    if (packet_log_ != nullptr) {
      PacketLogEntry e;
      e.flow = pkt.flow;
      e.at = now;
      e.bytes = pkt.size_bytes;
      e.seq = pkt.seq;
      e.raw_tag_count = uint8_t(pkt.tags.size());
      e.retx = pkt.is_retx;
      e.fin = pkt.fin;
      if (auto path = DecodeHeader(pkt.flow.src_ip, pkt.dscp, pkt.tags)) {
        e.path = CompactPath::FromPath(*path);
      }
      packet_log_->Append(e);
    }
  }
  if (now >= next_sweep_.load(std::memory_order_relaxed)) {
    Tick(now);
  }
}

void EdgeAgent::Tick(SimTime now) {
  // Evictions are collected under the write lock but constructed (and any
  // alarms raised) outside it, so a blocking alarm sink can never wedge
  // queries against this agent.
  std::vector<TrajectoryMemory::Record> evicted;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (now >= next_sweep_.load(std::memory_order_relaxed)) {
      memory_.Sweep(now,
                    [&evicted](const TrajectoryMemory::Record& rec) { evicted.push_back(rec); });
      next_sweep_.store(now + config_.sweep_period, std::memory_order_relaxed);
    }
  }
  for (const TrajectoryMemory::Record& rec : evicted) {
    ConstructAndStore(rec, now);
  }
  // Due periodic bodies are copied out under the registration lock and run
  // with no lock held — they may query this agent or (un)install queries.
  std::vector<std::pair<int, PeriodicQuery>> due;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (auto& [id, q] : periodic_) {
      if (q.period <= 0 || now >= q.next_due) {
        due.emplace_back(id, q.body);
      }
    }
  }
  for (auto& [id, body] : due) {
    body(*this, now);
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = periodic_.find(id);
    if (it != periodic_.end()) {
      it->second.next_due = now + std::max<SimTime>(it->second.period, 1);
    }
  }
}

void EdgeAgent::FlushAll(SimTime now) {
  std::vector<TrajectoryMemory::Record> evicted;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    memory_.Flush(
        [&evicted](const TrajectoryMemory::Record& rec) { evicted.push_back(rec); });
  }
  for (const TrajectoryMemory::Record& rec : evicted) {
    ConstructAndStore(rec, now);
  }
}

void EdgeAgent::ConstructAndStore(const TrajectoryMemory::Record& rec, SimTime now) {
  // Trajectory cache first; decode against the static topology on a miss.
  std::optional<Path> path;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    path = DecodeHeader(rec.key.flow.src_ip, rec.key.dscp, rec.key.TagVector());
  }
  if (!path) {
    // The trajectory contradicts the ground-truth topology — e.g. a switch
    // inserted a bogus ID (§2.4).  Raise an alarm; do not pollute the TIB.
    ++decode_failures_;
    RaiseAlarm(rec.key.flow, AlarmReason::kInfeasiblePath, {}, now);
    return;
  }
  TibRecord out;
  out.flow = rec.key.flow;
  out.path = CompactPath::FromPath(*path);
  out.stime = rec.stime;
  out.etime = rec.etime;
  out.bytes = rec.bytes;
  out.pkts = rec.pkts;
  IngestRecord(out, now);
}

void EdgeAgent::IngestRecord(const TibRecord& rec, SimTime now) {
  // The TIB locks its owning shard internally; no agent lock is involved.
  tib_.Insert(rec);
  // Hooks run with no lock held: they may query this agent, raise alarms,
  // or (un)register hooks (the snapshot keeps this pass stable).
  std::shared_ptr<const std::vector<RecordHook>> hooks;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    hooks = hook_list_;
  }
  if (hooks != nullptr) {
    for (const RecordHook& hook : *hooks) {
      hook(*this, rec, now);
    }
  }
}

std::vector<Flow> EdgeAgent::GetFlows(const LinkId& link, const TimeRange& range) const {
  return std::get<FlowList>(
             Poll({.kind = StandingQuerySpec::Kind::kFlowList, .link = link, .range = range}))
      .flows;
}

std::vector<Path> EdgeAgent::GetPaths(const FiveTuple& flow, const LinkId& link,
                                      const TimeRange& range) const {
  QueryResult list = Poll(
      {.kind = StandingQuerySpec::Kind::kFlowList, .link = link, .range = range, .flow = flow});
  std::vector<Path> out;
  for (Flow& f : std::get<FlowList>(list).flows) {
    out.push_back(std::move(f.path));
  }
  return out;
}

std::vector<Path> EdgeAgent::GetPathsLive(const FiveTuple& flow, const LinkId& link,
                                          const TimeRange& range) {
  // Exclusive: live decoding inserts into the trajectory cache.  Lock
  // order: agent lock, then the flow's TIB shard lock inside GetPaths.
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<Path> out = GetPaths(flow, link, range);
  for (const TrajectoryMemory::Record& rec : memory_.Snapshot()) {
    if (!(rec.key.flow == flow) || !range.Overlaps(rec.stime, rec.etime)) {
      continue;
    }
    std::optional<Path> path =
        DecodeHeader(rec.key.flow.src_ip, rec.key.dscp, rec.key.TagVector());
    if (!path) {
      continue;
    }
    // Exact dedup against the few paths of this one flow found so far.
    const CompactPath cp = CompactPath::FromPath(*path);
    auto same = [&cp](const Path& p) { return CompactPath::FromPath(p) == cp; };
    if (cp.MatchesLinkQuery(link) && std::none_of(out.begin(), out.end(), same)) {
      out.push_back(std::move(*path));
    }
  }
  return out;
}

// The flow-keyed filter of getCount and getDuration: every path of the
// flow, or exactly flow.path when it is non-empty.
static StandingQuerySpec FlowSpec(const Flow& flow, const TimeRange& range) {
  StandingQuerySpec spec{
      .kind = StandingQuerySpec::Kind::kCountSummary, .range = range, .flow = flow.id};
  if (!flow.path.empty()) {
    spec.path = CompactPath::FromPath(flow.path);
  }
  return spec;
}

CountSummary EdgeAgent::GetCount(const Flow& flow, const TimeRange& range) const {
  return std::get<CountSummary>(Poll(FlowSpec(flow, range)));
}

SimTime EdgeAgent::GetDuration(const Flow& flow, const TimeRange& range) const {
  SimTime lo = kSimTimeMax;
  SimTime hi = -1;
  // As in a flow-keyed poll, the walk keys by flow and the filter leaves
  // the key out.
  StandingQuerySpec filter = FlowSpec(flow, range);
  filter.flow.reset();
  tib_.ForEachRecordOfFlow(flow.id, range, [&](size_t, const TibRecord& rec) {
    if (filter.Matches(rec)) {
      lo = std::min(lo, rec.stime);
      hi = std::max(hi, rec.etime);
    }
  });
  return hi < lo ? 0 : hi - lo;
}

std::vector<FiveTuple> EdgeAgent::GetPoorTcpFlows(int threshold) const {
  if (threshold <= 0) {
    threshold = config_.poor_retx_threshold;
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  return retx_.PoorTcpFlows(threshold);
}

void EdgeAgent::RecordRetransmission(const FiveTuple& flow, SimTime now) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  retx_.OnRetransmission(flow, now);
}

uint64_t EdgeAgent::TotalRetx(const FiveTuple& flow) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return retx_.TotalRetx(flow);
}

void EdgeAgent::ResetRetxStreak(const FiveTuple& flow) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  retx_.OnProgress(flow);
}

void EdgeAgent::RaiseAlarm(const FiveTuple& flow, AlarmReason reason, std::vector<Path> paths,
                           SimTime now) {
  if (!alarm_handler_) {
    Logf(LogLevel::kDebug, "unhandled alarm %s from host %u", AlarmReasonName(reason), host_);
    return;
  }
  Alarm a;
  a.host = host_;
  a.flow = flow;
  a.reason = reason;
  a.paths = std::move(paths);
  a.at = now;
  alarm_handler_(a);
}

FlowSizeHistogram EdgeAgent::FlowSizeDistribution(const LinkId& link, const TimeRange& range,
                                                  int64_t bin_width) const {
  return std::get<FlowSizeHistogram>(Poll({.kind = StandingQuerySpec::Kind::kFlowSizeHistogram,
                                           .bin_width = bin_width,
                                           .link = link,
                                           .range = range}));
}

TopKFlows EdgeAgent::TopK(size_t k, const TimeRange& range) const {
  return std::get<TopKFlows>(
      Poll({.kind = StandingQuerySpec::Kind::kTopK, .k = k, .range = range}));
}

CountSummary EdgeAgent::CountOnLink(const LinkId& link, const TimeRange& range) const {
  return std::get<CountSummary>(
      Poll({.kind = StandingQuerySpec::Kind::kCountSummary, .link = link, .range = range}));
}

std::vector<TrajectoryMemory::Record> EdgeAgent::MemorySnapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return memory_.Snapshot();
}

TrajectoryCacheStats EdgeAgent::cache_stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return TrajectoryCacheStats{cache_.size(), cache_.capacity(), cache_.hits(), cache_.misses()};
}

int EdgeAgent::AddRecordHook(RecordHook hook) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  int id = next_hook_id_++;
  hooks_[id] = std::move(hook);
  RebuildHookList();
  return id;
}

void EdgeAgent::RemoveRecordHook(int id) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  hooks_.erase(id);
  RebuildHookList();
}

void EdgeAgent::RebuildHookList() {
  auto list = std::make_shared<std::vector<RecordHook>>();
  list->reserve(hooks_.size());
  for (const auto& [id, hook] : hooks_) {
    list->push_back(hook);
  }
  hook_list_ = std::move(list);
}

int EdgeAgent::InstallQuery(SimTime period, PeriodicQuery body) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  int id = next_query_id_++;
  periodic_[id] = Installed{period, 0, std::move(body)};
  return id;
}

int EdgeAgent::InstallPoorTcpMonitor(SimTime period, int threshold) {
  return InstallQuery(period, [threshold](EdgeAgent& agent, SimTime now) {
    for (const FiveTuple& flow : agent.GetPoorTcpFlows(threshold)) {
      agent.RaiseAlarm(flow, AlarmReason::kPoorPerf, {}, now);
      // One alarm per episode: progress must restart the streak.
      agent.ResetRetxStreak(flow);
    }
  });
}

int EdgeAgent::RegisterStandingQuery(uint64_t subscription_id, const StandingQuerySpec& spec,
                                     DeltaSink sink) {
  auto reg = std::make_shared<StandingRegistration>();
  reg->accumulator =
      std::make_unique<StandingQueryAccumulator>(subscription_id, host_, spec, &tib_);
  reg->sink = std::move(sink);
  std::lock_guard<std::mutex> lock(reg_mu_);
  int id = next_standing_id_++;
  standing_[id] = std::move(reg);
  return id;
}

// One gated tick: skips registrations already detached (their sink's
// target may be mid-destruction), and holds the gate across the sink
// call so unregister can fence the delivery out.
bool EdgeAgent::TickRegistration(StandingRegistration& reg) {
  static Counter* ticks = MetricsRegistry::Global().GetCounter("epoch.ticks");
  ticks->Add();
  TraceScope span("epoch.tick", TraceKeys{reg.accumulator->subscription_id(),
                                          uint32_t(reg.accumulator->host()), 0});
  std::lock_guard<std::mutex> gate(reg.gate);
  if (reg.detached) {
    return false;
  }
  if (auto delta = reg.accumulator->TakeDelta()) {
    span.set_keys(TraceKeys{delta->subscription_id, uint32_t(delta->host), delta->epoch});
    reg.sink(std::move(*delta));
  }
  return true;
}

void EdgeAgent::UnregisterStandingQuery(int id) {
  std::shared_ptr<StandingRegistration> reg;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = standing_.find(id);
    if (it == standing_.end()) {
      return;
    }
    reg = std::move(it->second);
    standing_.erase(it);
  }
  // Fence out epoch ticks: any tick already inside the gate finishes
  // its delivery first (we block here), and any tick that snapshotted
  // the registration but has not reached the gate yet will see
  // `detached` and do nothing.  After this returns the sink is never
  // invoked again.
  {
    std::lock_guard<std::mutex> gate(reg->gate);
    reg->detached = true;
  }
  // Dropped outside reg_mu_: the accumulator's destructor takes every
  // TIB shard lock to detach its insert hook.  A concurrent EpochTick
  // holding a snapshot reference delays destruction, not this return.
}

void EdgeAgent::EpochTick() {
  std::vector<std::shared_ptr<StandingRegistration>> regs;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    regs.reserve(standing_.size());
    for (const auto& [id, reg] : standing_) {
      regs.push_back(reg);
    }
  }
  for (const auto& reg : regs) {
    TickRegistration(*reg);
  }
  // Seal the TIB's open epoch segments AFTER ticking: every record of the
  // closing epoch has already been folded into each accumulator's partial
  // (insert hooks run at insert time) and shipped by the TakeDelta above,
  // so the segment can later retire under a memory ceiling without
  // standing results losing its contribution.  Sealing happens even with
  // zero registrations — epoch windows are an agent-lifecycle notion, and
  // bounded in-test twins must seal in lockstep with bounded workers.
  tib_.SealEpoch();
}

bool EdgeAgent::EpochTickOne(int id) {
  std::shared_ptr<StandingRegistration> reg;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = standing_.find(id);
    if (it == standing_.end()) {
      return false;
    }
    reg = it->second;
  }
  return TickRegistration(*reg);
}

size_t EdgeAgent::StandingQueryCount() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return standing_.size();
}

size_t EdgeAgent::ResyncStandingQuery(uint64_t subscription_id) {
  std::vector<std::shared_ptr<StandingRegistration>> regs;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (const auto& [id, reg] : standing_) {
      if (reg->accumulator->subscription_id() == subscription_id) {
        regs.push_back(reg);
      }
    }
  }
  size_t delivered = 0;
  for (const auto& reg : regs) {
    // Same gate discipline as TickRegistration: hold it across the sink
    // call so UnregisterStandingQuery can fence the delivery out.
    std::lock_guard<std::mutex> gate(reg->gate);
    if (reg->detached) {
      continue;
    }
    reg->sink(reg->accumulator->TakeSnapshot());
    ++delivered;
  }
  return delivered;
}

void EdgeAgent::UninstallQuery(int id) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  periodic_.erase(id);
}

size_t EdgeAgent::InstalledQueryCount() const {
  std::lock_guard<std::mutex> lock(reg_mu_);
  return periodic_.size();
}

}  // namespace pathdump
