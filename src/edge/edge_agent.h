// EdgeAgent: the PathDump server stack at one end host (§3.2, Fig. 1).
//
// Responsibilities:
//  1. Data path — receive packets for local flows, strip the trajectory
//     header, and update the trajectory memory (the OVS/DPDK patch).
//  2. Trajectory construction — on record eviction, expand sampled link
//     IDs into a full path (trajectory cache, then CherryPick decode
//     against the static topology) and append a TIB record.
//  3. Query serving — the Table 1 host API over local TIB + live memory.
//     getFlows, getPaths and getCount are polls of one StandingQuerySpec
//     each (Poll): the filter, fold and materialize of the standing
//     queries, so a poll and a subscription cannot disagree.
//  4. Active monitoring — tcpretrans-style retransmission tracking plus
//     installable periodic queries; violations raise Alarm() upstream.
//
// Concurrency: the TIB synchronizes itself (flow-hash shards, each with a
// reader/writer lock — see tib.h), so pure-TIB queries (getFlows,
// getPaths, getCount, getDuration, TopK, FlowSizeDistribution) never take
// an agent-wide lock; the whole-TIB ones scale with the TIB's scan pool,
// and the per-flow ones read one shard.  The agent's own
// reader/writer lock now guards only the non-TIB mutable state:
// TrajectoryMemory, the trajectory cache, and the retransmission monitor.
// A separate registration mutex guards the hook/periodic-query tables.
// Any number of threads may run Table 1 queries against the *same* agent
// concurrently with the single data-path thread ingesting packets/records
// — e.g. alarm-pipeline subscribers fetching failure signatures mid-run.
// Record hooks, periodic query bodies, and RaiseAlarm all run *outside*
// every lock, so they may freely call back into the query API.
//
// Lock hierarchy: agent lock -> TIB shard lock (GetPathsLive); the TIB
// never calls back into the agent.  tib() is safe to use at any time
// (every Tib method locks internally); the remaining per-subsystem state
// is exposed only through locked wrappers (RecordRetransmission,
// TotalRetx, MemorySnapshot, cache_stats) — the raw accessors that used to
// bypass the lock are gone.

#ifndef PATHDUMP_SRC_EDGE_EDGE_AGENT_H_
#define PATHDUMP_SRC_EDGE_EDGE_AGENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/cherrypick/codec.h"
#include "src/cherrypick/trajectory_cache.h"
#include "src/common/types.h"
#include "src/edge/alarm.h"
#include "src/edge/packet_log.h"
#include "src/edge/query.h"
#include "src/edge/standing_query.h"
#include "src/edge/tib.h"
#include "src/edge/trajectory_memory.h"
#include "src/packet/packet.h"
#include "src/tcp/retx_monitor.h"

namespace pathdump {

class ThreadPool;

struct EdgeAgentConfig {
  // Idle eviction timeout for trajectory-memory records (paper: 5 s).
  SimTime idle_timeout = 5 * kNsPerSec;
  // How often the agent sweeps its trajectory memory.
  SimTime sweep_period = 1 * kNsPerSec;
  // Consecutive retransmissions marking a flow "poor" (getPoorTCPFlows).
  int poor_retx_threshold = 3;
  size_t trajectory_cache_capacity = 4096;
  // Per-packet trajectory log (the paper's future-work extension): 0
  // disables it; otherwise the newest N packets are retained in a bounded
  // ring queryable by flow/link/time (see packet_log.h).
  size_t packet_log_capacity = 0;
  TibOptions tib_options;
};

// Locked snapshot of the trajectory-cache counters.
struct TrajectoryCacheStats {
  size_t size = 0;
  size_t capacity = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class EdgeAgent {
 public:
  // Invariant hook executed on every new TIB record (e.g. the path
  // conformance query installed by the controller, §2.3).
  using RecordHook = std::function<void(EdgeAgent&, const TibRecord&, SimTime)>;
  // Installed periodic query body.
  using PeriodicQuery = std::function<void(EdgeAgent&, SimTime)>;

  EdgeAgent(HostId host, const Topology* topo, const CherryPickCodec* codec,
            EdgeAgentConfig config = {});

  HostId host() const { return host_; }
  IpAddr ip() const { return topo_->IpOfHost(host_); }

  // --- Data path ---

  // Handles one delivered packet: retransmission bookkeeping, trajectory-
  // memory update, and (cheaply, when due) housekeeping.
  void OnPacket(const Packet& pkt, SimTime now);

  // Runs due housekeeping: memory sweep + installed periodic queries.
  void Tick(SimTime now);

  // Flushes all live trajectory-memory records into the TIB (end of run).
  void FlushAll(SimTime now);

  // Direct TIB ingestion, used by trajectory construction internally and by
  // the flow-level simulation engine (same downstream code path: record
  // hooks run, indexes update).
  void IngestRecord(const TibRecord& rec, SimTime now);

  // --- Host API (Table 1) ---

  // Flows (with paths) traversing `link` during `range`, in order of
  // first appearance.  Wildcards via kInvalidNode in either LinkId
  // field.  A poll of the kFlowList kind (Poll below).
  std::vector<Flow> GetFlows(const LinkId& link, const TimeRange& range) const;

  // Paths taken by `flow` that include `link` during `range`, in order
  // of first appearance.  A flow-keyed kFlowList Poll: one shard, read
  // through the by-flow index; distinct paths are told apart by exact
  // equality.
  std::vector<Path> GetPaths(const FiveTuple& flow, const LinkId& link,
                             const TimeRange& range) const;

  // Like GetPaths, but additionally consults *live* trajectory-memory
  // records that have not yet been evicted to the TIB — the paper's IPC
  // channel for alarm-time debugging at finer time scales (§3.2).  Live
  // records are decoded on the fly (the result is cached as usual).
  std::vector<Path> GetPathsLive(const FiveTuple& flow, const LinkId& link,
                                 const TimeRange& range);

  // Packet/byte counts of a Flow (empty path = all paths) within `range`.
  // A flow-keyed kCountSummary Poll, with the exact path when given.
  CountSummary GetCount(const Flow& flow, const TimeRange& range) const;

  // Duration of a Flow within `range` (max etime - min stime), 0 if absent.
  // Filters the flow's records with the same flow-keyed spec as GetCount,
  // but is not a Poll: no standing kind folds a time span, and nothing
  // subscribes to a duration or polls one remotely.
  SimTime GetDuration(const Flow& flow, const TimeRange& range) const;

  // Flows whose consecutive retransmissions meet the threshold (<=0 uses
  // the configured default).  Reads the retransmission monitor, not the
  // TIB, so it is not a Poll.
  std::vector<FiveTuple> GetPoorTcpFlows(int threshold = 0) const;

  // Records a retransmission observed for `flow` at `now` — the simulated
  // tcpretrans feed, safe against concurrent queries (write lock).
  void RecordRetransmission(const FiveTuple& flow, SimTime now);

  // Lifetime retransmission count for `flow` (shared lock).
  uint64_t TotalRetx(const FiveTuple& flow) const;

  // Resets a flow's consecutive-retransmission streak (one alarm per
  // episode, §2.3) under the agent's write lock, safe against concurrent
  // queries.
  void ResetRetxStreak(const FiveTuple& flow);

  // Raises an alarm to the controller.
  void RaiseAlarm(const FiveTuple& flow, AlarmReason reason, std::vector<Path> paths,
                  SimTime now);

  // --- Polls of the standing kinds (src/edge/standing_query.h) ---

  // Evaluates `spec` over the TIB's retained records with the standing
  // path's filter, fold and materialize (PollTib): a shard-parallel scan
  // under shared shard locks, byte-identical at any shard/worker count
  // and to a subscription's materialized result over the same records.
  QueryResult Poll(const StandingQuerySpec& spec) const { return PollTib(tib_, spec); }

  // The named polls, one-line forwards to Poll.  Histogram of per-flow
  // byte counts over flows traversing `link` (§2.3 load imbalance).
  FlowSizeHistogram FlowSizeDistribution(const LinkId& link, const TimeRange& range,
                                         int64_t bin_width = 10000) const;
  // Top-k flows by bytes within `range`.
  TopKFlows TopK(size_t k, const TimeRange& range) const;
  // Byte/packet totals over records whose path matches `link` within
  // `range` (the per-host getCount aggregate).
  CountSummary CountOnLink(const LinkId& link, const TimeRange& range) const;

  // --- Wiring ---

  void SetAlarmHandler(AlarmHandler handler) { alarm_handler_ = std::move(handler); }

  // Non-owning pool for shard-parallel TIB scans (Poll of an unkeyed
  // spec and its named forwards); nullptr reverts to sequential scans.
  // Results are byte-identical either way.
  void SetQueryThreadPool(ThreadPool* pool) { tib_.SetScanPool(pool); }

  int AddRecordHook(RecordHook hook);
  void RemoveRecordHook(int id);

  // install()/uninstall() from the controller API.  period <= 0 means
  // event-driven (runs on every Tick).
  int InstallQuery(SimTime period, PeriodicQuery body);
  void UninstallQuery(int id);
  size_t InstalledQueryCount() const;

  // Installs the §2.3 TCP performance monitoring query: every `period`
  // (the paper uses 200 ms) the agent raises Alarm(flow, POOR_PERF) for
  // each flow whose consecutive retransmissions meet the threshold, then
  // resets that flow's streak so one episode alarms once.
  int InstallPoorTcpMonitor(SimTime period = 200 * kNsPerMs, int threshold = 0);

  // --- Standing queries (src/edge/standing_query.h) ---
  //
  // A registered standing query folds matching records inside
  // Tib::Insert (under the owning shard's lock) and, on an epoch tick,
  // ships only the increment: the per-shard partials are merged,
  // epoch-stamped, and handed to `sink`
  // (normally the controller's SubscriptionManager intake).  The sink
  // runs on the ticking thread with no agent lock held; it may be
  // called concurrently from concurrent tickers.

  using DeltaSink = std::function<void(QueryDelta&&)>;

  // Registers the accumulator; returns a handle for EpochTickOne /
  // UnregisterStandingQuery.  Cost per subsequent insert: one filter
  // check, plus FoldState::Add on matching records — one hash lookup
  // (per-flow kinds, FlowList dedup) or two additions (CountSummary).
  int RegisterStandingQuery(uint64_t subscription_id, const StandingQuerySpec& spec,
                            DeltaSink sink);
  // Removes the accumulator and its TIB hook.  On return no further
  // delta will be produced and no in-flight insert still observes the
  // accumulator (Tib::RemoveInsertHook synchronizes with inserts); a
  // concurrent EpochTick may still be delivering the final delta.
  void UnregisterStandingQuery(int id);

  // Epoch ticks: snapshot + reset the partials and push the delta (if
  // any) to the sink, then seal the TIB's open epoch segments
  // (Tib::SealEpoch) — the agent-level epoch boundary that makes whole
  // segments the unit of memory-ceiling retirement.  Ticking precedes
  // sealing, so a closing segment's contribution is always folded before
  // it can retire; sealing runs even with zero registrations.
  // EpochTickOne ticks one registration WITHOUT sealing (a
  // per-subscription cadence hook, not an agent epoch boundary); it
  // returns false for an unknown id.
  void EpochTick();
  bool EpochTickOne(int id);
  size_t StandingQueryCount() const;

  // Crash-recovery resync: every registration owned by `subscription_id`
  // takes a full-baseline snapshot (StandingQueryAccumulator::TakeSnapshot
  // — consistent cut, consumes an epoch number, ships even when empty)
  // and pushes it to its sink.  Returns the number of snapshots
  // delivered (0 when the subscription has no registration here).
  size_t ResyncStandingQuery(uint64_t subscription_id);

  // --- Introspection ---

  // The TIB synchronizes itself (per-shard locks); both overloads are safe
  // to use concurrently with ingestion and queries.
  Tib& tib() { return tib_; }
  const Tib& tib() const { return tib_; }
  // Locked snapshot of the live (not yet evicted) trajectory-memory rows
  // — the safe replacement for the removed raw memory() accessor.
  std::vector<TrajectoryMemory::Record> MemorySnapshot() const;
  // Locked snapshot of the trajectory-cache counters.
  TrajectoryCacheStats cache_stats() const;
  // Non-null only when packet_log_capacity > 0 in the config.  The log is
  // written under the agent lock by the data path; treat as quiescent-only.
  PacketLog* packet_log() { return packet_log_.get(); }
  const PacketLog* packet_log() const { return packet_log_.get(); }
  uint64_t decode_failures() const { return decode_failures_; }
  const EdgeAgentConfig& config() const { return config_; }

 private:
  // Trajectory construction for one evicted memory record.
  void ConstructAndStore(const TrajectoryMemory::Record& rec, SimTime now);

  // Cache-first decode of a raw trajectory header; nullopt when infeasible.
  // Callers must hold mu_ exclusively (the cache insert mutates).
  std::optional<Path> DecodeHeader(IpAddr src_ip, LinkLabel dscp,
                                   const std::vector<LinkLabel>& tags);

  // Rebuilds hook_list_ from hooks_; callers must hold reg_mu_.
  void RebuildHookList();

  HostId host_;
  const Topology* topo_;
  const CherryPickCodec* codec_;
  EdgeAgentConfig config_;

  // Reader/writer lock over memory_/cache_/retx_/packet_log_ (see file
  // comment).  The TIB is *not* under this lock — it self-synchronizes.
  mutable std::shared_mutex mu_;
  TrajectoryMemory memory_;
  TrajectoryCache cache_;
  Tib tib_;
  RetxMonitor retx_;
  std::unique_ptr<PacketLog> packet_log_;
  AlarmHandler alarm_handler_;

  std::atomic<SimTime> next_sweep_{0};
  std::atomic<uint64_t> decode_failures_{0};

  // Guards the hook/periodic registration tables below.  Hook and query
  // bodies are copied out and run with no lock held, so they may call any
  // agent API (including installing/uninstalling) without deadlock.
  mutable std::mutex reg_mu_;
  int next_hook_id_ = 1;
  std::map<int, RecordHook> hooks_;
  // Immutable snapshot of hooks_ values, rebuilt on Add/Remove; the
  // per-record ingest cost is one shared_ptr copy, not a table copy.
  std::shared_ptr<const std::vector<RecordHook>> hook_list_;

  struct Installed {
    SimTime period;
    SimTime next_due;
    PeriodicQuery body;
  };
  int next_query_id_ = 1;
  std::map<int, Installed> periodic_;

  // Standing-query registrations, guarded by reg_mu_ like the other
  // tables.  Entries are shared_ptrs so an epoch tick can run on a
  // snapshot with no lock held while a concurrent unregister drops the
  // table entry; the accumulator (and its TIB hook) dies with the last
  // reference.
  struct StandingRegistration {
    std::unique_ptr<StandingQueryAccumulator> accumulator;
    DeltaSink sink;
    // Held while a tick runs TakeDelta + sink.  UnregisterStandingQuery
    // acquires it after dropping the table entry and marks `detached`,
    // so on return no in-flight tick is delivering into the sink and no
    // later tick (one that grabbed its snapshot pre-unregister) will —
    // the sink's target (e.g. a SubscriptionManager being destroyed)
    // may safely die afterwards.
    std::mutex gate;
    bool detached = false;  // guarded by gate
  };
  // Runs one gated tick; returns false if the registration is detached.
  static bool TickRegistration(StandingRegistration& reg);
  int next_standing_id_ = 1;
  std::map<int, std::shared_ptr<StandingRegistration>> standing_;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_EDGE_AGENT_H_
