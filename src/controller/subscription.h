// Controller-side standing-query subscriptions.
//
// A SubscriptionManager installs a standing query (the same spec shape
// as a poll query) on a set of agents, receives their epoch deltas over
// an alarm-pipeline-style channel, and folds them into a materialized
// per-host state from which the standing result is produced on demand:
//
//   agents ──EpochTick──▶ QueryDelta ──Submit──▶ bounded MPSC queue
//            (per-host      (seq stamp)           (backpressure)
//             increments)                              │
//                                          drain worker: fold deltas in
//                                          epoch order per (sub, host)
//                                                      │
//                Materialize(sub): per-host result ──▶ merge in host
//                order — byte-identical to a fresh poll Execute
//
//  * Intake is the shared bounded MPSC channel template
//    (src/common/mpsc_channel.h) — the same implementation AlarmPipeline
//    drains: every accepted delta sequence-stamped (QueryDelta::seq)
//    under the queue lock, a dedicated drain worker pulling batches,
//    blocking backpressure (a delta is never dropped), and a
//    reentrant-safe Flush.
//  * Ordering: network arrival may reorder epochs.  The drain worker
//    folds strictly in epoch order per (subscription, host), buffering
//    gapped deltas until the missing epoch arrives — the materialized
//    state is always a contiguous epoch prefix per host, so arrival
//    order can never leak into results (stats count the reorders).
//  * Determinism contract: at any epoch boundary (all shipped deltas
//    folded), Materialize() is byte-identical to Controller::Execute of
//    the equivalent poll query over the same TIB contents, at any TIB
//    shard count and any worker count (tests/standing_query_test.cc
//    asserts the {1,4,16} x {1,4,16} matrix).
//  * Cost: folding is O(delta entries); materialization is O(active
//    flows) for the requested subscription only.  Polling stays
//    available and untouched — subscriptions are a second consumer of
//    the same TIB, not a replacement.

#ifndef PATHDUMP_SRC_CONTROLLER_SUBSCRIPTION_H_
#define PATHDUMP_SRC_CONTROLLER_SUBSCRIPTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mpsc_channel.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/edge/query.h"
#include "src/edge/standing_query.h"

namespace pathdump {

class Controller;
class EdgeAgent;

struct SubscriptionManagerOptions {
  // Bound of the delta intake queue (backpressure blocks above it).
  size_t queue_capacity = 4096;
  // Largest batch the drain worker pulls in one go.
  size_t max_batch = 256;
  // When > 0: a (sub, host) stream whose gap buffer reaches this many
  // pending out-of-order epochs is declared stale (a missing epoch is
  // presumed lost, e.g. to a corrupted frame) and a resync is requested
  // through the installed requester instead of waiting forever.  0
  // disables the threshold — plain reordering is then always waited out.
  size_t gap_resync_threshold = 0;
};

// All counters are cumulative since construction.
struct SubscriptionManagerStats {
  uint64_t deltas_submitted = 0;  // accepted into the queue
  uint64_t deltas_folded = 0;     // applied to materialized state
  uint64_t deltas_reordered = 0;  // arrived ahead of a missing epoch, buffered
  uint64_t deltas_orphaned = 0;   // for an unsubscribed/unknown subscription
  uint64_t delta_bytes = 0;       // wire bytes of folded deltas
  uint64_t flow_updates = 0;      // fold updates (FoldState::size of each folded delta)
  uint64_t blocked_enqueues = 0;  // Submit() calls that had to wait
  uint64_t batches = 0;           // drain pulls
  // Crash-recovery accounting.  Every submitted delta ends in exactly
  // one bucket: deltas_submitted == deltas_folded + deltas_orphaned +
  // deltas_stale_discarded once flushed (snapshot folds count in
  // deltas_folded AND snapshot_folds).
  uint64_t resyncs = 0;                 // streams marked stale
  uint64_t snapshot_folds = 0;          // snapshots folded as new baselines
  uint64_t deltas_stale_discarded = 0;  // pre-snapshot stragglers dropped
};

// Per-subscription view for benches and introspection.
struct SubscriptionInfo {
  uint64_t id = 0;
  StandingQuerySpec spec;
  size_t hosts = 0;
  uint64_t deltas_folded = 0;
  uint64_t delta_bytes = 0;   // wire bytes folded so far
  uint64_t pending_gaps = 0;  // buffered out-of-order deltas right now
};

class SubscriptionManager {
 public:
  explicit SubscriptionManager(Controller* controller, SubscriptionManagerOptions options = {});
  // Unsubscribes everything (detaching agent-side accumulators), drains
  // deltas already accepted, then joins the drain worker.  External
  // epoch tickers must stop first.
  ~SubscriptionManager();

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  // Installs `spec` on every registered agent in `hosts` (unregistered
  // hosts are skipped, exactly like a poll Execute) and returns the
  // subscription id.  If `epoch_period > 0`, a periodic query is also
  // installed on each agent so the agent's own Tick drives epoch ticks;
  // otherwise epochs are driven explicitly via TickEpoch().
  uint64_t Subscribe(const std::vector<HostId>& hosts, const StandingQuerySpec& spec,
                     SimTime epoch_period = 0);

  // Transport variant: creates the subscription and the per-host fold
  // state for every listed host without attaching any in-process
  // accumulator.  Deltas arrive through SubmitDelta from a transport
  // reactor (src/transport/transport.h) that installed the spec on the
  // remote agent processes itself; folding, ordering, and Materialize
  // behave identically to an in-process subscription.
  uint64_t SubscribeRemote(const std::vector<HostId>& hosts, const StandingQuerySpec& spec);

  // Detaches the subscription everywhere and drops its state.  Safe
  // mid-epoch: agent-side hook removal synchronizes with in-flight
  // inserts, and deltas still queued for this id are counted orphaned
  // and discarded.
  void Unsubscribe(uint64_t id);

  // Explicit epoch boundary: ticks every (subscription, host) now, on
  // the calling thread.  Deltas flow through the normal channel; call
  // Flush() (or Materialize, which flushes) before reading results.
  void TickEpoch();

  // Channel intake: stamps QueryDelta::seq and enqueues.  Blocks while
  // the queue is full (a delta is never dropped); returns false only
  // after shutdown began.  Normally fed by agent sinks; exposed so
  // tests can inject reordered arrivals directly.
  bool SubmitDelta(QueryDelta delta);

  // Blocks until every delta accepted so far has been folded (or
  // counted orphaned).  No-op from inside the drain worker.
  void Flush();

  // Flushes, then materializes the standing result: per-host results
  // (MaterializeStandingResult over the folded state) merged in host
  // order — the poll Execute merge, byte for byte.  Unknown
  // subscription ids yield monostate.
  QueryResult Materialize(uint64_t id);

  // --- Crash recovery (snapshot resync) ---
  //
  // Protocol: a stream that lost deltas (dead/restarted agent, seq gap,
  // corrupted frame) is marked STALE — ordinary deltas for it are
  // discarded (their increments are unusable without the lost prefix)
  // until a snapshot delta (QueryDelta::snapshot) arrives.  The snapshot
  // REPLACES the stream's fold state, re-anchors next_epoch at
  // snapshot.epoch + 1, clears the gap buffer, and clears the stale mark
  // — strict-epoch delta folding then resumes, and Materialize is again
  // byte-identical to a fresh poll at every epoch boundary.

  // Marks (id, host) stale and drops its gap buffer.  Returns true if
  // the stream was newly marked (callers use this to rate-limit resync
  // requests: one outstanding request per stale episode).  False for
  // unknown streams or streams already stale.
  bool MarkStale(uint64_t id, HostId host);

  // Called (without state_mu_ held) whenever the gap threshold declares
  // a stream stale, so the owner (e.g. the transport hub) can ship a
  // ResyncRequest to the agent.  Install before traffic flows.
  using ResyncRequester = std::function<void(uint64_t id, HostId host)>;
  void SetResyncRequester(ResyncRequester fn);

  // In-process resync: marks (id, host) stale, then immediately pulls a
  // snapshot through the attached agent and submits it.  Returns false
  // when the subscription has no attachment for `host` (e.g. remote
  // subscriptions — those resync over the wire via the hub).
  bool Resync(uint64_t id, HostId host);

  // Streams currently stale (snapshot still in flight).  Chaos tests
  // spin on this reaching zero before asserting byte-identity.
  size_t stale_streams() const;

  SubscriptionManagerStats stats() const;
  SubscriptionInfo info(uint64_t id) const;
  size_t subscription_count() const;

 private:
  struct PendingDelta {
    FoldState payload;
    size_t wire_bytes = 0;  // the full QueryDelta's SerializedSize
  };
  struct HostState {
    uint64_t next_epoch = 1;  // next epoch to fold
    FoldState folded;         // every delta folded so far
    std::map<uint64_t, PendingDelta> pending;  // gapped arrivals by epoch
    // Deltas were lost; ordinary deltas are discarded until a snapshot
    // re-baselines the stream (see the crash-recovery section above).
    bool stale = false;
  };
  struct AgentAttachment {
    EdgeAgent* agent = nullptr;
    int standing_id = -1;
    int periodic_id = -1;  // -1 when epochs are driven explicitly
  };
  struct Subscription {
    StandingQuerySpec spec;
    std::vector<HostId> hosts;  // merge order (registered hosts only)
    std::vector<AgentAttachment> attachments;
    std::unordered_map<HostId, HostState> host_state;
    uint64_t deltas_folded = 0;
    uint64_t delta_bytes = 0;
  };

  // The channel's consumer: folds one pulled batch.  Runs on the
  // channel's drain worker.
  void FoldBatch(std::vector<QueryDelta>& batch);
  // Applies one contiguous-epoch delta to `hs`; caller holds state_mu_.
  // `keys` carries the (sub, host, epoch) correlation for the fold span.
  void FoldReady(Subscription& sub, HostState& hs, const PendingDelta& delta,
                 const TraceKeys& keys);
  // Uninstalls the periodic ticks and accumulators on every attached
  // agent; must be called WITHOUT state_mu_ held (takes agent locks).
  void DetachAgents(Subscription& sub);

  Controller* const controller_;
  const SubscriptionManagerOptions options_;

  // Fold-side counters (intake-side ones come from the channel).
  std::atomic<uint64_t> deltas_folded_{0};
  std::atomic<uint64_t> deltas_reordered_{0};
  std::atomic<uint64_t> deltas_orphaned_{0};
  std::atomic<uint64_t> delta_bytes_{0};
  std::atomic<uint64_t> flow_updates_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<uint64_t> snapshot_folds_{0};
  std::atomic<uint64_t> stale_discarded_{0};

  // Fired outside state_mu_ when the gap threshold marks a stream
  // stale.  Guarded by state_mu_ for installation; FoldBatch copies it
  // under the lock and invokes after release.
  ResyncRequester resync_requester_;

  // Subscription registry + materialized state.  The channel's drain
  // worker releases the queue lock before folding, and registry
  // operations touch the channel only via Flush (never while holding
  // state_mu_), so no ordering between the two ever forms.
  mutable std::mutex state_mu_;
  uint64_t next_subscription_id_ = 1;
  std::unordered_map<uint64_t, Subscription> subscriptions_;

  // Declared after the state FoldBatch touches: its destructor drains
  // the queue through FoldBatch.
  MpscChannel<QueryDelta> channel_;
  MetricsSource metrics_;  // last: unregisters before the state it reads
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_CONTROLLER_SUBSCRIPTION_H_
