// Standing queries and polls: one query kernel, two schedules.
//
// The paper's recurring debugging applications (traffic measurement,
// load imbalance) re-poll the fleet, and every poll re-scans the full
// TIB — O(records) per poll even when almost nothing changed.  A
// standing query evaluates the same StandingQuerySpec incrementally: the
// agent folds each record at insert time and, on an epoch tick, ships
// only what changed.  Both schedules run one kernel:
//
//  * filter — StandingQuerySpec::Matches (range overlap + link match);
//  * fold   — per-flow sums (FoldFlowBytes) for kTopK and
//             kFlowSizeHistogram, per-record dedup/sums
//             (RecordFoldState::Add) for kFlowList and kCountSummary;
//  * materialize — MaterializeStandingResult / MaterializeStandingRecords.
//
//   standing: Tib::Insert ──(insert hook, under the shard lock)──▶
//     per-shard partial ──(epoch tick: swap + reset, one shard lock at a
//     time)──▶ epoch-stamped QueryDelta ──▶ controller fold (RecordFoldState
//     / FlowBytesDelta::ApplyTo) ──▶ materialize
//     (src/controller/subscription.h).
//   poll: PollTib ──(shard-parallel scan under shared shard locks, every
//     retained record filtered + folded)──▶ per-shard states ──(key-
//     disjoint: concatenate or sum)──▶ materialize.
//
// Two delta shapes carry the standing increments: per-flow sums
// (FlowBytesDelta, src/common/flow_delta.h) and per-record lists
// (RecordDelta, src/common/record_delta.h) tagged with global insertion
// ids, so the controller's fold replays the poll's first-appearance
// order exactly.
//
// Determinism contract: at any epoch boundary, folding every delta
// shipped so far equals a poll over the same records — at any shard
// count and any scan-worker count (tests/standing_query_test.cc).
//
// Locking: partial updates ride the shard lock Tib::Insert already
// holds; the epoch snapshot takes one shard lock at a time
// (Tib::ForEachShardExclusive); a poll holds one shared shard lock per
// scan task (Tib::CollectShardPartials), so ingest into other shards
// proceeds.  The only accumulator-private lock is a tick mutex
// serializing epoch snapshots against each other, taken before any
// shard lock.

#ifndef PATHDUMP_SRC_EDGE_STANDING_QUERY_H_
#define PATHDUMP_SRC_EDGE_STANDING_QUERY_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/flow_delta.h"
#include "src/common/record_delta.h"
#include "src/common/types.h"
#include "src/edge/query.h"
#include "src/edge/tib.h"

namespace pathdump {

// What a poll or a subscription computes.  A subscription installs the
// same spec on every agent; the controller materializes per host and
// merges in host order — exactly a poll Execute's shape.
struct StandingQuerySpec {
  enum class Kind : uint8_t {
    kTopK = 0,               // per-flow sums -> TopKFlows
    kFlowSizeHistogram = 1,  // per-flow sums -> FlowSizeHistogram
    kFlowList = 2,           // per-record   -> FlowList (getFlows)
    kCountSummary = 3,       // per-record   -> CountSummary (getCount)
  };

  Kind kind = Kind::kTopK;
  // kTopK: per-host truncation bound (the poll path's k).
  size_t k = 0;
  // kFlowSizeHistogram: histogram bin width.
  int64_t bin_width = 10000;
  // Record filter: a wildcardable link the record's path must match
  // (TopK uses (<*, *>)) ...
  LinkId link{kInvalidNode, kInvalidNode};
  // ... and a time range the record must overlap.  A standing query
  // filters once, at insert; a standing range is normally open-ended.
  TimeRange range = TimeRange::All();

  // True for the kinds whose deltas carry records, not per-flow sums —
  // one definition for the accumulator, the controller fold and the
  // wire decoder.
  static constexpr bool IsRecordKind(Kind of) {
    return of == Kind::kFlowList || of == Kind::kCountSummary;
  }
  bool IsRecordKind() const { return IsRecordKind(kind); }

  // The record filter of every evaluation — insert hook, resync
  // snapshot and poll scan — so they can never disagree about which
  // records belong to the query.
  bool Matches(const TibRecord& rec) const {
    return rec.Overlaps(range) && rec.path.MatchesLinkQuery(link);
  }

  friend bool operator==(const StandingQuerySpec&, const StandingQuerySpec&) = default;
};

// One epoch's increment from one host, shipped over the subscription
// channel.  Epochs are 1-based and contiguous per (subscription, host);
// empty epochs ship nothing (and consume no epoch number), so per-epoch
// wire cost scales with the delta, not with the TIB.
struct QueryDelta {
  uint64_t subscription_id = 0;
  HostId host = kInvalidNode;
  // The subscription's kind, stamped by the accumulator.  Redundant with
  // the manager's own spec for in-process delivery, but load-bearing on
  // the wire (src/transport/wire.cc): the frame decoder picks the payload
  // shape from this byte instead of guessing from content.
  StandingQuerySpec::Kind kind = StandingQuerySpec::Kind::kTopK;
  // Per-(subscription, host) epoch number, stamped by the accumulator.
  uint64_t epoch = 0;
  // Channel intake sequence, stamped by the SubscriptionManager at
  // enqueue (0 until then) — arrival order, which may disagree with
  // epoch order; the manager folds in epoch order regardless.
  uint64_t seq = 0;
  // True for a one-shot resync snapshot (TakeSnapshot): the payload is
  // the FULL standing state as of this epoch boundary, not an increment.
  // The controller replaces the (sub, host) fold state with it and
  // resumes delta folding at epoch + 1.  Unlike ordinary deltas, an
  // EMPTY snapshot still ships and still consumes an epoch number — the
  // receiver needs the baseline even when the baseline is "nothing".
  bool snapshot = false;
  // Exactly one of these is populated, by the subscription's kind:
  // per-flow sums for kTopK/kFlowSizeHistogram, records for the rest.
  FlowBytesDelta payload;
  RecordDelta records;

  // Bytes on the wire: the populated payload plus the subscription/host/
  // epoch framing (8 + 4 + 8, padded to 24 like fixed fields elsewhere).
  size_t SerializedSize() const {
    return 24 + (records.empty() ? payload.SerializedSize() : records.SerializedSize());
  }

  friend bool operator==(const QueryDelta&, const QueryDelta&) = default;
};

// The per-flow fold (kTopK / kFlowSizeHistogram): a matching record adds
// its bytes to its flow's total, creating the key even for a zero-byte
// record.  The insert hook, the resync snapshot and the poll scan all
// fold through it.
inline void FoldFlowBytes(FlowBytesMap& per_flow, const TibRecord& rec) {
  per_flow[rec.flow] += rec.bytes;
}

// Materializes one host's kTopK / kFlowSizeHistogram result from its
// per-flow byte totals (a poll's scan or a subscription's folded deltas).
QueryResult MaterializeStandingResult(const StandingQuerySpec& spec, const FlowBytesMap& per_flow);

// Fold state for the record kinds: kFlowList keeps the distinct
// (flow, path) pairs with the smallest insertion id seen, kCountSummary
// the byte/packet sums.  A poll folds a shard's records in ascending id
// order, and a controller folds deltas in epoch order with items
// id-sorted, so the first occurrence of a pair normally carries its
// minimum id — Add still keeps the minimum defensively.
struct RecordFoldState {
  struct FlowItem {
    uint64_t id = 0;
    FiveTuple flow;
    CompactPath path;
  };
  // Distinct (flow, path) items, append-ordered; materialization sorts
  // by id.
  std::vector<FlowItem> flow_items;
  // Dedup index: path hash seeded by flow -> indices into flow_items.
  // The hash only buckets; equality is exact, so a 64-bit collision
  // cannot change the answer.
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  CountSummary count;

  // Folds one matching record — the single entry point of the poll scan
  // and of Fold.  Inline: a count poll runs it once per matching record.
  void Add(const StandingQuerySpec& spec, uint64_t id, const FiveTuple& flow,
           const CompactPath& path, uint64_t bytes, uint32_t pkts) {
    if (spec.kind == StandingQuerySpec::Kind::kCountSummary) {
      // Every record is folded exactly once (a poll scans it once; a
      // delta ships it in exactly one epoch), so this is a commutative sum.
      count.bytes += bytes;
      count.pkts += pkts;
      return;
    }
    AddFlowItem(id, flow, path);
  }
  // Folds one epoch's RecordDelta (every item, through Add).
  void Fold(const StandingQuerySpec& spec, const RecordDelta& delta);

 private:
  // kFlowList: first-occurrence dedup of (flow, path), keeping the
  // smallest insertion id.
  void AddFlowItem(uint64_t id, const FiveTuple& flow, const CompactPath& path);
};

// Materializes one host's kFlowList / kCountSummary result from its fold
// state (reads flow_items and count only).
QueryResult MaterializeStandingRecords(const StandingQuerySpec& spec,
                                       const RecordFoldState& state);

// A poll: evaluates `spec` over the TIB's retained records.  One scan
// task per shard (on the TIB's scan pool when set) filters and folds
// under that shard's shared lock; a flow picks its shard, so the
// per-shard states are key-disjoint and merge by concatenation or
// summation before the shared materialize.  Byte-identical at any shard
// and worker count, and to a subscription's materialized result over the
// same records.
QueryResult PollTib(const Tib& tib, const StandingQuerySpec& spec);

// The per-agent accumulator: one partial per TIB shard (a FlowBytesMap
// for the per-flow kinds, an append buffer of records for the record
// kinds), updated by a Tib insert hook under that shard's lock, drained
// by TakeDelta on epoch ticks.  Construction installs the hook;
// destruction removes it (after which no update is running — the Tib
// guarantees removal synchronizes with every in-flight Insert).
class StandingQueryAccumulator {
 public:
  StandingQueryAccumulator(uint64_t subscription_id, HostId host, const StandingQuerySpec& spec,
                           Tib* tib);
  ~StandingQueryAccumulator();

  StandingQueryAccumulator(const StandingQueryAccumulator&) = delete;
  StandingQueryAccumulator& operator=(const StandingQueryAccumulator&) = delete;

  // Epoch tick: snapshots + resets the per-shard partials (one shard
  // lock at a time), merges them with the deterministic ordered reduce,
  // and returns the epoch-stamped delta — or nullopt if nothing changed
  // (no epoch number is consumed).  Thread-safe; cost is O(delta).
  std::optional<QueryDelta> TakeDelta();

  // Resync: one full epoch-boundary snapshot of the standing state.
  // Under each shard's exclusive lock the pending partial is discarded
  // and the shard's stored records are re-scanned through the same
  // filter and fold OnInsert applies, so the result equals "all matching records
  // inserted so far" — records inserted before a shard's visit are in
  // its scan, records inserted after land in the freshly-cleared partial
  // and ship with the NEXT delta; nothing is counted twice or dropped.
  // Always consumes an epoch number and always returns a delta (marked
  // snapshot=true), even when empty.  Cost is O(TIB records) — resync
  // only, never the steady state.
  //
  // Under a TIB memory ceiling the re-scan covers the RETAINED window
  // only (retired segments no longer exist), so a post-eviction snapshot
  // re-baselines the stream to the window a poll query would see — by
  // design: incremental folds stay exact over the full history (OnInsert
  // saw every record before its segment could retire), while any resync
  // adopts window-scoped semantics, matching window-scoped polls.
  QueryDelta TakeSnapshot();

  uint64_t subscription_id() const { return subscription_id_; }
  HostId host() const { return host_; }
  const StandingQuerySpec& spec() const { return spec_; }

 private:
  // Per-shard buffer entry for the record kinds: the path stays in its
  // stored CompactPath form so the insert hook does no decoding (and no
  // per-path allocation) under the shard lock; Drain decodes once per
  // shipped record, outside the insert path.
  struct CompactRecordEntry {
    uint64_t id;
    FiveTuple flow;
    CompactPath path;
    uint64_t bytes;
    uint32_t pkts;
  };

  // Runs under the owning shard's lock, inside Tib::Insert.
  void OnInsert(size_t shard_index, uint64_t record_id, const TibRecord& rec);
  // Folds one matching record into a per-shard partial of either shape.
  static void Accumulate(FlowBytesMap& partial, uint64_t record_id, const TibRecord& rec);
  static void Accumulate(std::vector<CompactRecordEntry>& partial, uint64_t record_id,
                         const TibRecord& rec);
  // Takes every shard's partial under that shard's exclusive lock, one
  // shard at a time: swapped out as is (rescan = false, TakeDelta), or
  // discarded and re-derived from the shard's stored records through
  // the same filter and fold (rescan = true, TakeSnapshot).
  template <typename Partial>
  std::vector<Partial> DrainShards(std::vector<Partial>& partials, bool rescan);
  // DrainShards canonicalized into a delta stamped with subscription,
  // host and kind (not epoch).  Caller holds tick_mu_.
  QueryDelta Drain(bool rescan);

  const uint64_t subscription_id_;
  const HostId host_;
  const StandingQuerySpec spec_;
  Tib* const tib_;
  int hook_id_ = -1;

  // partial_[s] / record_partial_[s] are guarded by TIB shard s's lock
  // (writes from OnInsert and swaps from TakeDelta both hold it).  Only
  // the shape matching spec_.kind is ever touched.
  std::vector<FlowBytesMap> partial_;
  std::vector<std::vector<CompactRecordEntry>> record_partial_;
  // Serializes concurrent epoch ticks; ordered before shard locks.
  std::mutex tick_mu_;
  uint64_t next_epoch_ = 1;  // guarded by tick_mu_
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_STANDING_QUERY_H_
