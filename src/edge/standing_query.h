// Standing queries and polls: one query kernel, one fold state, two
// schedules.
//
// The paper's recurring debugging applications (traffic measurement,
// load imbalance) re-poll the fleet, and every poll re-scans the full
// TIB — O(records) per poll even when almost nothing changed.  A
// standing query evaluates the same StandingQuerySpec incrementally: the
// agent folds each record at insert time and, on an epoch tick, ships
// only what changed.  Both schedules run one kernel:
//
//  * filter — StandingQuerySpec::Matches (flow key and exact path when
//             set, range overlap, link match);
//  * fold   — FoldState::Add: per-flow byte sums for kTopK and
//             kFlowSizeHistogram, distinct (flow, path) items with their
//             smallest insertion id for kFlowList, byte/packet sums for
//             kCountSummary;
//  * materialize — MaterializeStandingResult.
//
//   standing: Tib::Insert ──(insert hook, under the shard lock)──▶
//     per-shard FoldState ──(epoch tick: swap out, one shard lock at a
//     time; MergeShards)──▶ epoch-stamped QueryDelta carrying one
//     FoldState ──▶ controller FoldState::Merge ──▶ materialize
//     (src/controller/subscription.h).
//   poll: PollTib ──(shard-parallel scan under shared shard locks, every
//     retained record filtered + folded)──▶ per-shard FoldStates
//     ──(MergeShards)──▶ materialize; a flow-keyed spec folds only its
//     flow's records, in its one shard, into one FoldState.
//
// One state type sits between filter and materialize everywhere: the
// poll scan's per-shard state, the accumulator's per-shard partial, the
// payload of a QueryDelta and the controller's per-host state.  A delta
// is a fold increment, not a list of raw records: a FlowList epoch ships
// its distinct (id, flow, path) items (a pair repeated within the epoch
// ships once), a CountSummary epoch one (bytes, pkts) pair.  The choice
// of kind is made in FoldState and in the wire codec
// (src/transport/wire.cc), nowhere else.
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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

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
    kFlowList = 2,           // distinct (flow, path) items -> FlowList (getFlows)
    kCountSummary = 3,       // byte/packet sums -> CountSummary (getCount)
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
  // Optional flow key: only this flow's records match, and a poll reads
  // its one shard through the by-flow index instead of scanning
  // (getPaths, getCount).
  std::optional<FiveTuple> flow = std::nullopt;
  // Optional exact path the record's path must equal (getCount of a
  // Flow with a path).
  std::optional<CompactPath> path = std::nullopt;

  // The record filter of every evaluation — insert hook, resync
  // snapshot and poll scan — so they can never disagree about which
  // records belong to the query.  The key checks come last and out of
  // line, so an unkeyed spec's filter, which every scanned record and
  // every insert hook runs, stays small enough to inline.
  bool Matches(const TibRecord& rec) const {
    return rec.Overlaps(range) && rec.path.MatchesLinkQuery(link) &&
           ((!flow && !path) || MatchesKey(rec));
  }
  // The flow-key and exact-path part of Matches.
  bool MatchesKey(const TibRecord& rec) const;

  friend bool operator==(const StandingQuerySpec&, const StandingQuerySpec&) = default;
};

// Per-flow byte totals keyed by flow, for callers that keep their own
// per-flow reference (FoldState keeps its flows in a vector).
using FlowBytesMap = std::unordered_map<FiveTuple, uint64_t, FiveTupleHash>;

// The one state between filter and materialize, for every kind: a poll
// scan's per-shard state, an accumulator's per-shard partial, a
// QueryDelta's payload (one epoch's increment, or a snapshot's full
// state) and the controller's per-host state.  Only the member of the
// spec's kind is ever populated, so the merges run over all three
// members and need no kind.  Flows and FlowList items are flat vectors
// in append order; a private index finds an existing entry for Add and
// Merge.
struct FoldState {
  struct FlowSum {
    FiveTuple flow;
    uint64_t bytes = 0;

    friend bool operator==(const FlowSum&, const FlowSum&) = default;
  };
  struct FlowItem {
    uint64_t id = 0;  // smallest TIB insertion id seen for the pair
    FiveTuple flow;
    CompactPath path;

    friend bool operator==(const FlowItem&, const FlowItem&) = default;
  };

  // Wire framing of a payload (src/transport/wire.h): a 16-byte message
  // header, then 21 bytes per flow (packed 5-tuple + byte sum), or per
  // FlowList item an 8-byte id, the packed 5-tuple, a 1-byte path length
  // and 4 bytes per switch, or one 16-byte (bytes, pkts) pair.
  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kFlowBytes = 13 + 8;
  static constexpr size_t kFlowItemFixedBytes = 8 + 13 + 1;
  static constexpr size_t kCountBytes = 8 + 8;

  std::vector<FlowSum> flows;        // kTopK, kFlowSizeHistogram: one per flow
  std::vector<FlowItem> flow_items;  // kFlowList: one per distinct (flow, path)
  CountSummary count;                // kCountSummary

  // Folds one matching record.  Inline: a poll runs it once per matching
  // record, an insert hook once per matching insert.
  void Add(const StandingQuerySpec& spec, uint64_t id, const TibRecord& rec) {
    switch (spec.kind) {
      case StandingQuerySpec::Kind::kTopK:
      case StandingQuerySpec::Kind::kFlowSizeHistogram:
        // A zero-byte record still creates its flow's entry.
        AddFlowSum(rec.flow, rec.bytes);
        return;
      case StandingQuerySpec::Kind::kFlowList:
        AddFlowItem(FlowItem{id, rec.flow, rec.path});
        return;
      case StandingQuerySpec::Kind::kCountSummary:
        // Every record is folded exactly once (a poll scans it once; a
        // delta carries it in exactly one epoch), so this is a plain sum.
        count.bytes += rec.bytes;
        count.pkts += rec.pkts;
        return;
    }
  }

  // Merges per-shard states whose keys are disjoint (a flow picks its TIB
  // shard, so duplicates of a flow or a (flow, path) pair share a shard):
  // flows and FlowList items concatenate, counts sum, nothing is
  // deduplicated.  The result has no index (nor has a decoded payload),
  // so it is a merge source or a materialize input, never an Add/Merge
  // target.
  static FoldState MergeShards(const std::vector<FoldState>& shards);

  // Folds a later increment into this state (the controller's per-epoch
  // fold): per-flow bytes and counts sum, and a FlowList item is kept on
  // its first occurrence with the smaller id.  Epochs fold in order and
  // a pair's ids ascend within its shard, so the first occurrence
  // normally carries the minimum; the minimum is kept regardless.
  void Merge(const FoldState& increment);

  // True when there is nothing to ship.  A count whose matches were all
  // zero-byte, zero-packet records is empty, like no match at all.
  bool empty() const {
    return flows.empty() && flow_items.empty() && count == CountSummary{};
  }

  // Fold updates this state carries: one per flow or FlowList item, and
  // one for a nonzero count.
  size_t size() const {
    return flows.size() + flow_items.size() + (count == CountSummary{} ? 0 : 1);
  }

  // Bytes this state occupies on the wire as a `kind` payload.
  size_t SerializedSize(StandingQuerySpec::Kind kind) const;

  // A copy of what materialization reads, without the indexes.
  FoldState WithoutIndex() const;

  // Equal contents in equal order; the indexes are derived, so they are
  // not compared.
  friend bool operator==(const FoldState& a, const FoldState& b) {
    return a.flows == b.flows && a.flow_items == b.flow_items && a.count == b.count;
  }

 private:
  // An open-addressed index over `flows` or `flow_items`: a power-of-two
  // table of 32-bit slots, each 0 (empty) or 1 + an entry's position,
  // probed linearly from the top bits of the entry's hash (the flows of
  // one TIB shard share FiveTupleHash % shard count, so the low bits
  // cluster).  Entries are only appended, so no slot is ever cleared.
  // The table stays at most half full and is rebuilt from the entries'
  // hashes when it grows.  Slots hold positions, not pointers, so a
  // copied FoldState's index finds the copy's entries.
  class Index {
   public:
    // Returns the position of the entry with hash `hash` for which
    // `matches(position)` holds; otherwise claims a slot for position
    // `size` (the entry count), which the caller then appends, and
    // returns `size`.  `hash_of(position)` rehashes an entry on growth.
    template <typename Matches, typename HashOf>
    size_t FindOrInsert(uint64_t hash, size_t size, const Matches& matches,
                        const HashOf& hash_of) {
      if (2 * (size + 1) > slots_.size()) {
        Grow(size, hash_of);
      }
      const size_t mask = slots_.size() - 1;
      for (size_t i = size_t(hash >> shift_);; i = (i + 1) & mask) {
        const uint32_t slot = slots_[i];
        if (slot == 0) {
          slots_[i] = uint32_t(size + 1);
          return size;
        }
        if (matches(size_t(slot - 1))) {
          return size_t(slot - 1);
        }
      }
    }

   private:
    // Resizes for one more than `size` entries and re-inserts positions
    // 0..size-1, which are distinct, so no equality check is needed.
    template <typename HashOf>
    void Grow(size_t size, const HashOf& hash_of) {
      size_t capacity = std::max<size_t>(16, slots_.size());
      while (2 * (size + 1) > capacity) {
        capacity *= 2;
      }
      // At most 2^31 entries, so every 1 + position fits a slot.
      if (capacity > (size_t(1) << 32)) {
        throw std::length_error("FoldState index: more than 2^31 entries");
      }
      slots_.assign(capacity, 0);
      shift_ = 64 - unsigned(std::countr_zero(capacity));
      const size_t mask = capacity - 1;
      for (size_t pos = 0; pos < size; ++pos) {
        size_t i = size_t(uint64_t(hash_of(pos)) >> shift_);
        while (slots_[i] != 0) {
          i = (i + 1) & mask;
        }
        slots_[i] = uint32_t(pos + 1);
      }
    }

    std::vector<uint32_t> slots_;
    unsigned shift_ = 0;  // 64 - log2(slots_.size())
  };

  static uint64_t ItemHash(const FlowItem& item) {
    return item.path.HashKey(FiveTupleHash{}(item.flow));
  }

  void AddFlowSum(const FiveTuple& flow, uint64_t bytes) {
    const size_t pos = flow_index_.FindOrInsert(
        FiveTupleHash{}(flow), flows.size(), [&](size_t i) { return flows[i].flow == flow; },
        [this](size_t i) { return FiveTupleHash{}(flows[i].flow); });
    if (pos == flows.size()) {
      flows.push_back(FlowSum{flow, bytes});
    } else {
      flows[pos].bytes += bytes;
    }
  }
  // kFlowList: first-occurrence dedup of (flow, path), keeping the
  // smaller id.
  void AddFlowItem(const FlowItem& item);

  // Over flows, keyed by FiveTupleHash.
  Index flow_index_;
  // Over flow_items, keyed by the path hash seeded by the flow's hash.
  // The hash only places an item; equality is exact, so a 64-bit
  // collision cannot change the answer.
  Index item_index_;
};

// Materializes one host's result from its fold state (a poll's merged
// scan or a subscription's folded deltas).
QueryResult MaterializeStandingResult(const StandingQuerySpec& spec, const FoldState& state);

// One epoch's increment from one host, shipped over the subscription
// channel.  Epochs are 1-based and contiguous per (subscription, host);
// empty increments (FoldState::empty) ship nothing and consume no epoch
// number, so per-epoch wire cost scales with the delta, not with the TIB.
struct QueryDelta {
  uint64_t subscription_id = 0;
  HostId host = kInvalidNode;
  // The subscription's kind, stamped by the accumulator.  Redundant with
  // the manager's own spec for in-process delivery, but load-bearing on
  // the wire (src/transport/wire.cc): the frame decoder picks the payload
  // layout from this byte instead of guessing from content.
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
  FoldState payload;

  // Bytes on the wire: the payload plus the subscription/host/epoch
  // framing (8 + 4 + 8, padded to 24 like fixed fields elsewhere).
  size_t SerializedSize() const { return 24 + payload.SerializedSize(kind); }

  friend bool operator==(const QueryDelta&, const QueryDelta&) = default;
};

// A poll: evaluates `spec` over the TIB's retained records.  One scan
// task per shard (on the TIB's scan pool when set) filters and folds
// under that shard's shared lock; a flow picks its shard, so the
// per-shard states are key-disjoint and merge by concatenation or
// summation (FoldState::MergeShards) before the shared materialize.
// A flow-keyed spec folds only that flow's records, in id order, under
// its one shard's shared lock (Tib::ForEachRecordOfFlow), into one
// state with no scan task and no merge.  Byte-identical at any shard
// and worker count, and to a subscription's materialized result over
// the same records.
QueryResult PollTib(const Tib& tib, const StandingQuerySpec& spec);

// The per-agent accumulator: one FoldState partial per TIB shard,
// updated by a Tib insert hook under that shard's lock, drained by
// TakeDelta on epoch ticks.  Construction installs the hook;
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
  // lock at a time), merges them (FoldState::MergeShards), and returns
  // the epoch-stamped delta — or nullopt if the increment is empty (no
  // epoch number is consumed).  Thread-safe; cost is O(delta).
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
  // Runs under the owning shard's lock, inside Tib::Insert.
  void OnInsert(size_t shard_index, uint64_t record_id, const TibRecord& rec);
  // Takes every shard's partial under that shard's exclusive lock, one
  // shard at a time — swapped out as is (rescan = false, TakeDelta), or
  // discarded and re-derived from the shard's stored records through
  // the same filter and fold (rescan = true, TakeSnapshot) — and merges
  // them into a delta stamped with subscription, host and kind (not
  // epoch).  Caller holds tick_mu_.
  QueryDelta Drain(bool rescan);

  const uint64_t subscription_id_;
  const HostId host_;
  const StandingQuerySpec spec_;
  Tib* const tib_;
  int hook_id_ = -1;

  // partial_[s] is guarded by TIB shard s's lock (writes from OnInsert
  // and swaps from TakeDelta both hold it).
  std::vector<FoldState> partial_;
  // Serializes concurrent epoch ticks; ordered before shard locks.
  std::mutex tick_mu_;
  uint64_t next_epoch_ = 1;  // guarded by tick_mu_
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_STANDING_QUERY_H_
