// Trajectory Information Base (TIB), §3.2.
//
// Each end host stores per-path flow records: one record per (flow ID,
// end-to-end path) pair with byte/packet counts and first/last timestamps.
// The paper backs this with MongoDB; here it is an in-memory store (a
// deliberate substitution documented in DESIGN.md) sharded by flow hash:
// `FiveTupleHash(flow) % num_shards` picks the shard, and each shard owns
// its own record column, by-flow index, and reader/writer lock.  Inserts
// and per-flow lookups (ForEachRecordOfFlow, which flow-keyed polls use)
// therefore touch exactly one shard, while full scans (the polls of
// src/edge/standing_query.h, through CollectShardPartials) fan out
// shard-parallel over an optional ThreadPool and merge per-shard
// partials with a deterministic ordered reduce.  All other lookups are scans — mirroring the document-store
// access pattern, and keeping a 240 K-record TIB around the ~110 MB the
// paper reports (ours is far smaller per record).
//
// Bounded memory (epoch-windowed eviction): each shard's record column is
// a ring of epoch-stamped segments.  Inserts append to the shard's open
// segment; SealEpoch() (driven by EdgeAgent::EpochTick at every epoch
// boundary) stamps the open segments with the current epoch number and
// seals them.  When TibOptions::max_memory_bytes is set, the oldest
// sealed epochs are retired WHOLE — no per-record tombstones — until the
// accounted resident size is back under the ceiling; retirement prunes
// the by-flow index entries of the dropped segments and is O(segments)
// per shard-lock hold plus O(evicted records) of index pruning.  The
// default (0) is unbounded — seed behavior, nothing is ever evicted and
// sealing only partitions the columns.  Queries then cover the RETAINED
// window only; standing-query accumulators fold a record's contribution
// at insert time, before its segment can retire, so standing results stay
// exact while polls become window-scoped (docs/ARCHITECTURE.md).
//
// Thread safety: every public method synchronizes internally; no external
// lock is needed.  Lock hierarchy: seal_mu_ (SealEpoch / ceiling
// enforcement / bulk mutations) is ordered before shard locks; shard
// locks are only ever acquired in ascending shard-index order (whole-TIB
// walks) or one at a time (inserts, per-flow lookups, parallel scan
// tasks, seal/retire passes), and the TIB never calls out to user code
// while holding a shard lock except through the explicitly documented
// visitor APIs.
//
// Determinism: every record carries a global insertion id (dense
// 0..size()-1 when inserts are single-threaded, a linearization otherwise).
// Index-returning queries yield ids in ascending order and whole-TIB walks
// visit records in id order, so query results, snapshots, and the on-disk
// file are byte-identical at any shard count and any scan-pool width —
// and, under eviction, identical to a fresh TIB holding only the retained
// records (ids keep their original values over the retained window).
// Eviction itself is deterministic: the same inserts, the same seal
// points, and the same ceiling retire the same epochs in any process —
// the cross-process chaos harness relies on bounded in-test twins
// evicting in lockstep with bounded workers.

#ifndef PATHDUMP_SRC_EDGE_TIB_H_
#define PATHDUMP_SRC_EDGE_TIB_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/types.h"

namespace pathdump {

class ThreadPool;

// Fixed-capacity inline path: decoded datacenter trajectories have at most
// 7 switches (6-hop detour); 8 leaves headroom for custom topologies.
struct CompactPath {
  static constexpr int kMaxSwitches = 8;

  uint8_t len = 0;
  std::array<SwitchId, kMaxSwitches> sw = {};

  static CompactPath FromPath(const Path& p);
  Path ToPath() const;

  bool ContainsSwitch(SwitchId s) const;
  // True if the ordered pair (a, b) appears as consecutive switches.
  bool ContainsDirectedLink(NodeId a, NodeId b) const {
    for (int i = 0; i + 1 < len; ++i) {
      if (sw[size_t(i)] == a && sw[size_t(i) + 1] == b) {
        return true;
      }
    }
    return false;
  }
  // True if the record's path matches a (possibly wildcarded) LinkId:
  // kInvalidNode on either side matches any switch in that position.
  // Defined here so the per-record filter of every scan inlines it.
  bool MatchesLinkQuery(const LinkId& q) const {
    const bool src_any = q.src == kInvalidNode;
    const bool dst_any = q.dst == kInvalidNode;
    if (src_any && dst_any) {
      return true;
    }
    if (src_any) {
      // (<?, Sj>): any link entering q.dst — q.dst appears with a predecessor.
      for (int i = 1; i < len; ++i) {
        if (sw[size_t(i)] == q.dst) {
          return true;
        }
      }
      return false;
    }
    if (dst_any) {
      for (int i = 0; i + 1 < len; ++i) {
        if (sw[size_t(i)] == q.src) {
          return true;
        }
      }
      return false;
    }
    return ContainsDirectedLink(q.src, q.dst);
  }

  // Folds the path's switches into `seed` — where the FlowList item
  // index places a (flow, path) pair.  Only a placement hash: exact
  // equality decides a match, so a 64-bit collision merges nothing.
  uint64_t HashKey(uint64_t seed = 0) const {
    for (int i = 0; i < len; ++i) {
      seed = HashCombine(seed, sw[size_t(i)]);
    }
    return seed;
  }

  friend bool operator==(const CompactPath& a, const CompactPath& b) {
    if (a.len != b.len) {
      return false;
    }
    for (int i = 0; i < a.len; ++i) {
      if (a.sw[size_t(i)] != b.sw[size_t(i)]) {
        return false;
      }
    }
    return true;
  }
};

// One TIB row: <flow ID, path, stime, etime, #bytes, #pkts> (Fig. 2).
struct TibRecord {
  FiveTuple flow;
  CompactPath path;
  SimTime stime = 0;
  SimTime etime = 0;
  uint64_t bytes = 0;
  uint32_t pkts = 0;

  bool Overlaps(const TimeRange& r) const { return r.Overlaps(stime, etime); }

  friend bool operator==(const TibRecord&, const TibRecord&) = default;
};

struct TibOptions {
  // Maintain the by-flow index (needed for fast getPaths/getCount; the
  // large-scale query benches disable it to bound memory).
  bool index_by_flow = true;
  // Flow-hash shards; 0 means one per hardware thread (min 1).  Query
  // results are byte-identical at any shard count — this knob only trades
  // insert/scan parallelism against per-shard overhead.
  size_t num_shards = 0;
  // Resident-memory ceiling, in accounted bytes (TibMemoryStats::
  // resident_bytes — a fixed per-record cost, not an allocator audit), for
  // the segmented record columns.  0 (the default) is unbounded — seed
  // behavior, nothing is ever evicted.  When set, the oldest SEALED
  // epochs are retired whole until resident bytes drop back under the
  // ceiling; enforcement runs at every SealEpoch and opportunistically
  // from Insert the moment the ceiling is crossed, so the resident level
  // only ever overshoots transiently (by in-flight inserts) or when no
  // sealed segment remains to retire (the open epoch alone exceeds the
  // ceiling — size epochs accordingly).
  size_t max_memory_bytes = 0;
};

// Point-in-time accounting of one Tib's segmented store.  Exact per
// instance (the registry gauge tib.bytes_resident sums resident_bytes
// over live instances; tib.segments_retired / tib.evicted_records are
// process-wide totals); retained_records == inserted_records -
// evicted_records always.
struct TibMemoryStats {
  size_t resident_bytes = 0;       // accounted bytes over retained records
  size_t retained_records = 0;     // records currently queryable
  uint64_t inserted_records = 0;   // since construction / Clear / LoadFrom
  uint64_t evicted_records = 0;
  uint64_t segments_retired = 0;
  uint64_t epochs_sealed = 0;
  uint64_t current_epoch = 0;      // epoch the open segments will seal as
  uint64_t oldest_retained_epoch = 0;  // 0 = no sealed segment retained
  size_t segment_count = 0;        // retained segments, summed over shards
};

class Tib {
 public:
  // Hard cap on shards; beyond this, per-shard overhead dwarfs any win.
  static constexpr size_t kMaxShards = 256;

  explicit Tib(TibOptions options = {});

  Tib(const Tib&) = delete;
  Tib& operator=(const Tib&) = delete;

  // Locks exactly the owning shard.
  void Insert(const TibRecord& rec);

  size_t size() const { return count_.load(std::memory_order_acquire); }
  size_t shard_count() const { return shards_.size(); }

  // Seals every shard's open segment as the current epoch (exclusive
  // shard locks, ascending, one at a time), advances the epoch counter,
  // then enforces max_memory_bytes by retiring the oldest sealed epochs
  // whole.  EdgeAgent::EpochTick calls this at every epoch boundary,
  // AFTER ticking standing registrations, so a segment's contribution is
  // always folded into accumulator partials before it can retire.
  void SealEpoch();

  // Accounted resident bytes (this instance).  See TibMemoryStats.
  size_t bytes_resident() const { return resident_bytes_.load(std::memory_order_acquire); }
  TibMemoryStats MemoryStats() const;

  // Record by global insertion id (a copy — the backing row may move as
  // its shard grows).  A typed miss (nullopt) for an unknown id —
  // including an id whose segment has been retired; evicted rows are
  // never reported as a (stale or default-constructed) hit.
  std::optional<TibRecord> record(size_t id) const;

  // Locked snapshot of all records, in insertion-id order.
  std::vector<TibRecord> records() const;

  // Sequential whole-TIB visitor in insertion-id order.  All shard locks
  // are held (shared) for the duration; fn must not call back into this
  // Tib's mutating API, nor block on any lock ordered after shard locks
  // (e.g. an EdgeAgent method that takes the agent lock — a concurrent
  // GetPathsLive holds that lock while waiting on a shard, and a queued
  // writer can close the cycle on writer-preferring shared_mutexes).
  void ForEachRecord(const std::function<void(size_t id, const TibRecord& rec)>& fn) const;

  // Unordered whole-TIB visitor for commutative aggregation: one shard
  // locked (shared) at a time, so inserts into other shards proceed
  // during the walk, and no merge machinery runs.  Record order is
  // unspecified; the callback restrictions of ForEachRecord apply.
  void ForEachRecordUnordered(const std::function<void(const TibRecord& rec)>& fn) const;

  // Ids of records for this exact 5-tuple overlapping the range, ascending.
  // Touches exactly one shard (even without the by-flow index).
  std::vector<size_t> RecordsOfFlow(const FiveTuple& flow, const TimeRange& range) const;

  // Visitor over one flow's records in id order, under that single shard's
  // shared lock; the callback restrictions of ForEachRecord apply.
  // Returns true iff the flow has at least one RETAINED record (the range
  // may still filter every callback out); false is the typed miss for a
  // flow that was never inserted or whose records have all been evicted.
  bool ForEachRecordOfFlow(const FiveTuple& flow, const TimeRange& range,
                           const std::function<void(size_t id, const TibRecord& rec)>& fn) const;

  // The shard-parallel scan primitive: one Acc per shard, filled by
  // visit(acc, id, rec) for every retained record of that shard in
  // ascending id order under the shard's shared lock (one scan task per
  // shard on the scan pool when set, else sequential), returned in shard
  // order for the caller's deterministic reduce.  A flow picks its shard,
  // so per-flow state in different Accs is key-disjoint.  The callback
  // restrictions of ForEachRecord apply; visits of different shards may
  // run concurrently.
  template <typename Acc, typename Visit>
  std::vector<Acc> CollectShardPartials(Visit&& visit) const {
    std::vector<Acc> partial(shards_.size());
    ForEachShardParallel([&](size_t si) {
      const Shard& s = *shards_[si];
      std::shared_lock<std::shared_mutex> lock(s.mu);
      s.ForEachStored([&](uint64_t id, const TibRecord& rec) { visit(partial[si], id, rec); });
    });
    return partial;
  }

  // Non-owning pool used by the shard-parallel scans above; nullptr (the
  // default) scans shards sequentially on the calling thread.
  void SetScanPool(ThreadPool* pool) { scan_pool_.store(pool, std::memory_order_release); }

  // --- Insert hooks (the standing-query attachment point) ---
  //
  // An insert hook runs inside Insert, under the owning shard's exclusive
  // lock, after the record is stored.  That placement is the whole point:
  // a per-shard incremental accumulator updated here needs no lock of its
  // own — the shard lock that already serializes inserts to the shard
  // also serializes updates to that shard's partial.  The hook receives
  // the record's global insertion id (the determinism anchor of FlowList
  // deltas — see FoldState in src/edge/standing_query.h).  Hooks must be
  // cheap and must not call back into this Tib (the shard lock is held)
  // nor take any lock ordered before shard locks.
  //
  // Registration swaps the hook table while holding EVERY shard lock
  // exclusively, so (a) Insert reads the table under its shard lock with
  // no extra synchronization, and (b) once RemoveInsertHook returns, no
  // invocation of the removed hook is running or will run — the
  // unsubscribe-mid-epoch guarantee.  Bulk mutations (LoadFrom, Clear)
  // bypass hooks; attach standing state after loading, not before.
  using InsertHook =
      std::function<void(size_t shard_index, uint64_t record_id, const TibRecord& rec)>;
  int AddInsertHook(InsertHook hook);
  void RemoveInsertHook(int id);
  size_t insert_hook_count() const;

  // Runs fn(shard_index) under that shard's exclusive lock, one shard at
  // a time in ascending order — the epoch-snapshot primitive: swapping
  // out a per-shard partial here cannot race the inserts that fill it.
  // Each record lands in exactly one snapshot (the cut need not be a
  // single point in time across shards; per-flow sums make any cut
  // consistent).  The callback restrictions of ForEachRecord apply.
  void ForEachShardExclusive(const std::function<void(size_t shard_index)>& fn) const;

  // ForEachShardExclusive plus a scan of the shard's stored records in
  // the same lock hold: for each shard (ascending), `on_shard` runs
  // first, then `on_record` for every record in that shard in ascending
  // insertion-id order, all under the shard's exclusive lock.  This is
  // the resync-snapshot primitive (standing_query.cc): clearing a
  // per-shard partial and re-scanning the shard in ONE lock hold makes
  // the pair atomic against inserts, so a record is observed by exactly
  // one of {snapshot scan, post-clear partial}.  Callback restrictions
  // of ForEachRecord apply; cost is O(records) — resync only.
  void ForEachShardRecordExclusive(
      const std::function<void(size_t shard_index)>& on_shard,
      const std::function<void(size_t shard_index, uint64_t record_id, const TibRecord& rec)>&
          on_record) const;

  // Rough resident size, for the §5.3 storage numbers.
  size_t ApproxBytes() const;

  // Persists the RETAINED records to a binary file (fixed-size rows +
  // header — the seed v1 format; under eviction only retained segments
  // are written, so the file is exactly what a window-scoped scan sees),
  // the stand-in for the paper's MongoDB on-disk store; returns bytes
  // written (0 on failure).  Rows are written in insertion-id order, so
  // the file bytes are independent of the shard count.  Load replaces the
  // current contents with one open segment per shard (records get fresh
  // dense ids 0..n-1 regardless of the shard counts on either side) and
  // resets the epoch counter and lifetime tallies; returns records read
  // or -1 on failure/corruption (including a truncated row tail).
  size_t SaveTo(const std::string& path) const;
  int64_t LoadFrom(const std::string& path);

  void Clear();

 private:
  // One epoch window of a shard's record column.  Sealed segments are
  // immutable (their rows never change and they only ever leave whole);
  // the back segment, while unsealed, is the open segment Insert appends
  // to.  A segment is created lazily on the first insert after a seal, so
  // empty segments never exist.
  struct Segment {
    uint64_t epoch = 0;  // stamped at seal; meaningless while open
    bool sealed = false;
    std::vector<TibRecord> records;
    // Global insertion ids, parallel to `records`; strictly ascending
    // across the whole shard (ids are assigned under the shard lock).
    std::vector<uint64_t> ids;
  };

  struct Shard {
    mutable std::shared_mutex mu;
    // Oldest first.  base_seq is the monotone sequence number of
    // segments.front() — it only ever increments (on retire), so a packed
    // by_flow ref stays resolvable across retirements: deque index =
    // (ref >> 32) - base_seq.
    std::deque<Segment> segments;
    uint64_t base_seq = 0;
    // Flow -> packed (segment_seq << 32 | slot) refs, ascending.  Retire
    // prunes exactly the prefix whose seq matches the retiring segment.
    std::unordered_map<FiveTuple, std::vector<uint64_t>, FiveTupleHash> by_flow;

    // Retained records in ascending-id order (segments oldest-first, rows
    // in insert order).  Caller holds mu.
    template <typename Fn>
    void ForEachStored(Fn&& fn) const {
      for (const Segment& seg : segments) {
        for (size_t i = 0; i < seg.records.size(); ++i) {
          fn(seg.ids[i], seg.records[i]);
        }
      }
    }
  };

  size_t ShardOf(const FiveTuple& flow) const {
    return FiveTupleHash{}(flow) % shards_.size();
  }

  // Accounted bytes per retained record: row + id column + (when indexed)
  // one packed ref plus amortized hash overhead.  An accounting model, not
  // an allocator audit — but a pure function of the build, so a bounded
  // in-test twin evicts in lockstep with a bounded worker process fed the
  // same inserts and seal points (the chaos interplay test relies on it).
  size_t PerRecordBytes() const {
    return sizeof(TibRecord) + sizeof(uint64_t) +
           (options_.index_by_flow ? sizeof(uint64_t) + 16 : 0);
  }

  // Retires shard's front (sealed) segment: prunes its by_flow refs,
  // updates counters and the resident gauge.  Caller holds s.mu
  // exclusively (and seal_mu_).
  void RetireFrontLocked(Shard& s);
  // Retires oldest sealed epochs (globally, oldest epoch first, whole
  // epochs at a time) while resident bytes exceed the ceiling.  Caller
  // holds seal_mu_ and NO shard lock.
  void EnforceCeilingLocked();
  // Opportunistic enforcement from Insert: try-locks seal_mu_ so
  // concurrent inserters never convoy behind one retirement pass.
  void TryEnforceCeiling();

  // Runs fn(shard_index) for every shard — on the scan pool when one is
  // set, else inline.  fn takes its own shard lock.
  void ForEachShardParallel(const std::function<void(size_t shard_index)>& fn) const;

  TibOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Written only while holding every shard lock exclusively; read under
  // any single shard lock (Insert) — no separate mutex needed, and no
  // new lock hierarchy.
  std::vector<std::pair<int, InsertHook>> insert_hooks_;
  int next_insert_hook_id_ = 1;
  // Ids issued vs records stored: they differ only if an Insert rolled
  // back on an allocation failure (ids may gap; size() must not).
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<ThreadPool*> scan_pool_{nullptr};
  // Serializes SealEpoch / ceiling enforcement / bulk mutations against
  // each other.  Ordered BEFORE shard locks; never acquired while a shard
  // lock is held.
  std::mutex seal_mu_;
  std::atomic<uint64_t> current_epoch_{1};
  std::atomic<size_t> resident_bytes_{0};
  // Lifetime tallies since construction / Clear / LoadFrom (exact:
  // retained == inserted - evicted, the invariant the enforcement test
  // asserts).
  std::atomic<uint64_t> inserted_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> segments_retired_{0};
  std::atomic<uint64_t> epochs_sealed_{0};
  // Reports resident_bytes_ as the "tib.bytes_resident" gauge.  The
  // tallies above stay registry handles ("tib.segments_retired",
  // "tib.evicted_records", "tib.epochs_sealed"): Clear and LoadFrom reset
  // them, and a counter pulled from them would go backwards.
  MetricsSource metrics_;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_TIB_H_
