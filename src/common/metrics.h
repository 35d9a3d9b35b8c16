// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms, with one mergeable/diff-able snapshot covering the
// whole system.
//
// Every event is written once, through one of two paths:
//
//   handles — Counter*/Gauge*/LatencyHistogram* resolved once
//     (MetricsRegistry::Global().GetCounter("tib.inserts")) and bumped
//     with a single relaxed atomic op, for counts no component keeps
//     itself ("tib.inserts", "standing.*", "wire.*", every histogram).
//   sources — a MetricsSource member of a component whose stats struct
//     already holds the count (SubscriptionManagerStats, TransportStats,
//     ...).  Snapshot() calls its report, which adds the instance's
//     current values under registry names; the hot path pays nothing.
//
// MetricsRegistry::Global().Snapshot() is a consistent-enough
// point-in-time copy of both; snapshots Diff() against an earlier one
// (interval counters) and Merge() across processes, and export as
// aligned text or JSON.
//
// Naming convention: "<subsystem>.<metric>", e.g. "tib.inserts",
// "sub.deltas_folded", "transport.frames", "alarm.delivered".  Latency
// histograms end in "_us" and record microseconds.
//
// Instance views vs registry totals: a stats struct is the exact view of
// one instance; a registry name sums every instance in the process.  A
// destroyed source's final counters fold into a retired total, so
// counters stay monotone and Diff() never underflows; its gauges drop
// out, so a gauge is the level of the live instances.  Tests diff two
// snapshots rather than reading absolutes.
//
// Cost contract (the bench_transport overhead gate holds this to <3% on
// the epoch pipeline):
//  * Counter::Add / Gauge::Set — one relaxed atomic RMW/store.
//  * LatencyHistogram::Record — one relaxed RMW on a thread-sharded
//    bucket (threads hash to one of kShards cache-line-padded shards, so
//    concurrent recorders almost never contend on a line).
//  * MetricsRegistry::SetEnabled(false) makes every handle record path
//    one relaxed load + branch.  Sources are not gated: they report
//    correctness counters their component keeps anyway.
//
// Thread safety: registration takes a mutex (cold path, once per
// component); handles are stable for the process lifetime (node-based
// map, never erased).  Recording and Snapshot() are lock-free on the
// handle values themselves.

#ifndef PATHDUMP_SRC_COMMON_METRICS_H_
#define PATHDUMP_SRC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pathdump {

namespace metrics_internal {
// Global runtime enable flag (see MetricsRegistry::SetEnabled).  A plain
// relaxed load on every record path; defaults to on.
inline std::atomic<bool> g_enabled{true};
inline bool Enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}
// Stable small id for the calling thread, used to pick histogram shards
// and label trace spans.  Dense (0, 1, 2, ...) in thread-creation order.
uint32_t ThreadIndex();
}  // namespace metrics_internal

// Monotonically increasing event count.  Handles are obtained from the
// registry and remain valid for the process lifetime.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (metrics_internal::Enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
};

// Instantaneous signed level (queue depth, live peers, ...).
class Gauge {
 public:
  void Set(int64_t v) {
    if (metrics_internal::Enabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t n) {
    if (metrics_internal::Enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

// Log-bucketed latency histogram: sample x lands in bucket
// bit_width(x) (i.e. bucket b covers [2^(b-1), 2^b)), so 48 buckets span
// sub-microsecond to ~3 days at fixed 2x resolution.  Recording is
// thread-sharded: each thread hashes to one of kShards cache-line-padded
// shard arrays, so concurrent recorders touch distinct lines.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 48;
  static constexpr size_t kShards = 8;

  // Records one sample (microseconds by convention; the unit is part of
  // the metric's name).
  void Record(uint64_t sample) {
    if (!metrics_internal::Enabled()) {
      return;
    }
    Shard& s = shards_[metrics_internal::ThreadIndex() % kShards];
    s.buckets[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(sample, std::memory_order_relaxed);
  }

  static size_t BucketOf(uint64_t sample) {
    size_t b = 0;
    while (sample > 0 && b + 1 < kBuckets) {
      sample >>= 1;
      ++b;
    }
    return b;
  }
  // Upper bound (exclusive) of bucket b — the value reported for
  // percentiles that land in it.
  static uint64_t BucketUpper(size_t b) { return b == 0 ? 1 : (uint64_t(1) << b); }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_;
};

// Merged, immutable view of one histogram at snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};

  double mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
  // Value at quantile q in [0, 1]: the upper bound of the bucket holding
  // the q-th sample (2x resolution by construction).
  uint64_t Quantile(double q) const;

  friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

// Point-in-time copy of every registered metric.  Deterministically
// ordered (std::map), so two snapshots of identical state serialize
// identically — the diff/merge/export trio the benches and tests rely on.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // this - earlier, element-wise: counters/histogram buckets subtract
  // (missing keys in `earlier` count as zero), gauges keep this's level.
  // The result is "what happened between the two snapshots".
  MetricsSnapshot Diff(const MetricsSnapshot& earlier) const;
  // this + other, element-wise (gauges add) — cross-process aggregation.
  void Merge(const MetricsSnapshot& other);

  // Aligned human-readable dump; histograms print count/mean/p50/p99.
  std::string ToText() const;
  // Machine-readable dump:
  //   {"counters":{...},"gauges":{...},"histograms":{"name":
  //     {"count":N,"sum":N,"buckets":{"<upper_us>":N,...}}}}
  std::string ToJson() const;

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

class MetricsSource;

class MetricsRegistry {
 public:
  // The process-wide registry every subsystem registers into.
  static MetricsRegistry& Global();

  // Resolve-or-create by name; the returned handle is valid for the
  // process lifetime.  Two calls with the same name return the same
  // handle (this is how independent instances share a process total).
  // A name registered as one kind must not be re-requested as another.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  // Every handle, plus the retired totals, plus every live source's report.
  MetricsSnapshot Snapshot() const;

  // Runtime kill switch for every handle record path (the overhead
  // gate's "metrics off" side).  Registration and Snapshot still work.
  static void SetEnabled(bool enabled) {
    metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
  }
  static bool enabled() { return metrics_internal::Enabled(); }

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  friend class MetricsSource;

  mutable std::mutex mu_;  // guards the maps' structure, not the values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;

  // Held across report calls, so a source's destructor waits out any
  // snapshot that is reading it.  Never held together with mu_.
  mutable std::mutex sources_mu_;
  std::vector<const MetricsSource*> sources_;
  // Final counters of destroyed sources; their gauge names stay at 0.
  MetricsSnapshot retired_;
};

// One component instance's registration with the global registry (see
// "sources" above).  The report adds (+=) the instance's values into the
// snapshot it is given, since several instances report under one name.
// It runs outside the handle mutex and may take the component's own
// locks, but must not construct or destroy a MetricsSource.  Declare the
// member after everything the report reads: the destructor reads the
// final counters once more and folds them into the retired total.
class MetricsSource {
 public:
  using Report = std::function<void(MetricsSnapshot&)>;

  explicit MetricsSource(Report report);
  ~MetricsSource();

  MetricsSource(const MetricsSource&) = delete;
  MetricsSource& operator=(const MetricsSource&) = delete;

 private:
  friend class MetricsRegistry;
  const Report report_;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_COMMON_METRICS_H_
