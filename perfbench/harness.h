// Shared harness pieces of the repository benchmark: the clock, the
// percentile helper, the in-memory span log with self-time computation,
// metric maps, and the input fingerprint.  Nothing here calls into the
// pathdump library; the workloads (edge_ingest.cc, fleet_poll.cc,
// standing_epochs.cc) do.

#ifndef PATHDUMP_PERFBENCH_HARNESS_H_
#define PATHDUMP_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Percentiles ---

// A percentile is reported only with at least this many samples beyond
// it; with fewer the run fails instead of printing a guess.
inline constexpr size_t kMinSamplesBeyond = 10;

class InsufficientSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Smallest sample count that allows reporting percentile `p` (0 < p < 1).
size_t SamplesNeeded(double p);

// Nearest-rank percentile `p` (0 < p < 1) of `samples`: the value at
// 1-based rank ceil(p * n) of the sorted samples.  Throws
// InsufficientSamples when fewer than kMinSamplesBeyond samples rank
// above it.  `what` names the metric in the error.
double Percentile(std::vector<double> samples, double p, const std::string& what);

inline double Median(std::vector<double> samples, const std::string& what) {
  return Percentile(std::move(samples), 0.5, what);
}

// Plain median of a handful of repeats (e.g. set-ups), where no tail
// percentile is claimed.  0 for an empty list.
double MedianOfRepeats(std::vector<double> repeats);

// --- Spans ---

// One harness span around a call into a layer.  Spans of one operation
// share `op`; `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
};

// Spans kept in memory for one run and written out when it ends.  Used
// from the harness thread only: agent- and pool-thread timings are
// handed back to that thread before they become spans.
class SpanLog {
 public:
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent, uint64_t op) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return int64_t(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes one CSV row per span (name,start_ns,end_ns,parent,op,self_ns);
  // returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children (each clipped to the parent).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Sum of root self time over sum of root duration, for roots named
// `root_name` — the share of those operations no layer span covers.
double UnattributedShare(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                         const std::string& root_name);

// Median self time in microseconds over spans named `name`.
double MedianSelfUs(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                    const std::string& name);

// --- Metrics and results ---

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// How long a measured pass runs: until `seconds` have elapsed AND at least
// `min_ops` operations completed.  Either may be zero.
struct Budget {
  double seconds = 0;
  int64_t min_ops = 0;

  bool Done(int64_t start_ns, int64_t ops) const {
    return ops >= min_ops && double(NowNs() - start_ns) / 1e9 >= seconds;
  }
};

// What one workload hands back to the main program.
struct PhaseResult {
  MetricMap e2e;    // end-to-end metrics, from the untraced pass
  MetricMap layer;  // per-layer metrics and diagnostics
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // one line per failed check

  void Fail(uint64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
};

// --- Input fingerprint ---

// FNV-1a over generated input values, so two runs with the same seed can
// be shown to have fed identical inputs.  Takes scalars only: struct
// padding bytes are not part of an input.
class Fingerprint {
 public:
  template <typename T>
  void Add(T v) {
    static_assert(std::is_arithmetic_v<T>, "fingerprint scalar fields, not structs");
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Count(uint64_t n = 1) { count_ += n; }
  uint64_t hash() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PATHDUMP_PERFBENCH_HARNESS_H_
