// The three benchmark workloads behind one interface.  The main program
// (main.cc) generates every workload's inputs from the seed before any
// clock starts, sets each up (timing the set-up, which ends with a warm-up
// to stationary state), then interleaves short measuring slices of all
// three so each one's samples span the whole run.  See
// perfbench/README.md for what each workload loads and why.

#ifndef PATHDUMP_PERFBENCH_WORKLOADS_H_
#define PATHDUMP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "perfbench/harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // What Generate produced, for the fingerprint line.
  virtual const char* inputs() const = 0;

  // Generates all inputs from `seed` and fingerprints them.  Untimed.
  virtual void Generate(uint64_t seed, Fingerprint& fp) = 0;
  // Builds the system and warms it up until its state is stationary,
  // tearing down any earlier build first.  Timed by the caller.
  virtual void SetUp(PhaseResult& out) = 0;
  // Runs checked operations for about `seconds`, keeping their samples.
  virtual void Measure(double seconds, PhaseResult& out) = 0;
  // Tops the samples up to what the reported percentiles need, then puts
  // the end-to-end metrics in out.e2e and the untraced diagnostics
  // (stationarity, tail percentiles without a bound) in out.layer.
  virtual void Report(PhaseResult& out) = 0;
  // A traced pass of about `seconds`: per-layer metrics into out.layer.
  virtual void Trace(double seconds, SpanLog& spans, PhaseResult& out) = 0;
  // End-of-run correctness gates and teardown.
  virtual void Finish(PhaseResult& out) = 0;
};

std::unique_ptr<Workload> MakeEdgeIngest();
std::unique_ptr<Workload> MakeFleetPoll();
std::unique_ptr<Workload> MakeStandingEpochs();

// Relative slowdown of a traced pass, in percent of the untraced value.
inline double OverheadPct(double untraced, double traced, bool higher_is_better) {
  if (untraced == 0) {
    return 0;
  }
  return (higher_is_better ? untraced - traced : traced - untraced) / untraced * 100.0;
}

// First and second half of a sample sequence, in the order taken.
inline std::vector<double> FirstHalf(const std::vector<double>& v) {
  return {v.begin(), v.begin() + ptrdiff_t(v.size() / 2)};
}
inline std::vector<double> SecondHalf(const std::vector<double>& v) {
  return {v.begin() + ptrdiff_t(v.size() / 2), v.end()};
}

}  // namespace perfbench

#endif  // PATHDUMP_PERFBENCH_WORKLOADS_H_
