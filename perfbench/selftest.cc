// Self-tests for the benchmark's own helpers: the percentile rule and the
// span self-time computation.  Exits non-zero on the first failed check.
//
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool Throws(const std::vector<double>& v, double p) {
  try {
    Percentile(v, p, "test");
  } catch (const InsufficientSamples&) {
    return true;
  }
  return false;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(double(i));
  }
  return v;
}

void TestPercentile() {
  // Ten samples must rank above the reported percentile.
  Check(SamplesNeeded(0.5) == 20, "median needs 20 samples");
  Check(SamplesNeeded(0.9) == 100, "p90 needs 100 samples");
  Check(SamplesNeeded(0.99) == 1000, "p99 needs 1000 samples");
  Check(Throws(Ramp(300), 0.99), "p99 from 300 samples is refused");
  Check(Throws(Ramp(999), 0.99), "p99 from 999 samples is refused");
  Check(!Throws(Ramp(1000), 0.99), "p99 from 1000 samples is reported");
  Check(Throws(Ramp(99), 0.9), "p90 from 99 samples is refused");
  Check(Throws({}, 0.5), "empty input is refused");
  // Nearest rank: ceil(p * n)-th smallest, independent of input order.
  Check(Percentile(Ramp(1000), 0.99, "t") == 990, "p99 of 1..1000 is 990");
  Check(Percentile(Ramp(100), 0.9, "t") == 90, "p90 of 1..100 is 90");
  std::vector<double> shuffled = Ramp(21);
  std::swap(shuffled[0], shuffled[20]);
  std::swap(shuffled[3], shuffled[12]);
  Check(Percentile(shuffled, 0.5, "t") == 11, "median of shuffled 1..21 is 11");
  Check(MedianOfRepeats({3, 1, 2}) == 2, "median of three repeats");
  Check(MedianOfRepeats({4, 1, 2, 3}) == 2.5, "median of four repeats");
}

void TestSelfTimes() {
  SpanLog log;
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) is clipped to [90,100).  Self = 100 - 40 - 10 = 50.
  const int64_t root = log.Add("op", 0, 100, -1, 1);
  const int64_t a = log.Add("a", 10, 30, root, 1);
  log.Add("b", 20, 50, root, 1);
  log.Add("c", 90, 120, root, 1);
  // Grandchild covers half of a: a's self = 20 - 10 = 10; the root's
  // self does not change (only direct children count).
  log.Add("d", 15, 25, a, 1);
  // A second root without children: self = duration.
  log.Add("op", 200, 260, -1, 2);
  const std::vector<int64_t> self = SelfTimes(log.spans());
  Check(self[0] == 50, "root self time subtracts the union of its children");
  Check(self[1] == 10, "child self time subtracts its own child");
  Check(self[2] == 30, "leaf self time is its duration");
  Check(self[3] == 30, "a span's own self time is not clipped by its parent");
  Check(self[5] == 60, "a childless root keeps its whole duration");
  // Unattributed share over both "op" roots: (50 + 60) / (100 + 60).
  const double share = UnattributedShare(log.spans(), self, "op");
  Check(share > 0.6874 && share < 0.6876, "unattributed share pools the roots");
  // Disjoint children leave the gaps as self time.
  SpanLog gaps;
  const int64_t r = gaps.Add("op", 0, 10, -1, 1);
  gaps.Add("x", 0, 2, r, 1);
  gaps.Add("y", 4, 6, r, 1);
  gaps.Add("z", 8, 10, r, 1);
  Check(SelfTimes(gaps.spans())[0] == 4, "gaps between children are self time");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestSelfTimes();
  if (perfbench::failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
  }
  return perfbench::failures == 0 ? 0 : 1;
}
