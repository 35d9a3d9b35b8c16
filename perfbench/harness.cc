#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples.
size_t RankOf(double p, size_t n) {
  size_t rank = size_t(std::ceil(p * double(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesNeeded(double p) {
  size_t n = 1;
  while (n - RankOf(p, n) < kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

double Percentile(std::vector<double> samples, double p, const std::string& what) {
  const size_t n = samples.size();
  if (n == 0 || n - RankOf(p, n) < kMinSamplesBeyond) {
    char msg[160];
    std::snprintf(msg, sizeof(msg), "%s: p%g needs at least %zu samples, have %zu", what.c_str(),
                  p * 100, SamplesNeeded(p), n);
    throw InsufficientSamples(msg);
  }
  const size_t idx = RankOf(p, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + ptrdiff_t(idx), samples.end());
  return samples[idx];
}

double MedianOfRepeats(std::vector<double> repeats) {
  if (repeats.empty()) {
    return 0;
  }
  std::sort(repeats.begin(), repeats.end());
  const size_t n = repeats.size();
  return n % 2 == 1 ? repeats[n / 2] : (repeats[n / 2 - 1] + repeats[n / 2]) / 2;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && size_t(p) < spans.size()) {
      children[size_t(p)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    cover.clear();
    for (size_t c : children[i]) {
      const int64_t a = std::max(lo, spans[c].start_ns);
      const int64_t b = std::min(hi, spans[c].end_ns);
      if (a < b) {
        cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) {
        covered += run_b - run_a;
      }
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) {
      covered += run_b - run_a;
    }
    self[i] = std::max<int64_t>(0, hi - lo) - covered;
  }
  return self;
}

double UnattributedShare(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                         const std::string& root_name) {
  double self_sum = 0, dur_sum = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == -1 && root_name == spans[i].name) {
      self_sum += double(self[i]);
      dur_sum += double(spans[i].end_ns - spans[i].start_ns);
    }
  }
  return dur_sum > 0 ? self_sum / dur_sum : 0;
}

double MedianSelfUs(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                    const std::string& name) {
  std::vector<double> us;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) {
      us.push_back(double(self[i]) / 1e3);
    }
  }
  return Median(std::move(us), "self time of " + name);
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::fprintf(f, "name,start_ns,end_ns,parent,op,self_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu,%lld\n", s.name, (long long)s.start_ns,
                 (long long)s.end_ns, (long long)s.parent, (unsigned long long)s.op,
                 (long long)self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
