#include "src/common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace pathdump {

namespace metrics_internal {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace metrics_internal

namespace {

void AppendJsonKey(std::string& out, const std::string& key) {
  // Metric names are plain identifiers with dots — no escaping needed
  // beyond quoting (enforced by convention, cheap to keep honest here).
  out += '"';
  for (char c : key) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

}  // namespace

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based, matching the "value at quantile"
  // convention of stats.h's Cdf.
  uint64_t rank = uint64_t(q * double(count - 1)) + 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return LatencyHistogram::BucketUpper(b);
    }
  }
  return LatencyHistogram::BucketUpper(buckets.size() - 1);
}

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [name, v] : counters) {
    auto it = earlier.counters.find(name);
    out.counters[name] = v - (it == earlier.counters.end() ? 0 : it->second);
  }
  // Gauges are levels, not rates: the later level is the diff's value.
  out.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    HistogramSnapshot d = h;
    auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (size_t b = 0; b < d.buckets.size(); ++b) {
        d.buckets[b] -= it->second.buckets[b];
      }
    }
    out.histograms[name] = d;
  }
  return out;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) {
    counters[name] += v;
  }
  for (const auto& [name, v] : other.gauges) {
    gauges[name] += v;
  }
  for (const auto& [name, h] : other.histograms) {
    HistogramSnapshot& mine = histograms[name];
    mine.count += h.count;
    mine.sum += h.sum;
    for (size_t b = 0; b < mine.buckets.size(); ++b) {
      mine.buckets[b] += h.buckets[b];
    }
  }
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char line[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof(line), "%-40s %20" PRIu64 "\n", name.c_str(), v);
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof(line), "%-40s %20" PRId64 "\n", name.c_str(), v);
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "%-40s count=%-10" PRIu64 " mean=%-10.1f p50=%-8" PRIu64 " p99=%" PRIu64 "\n",
                  name.c_str(), h.count, h.mean(), h.Quantile(0.50), h.Quantile(0.99));
    out += line;
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char num[64];
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(num, sizeof(num), ":%" PRIu64, v);
    out += num;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(num, sizeof(num), ":%" PRId64, v);
    out += num;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendJsonKey(out, name);
    std::snprintf(num, sizeof(num), ":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"buckets\":{",
                  h.count, h.sum);
    out += num;
    bool bfirst = true;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) {
        continue;  // sparse: empty buckets carry no information
      }
      if (!bfirst) {
        out += ',';
      }
      bfirst = false;
      std::snprintf(num, sizeof(num), "\"%" PRIu64 "\":%" PRIu64,
                    LatencyHistogram::BucketUpper(b), h.buckets[b]);
      out += num;
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      out.counters[name] = c->value();
    }
    for (const auto& [name, g] : gauges_) {
      out.gauges[name] = g->value();
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot snap;
      for (const auto& shard : h->shards_) {
        snap.count += shard.count.load(std::memory_order_relaxed);
        snap.sum += shard.sum.load(std::memory_order_relaxed);
        for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
          snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
        }
      }
      out.histograms[name] = snap;
    }
  }
  // Sources run outside mu_: a report may take a component lock under
  // which that component resolves handles.
  std::lock_guard<std::mutex> lock(sources_mu_);
  out.Merge(retired_);
  for (const MetricsSource* source : sources_) {
    source->report_(out);
  }
  return out;
}

MetricsSource::MetricsSource(Report report) : report_(std::move(report)) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.sources_mu_);
  registry.sources_.push_back(this);
}

MetricsSource::~MetricsSource() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Read and unregister under one lock, so no snapshot can see a value
  // newer than the one retired (counters stay monotone).
  std::lock_guard<std::mutex> lock(registry.sources_mu_);
  MetricsSnapshot last;
  report_(last);
  std::erase(registry.sources_, this);
  for (const auto& [name, v] : last.counters) {
    registry.retired_.counters[name] += v;
  }
  for (const auto& [name, v] : last.gauges) {
    registry.retired_.gauges.try_emplace(name, 0);
  }
}

}  // namespace pathdump
