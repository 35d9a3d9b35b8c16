#include "src/edge/standing_query.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

bool StandingQuerySpec::MatchesKey(const TibRecord& rec) const {
  return (!flow || rec.flow == *flow) && (!path || rec.path == *path);
}

FoldState FoldState::MergeShards(const std::vector<FoldState>& shards) {
  FoldState out;
  size_t flows = 0;
  size_t items = 0;
  for (const FoldState& s : shards) {
    flows += s.flows.size();
    items += s.flow_items.size();
  }
  out.flows.reserve(flows);
  out.flow_items.reserve(items);
  for (const FoldState& s : shards) {
    out.flows.insert(out.flows.end(), s.flows.begin(), s.flows.end());
    out.flow_items.insert(out.flow_items.end(), s.flow_items.begin(), s.flow_items.end());
    out.count.bytes += s.count.bytes;
    out.count.pkts += s.count.pkts;
  }
  return out;
}

void FoldState::Merge(const FoldState& increment) {
  for (const FlowSum& sum : increment.flows) {
    AddFlowSum(sum.flow, sum.bytes);
  }
  for (const FlowItem& item : increment.flow_items) {
    AddFlowItem(item);
  }
  count.bytes += increment.count.bytes;
  count.pkts += increment.count.pkts;
}

void FoldState::AddFlowItem(const FlowItem& item) {
  const size_t pos = item_index_.FindOrInsert(
      ItemHash(item), flow_items.size(),
      [&](size_t i) {
        return flow_items[i].flow == item.flow && flow_items[i].path == item.path;
      },
      [this](size_t i) { return ItemHash(flow_items[i]); });
  if (pos == flow_items.size()) {
    flow_items.push_back(item);
  } else {
    flow_items[pos].id = std::min(flow_items[pos].id, item.id);
  }
}

size_t FoldState::SerializedSize(StandingQuerySpec::Kind kind) const {
  switch (kind) {
    case StandingQuerySpec::Kind::kTopK:
    case StandingQuerySpec::Kind::kFlowSizeHistogram:
      return kHeaderBytes + flows.size() * kFlowBytes;
    case StandingQuerySpec::Kind::kFlowList: {
      size_t bytes = kHeaderBytes;
      for (const FlowItem& item : flow_items) {
        bytes += kFlowItemFixedBytes + 4 * size_t(item.path.len);
      }
      return bytes;
    }
    case StandingQuerySpec::Kind::kCountSummary:
      return kHeaderBytes + kCountBytes;
  }
  return kHeaderBytes;
}

FoldState FoldState::WithoutIndex() const {
  FoldState out;
  out.flows = flows;
  out.flow_items = flow_items;
  out.count = count;
  return out;
}

QueryResult MaterializeStandingResult(const StandingQuerySpec& spec, const FoldState& state) {
  switch (spec.kind) {
    case StandingQuerySpec::Kind::kTopK: {
      // Finalize() imposes a total order, so the result does not depend
      // on the order of the flows.
      TopKFlows out;
      out.k = spec.k;
      out.items.reserve(state.flows.size());
      for (const FoldState::FlowSum& sum : state.flows) {
        out.items.emplace_back(sum.bytes, sum.flow);
      }
      out.Finalize();
      return out;
    }
    case StandingQuerySpec::Kind::kFlowSizeHistogram: {
      FlowSizeHistogram h;
      h.bin_width = spec.bin_width;
      for (const FoldState::FlowSum& sum : state.flows) {
        h.bins[int64_t(sum.bytes) / spec.bin_width] += 1;
      }
      return h;
    }
    case StandingQuerySpec::Kind::kFlowList: {
      // First-appearance order across the whole TIB = ascending first id.
      using FlowItem = FoldState::FlowItem;
      std::vector<const FlowItem*> ordered;
      ordered.reserve(state.flow_items.size());
      for (const FlowItem& item : state.flow_items) {
        ordered.push_back(&item);
      }
      std::sort(ordered.begin(), ordered.end(),
                [](const FlowItem* a, const FlowItem* b) { return a->id < b->id; });
      FlowList out;
      out.flows.reserve(ordered.size());
      for (const FlowItem* item : ordered) {
        out.flows.push_back(Flow{item->flow, item->path.ToPath()});
      }
      return out;
    }
    case StandingQuerySpec::Kind::kCountSummary:
      return state.count;
  }
  return QueryResult{};
}

QueryResult PollTib(const Tib& tib, const StandingQuerySpec& spec) {
  // A flow-keyed walk yields only the key's records, so the per-record
  // filter leaves the key out: checking it would read each record's
  // 5-tuple, a cache line that a count fold never touches otherwise.
  StandingQuerySpec filter = spec;
  filter.flow.reset();
  auto fold = [&filter](FoldState& state, uint64_t id, const TibRecord& rec) {
    if (filter.Matches(rec)) {
      state.Add(filter, id, rec);
    }
  };
  if (spec.flow) {
    // One flow lives in one shard: nothing to merge.
    FoldState state;
    tib.ForEachRecordOfFlow(*spec.flow, spec.range,
                            [&](size_t id, const TibRecord& rec) { fold(state, id, rec); });
    return MaterializeStandingResult(spec, state);
  }
  return MaterializeStandingResult(
      spec, FoldState::MergeShards(tib.CollectShardPartials<FoldState>(fold)));
}

StandingQueryAccumulator::StandingQueryAccumulator(uint64_t subscription_id, HostId host,
                                                   const StandingQuerySpec& spec, Tib* tib)
    : subscription_id_(subscription_id),
      host_(host),
      spec_(spec),
      tib_(tib),
      partial_(tib->shard_count()) {
  hook_id_ = tib_->AddInsertHook([this](size_t shard_index, uint64_t record_id,
                                        const TibRecord& rec) {
    OnInsert(shard_index, record_id, rec);
  });
}

StandingQueryAccumulator::~StandingQueryAccumulator() {
  // Synchronizes with every in-flight Insert (removal takes all shard
  // locks), so after this no OnInsert call can touch the partials.
  tib_->RemoveInsertHook(hook_id_);
}

void StandingQueryAccumulator::OnInsert(size_t shard_index, uint64_t record_id,
                                        const TibRecord& rec) {
  if (spec_.Matches(rec)) {
    partial_[shard_index].Add(spec_, record_id, rec);
  }
}

QueryDelta StandingQueryAccumulator::Drain(bool rescan) {
  std::vector<FoldState> shards(partial_.size());
  if (rescan) {
    tib_->ForEachShardRecordExclusive(
        [&](size_t si) { partial_[si] = FoldState{}; },
        [&](size_t si, uint64_t record_id, const TibRecord& rec) {
          if (spec_.Matches(rec)) {
            shards[si].Add(spec_, record_id, rec);
          }
        });
  } else {
    // A swap, not a copy: the shard lock is held for O(1), and the old
    // partial (indexes included) is freed outside it.
    tib_->ForEachShardExclusive([&](size_t si) { std::swap(shards[si], partial_[si]); });
  }
  QueryDelta delta;
  delta.subscription_id = subscription_id_;
  delta.host = host_;
  delta.kind = spec_.kind;
  delta.payload = FoldState::MergeShards(shards);
  return delta;
}

std::optional<QueryDelta> StandingQueryAccumulator::TakeDelta() {
  static Counter* produced =
      MetricsRegistry::Global().GetCounter("standing.deltas_produced");
  static Counter* produced_bytes =
      MetricsRegistry::Global().GetCounter("standing.delta_bytes_produced");
  static Counter* empty_ticks =
      MetricsRegistry::Global().GetCounter("standing.empty_ticks");
  static LatencyHistogram* take_us =
      MetricsRegistry::Global().GetHistogram("standing.take_delta_us");
  // Keys are completed once the epoch number is known (epoch stays 0 for
  // an empty tick, which consumes no epoch number).
  TraceKeys keys{subscription_id_, uint32_t(host_), 0};
  const uint64_t t0 = Tracer::Global().NowUs();

  std::lock_guard<std::mutex> tick(tick_mu_);
  QueryDelta delta = Drain(/*rescan=*/false);
  if (delta.payload.empty()) {
    empty_ticks->Add();
    Tracer::Global().Record("standing.take_delta", t0, Tracer::Global().NowUs() - t0, keys);
    return std::nullopt;
  }
  delta.epoch = next_epoch_++;

  keys.epoch = delta.epoch;
  const uint64_t dur = Tracer::Global().NowUs() - t0;
  produced->Add();
  produced_bytes->Add(delta.SerializedSize());
  take_us->Record(dur);
  Tracer::Global().Record("standing.take_delta", t0, dur, keys);
  return delta;
}

QueryDelta StandingQueryAccumulator::TakeSnapshot() {
  static Counter* taken = MetricsRegistry::Global().GetCounter("standing.snapshots_taken");
  static Counter* taken_bytes =
      MetricsRegistry::Global().GetCounter("standing.snapshot_bytes_produced");
  TraceKeys keys{subscription_id_, uint32_t(host_), 0};
  const uint64_t t0 = Tracer::Global().NowUs();

  std::lock_guard<std::mutex> tick(tick_mu_);
  QueryDelta delta = Drain(/*rescan=*/true);
  delta.snapshot = true;
  // Snapshots always consume an epoch number — even empty ones ship, so
  // the receiver can re-anchor its next_epoch at snapshot + 1.
  delta.epoch = next_epoch_++;

  keys.epoch = delta.epoch;
  taken->Add();
  taken_bytes->Add(delta.SerializedSize());
  Tracer::Global().Record("resync.snapshot", t0, Tracer::Global().NowUs() - t0, keys);
  return delta;
}

}  // namespace pathdump
