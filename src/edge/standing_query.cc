#include "src/edge/standing_query.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

QueryResult MaterializeStandingResult(const StandingQuerySpec& spec,
                                      const FlowBytesMap& per_flow) {
  if (spec.kind == StandingQuerySpec::Kind::kTopK) {
    // Finalize() imposes a total order, so the result does not depend on
    // the map's iteration order.
    TopKFlows out;
    out.k = spec.k;
    out.items.reserve(per_flow.size());
    for (const auto& [flow, bytes] : per_flow) {
      out.items.emplace_back(bytes, flow);
    }
    out.Finalize();
    return out;
  }
  FlowSizeHistogram h;
  h.bin_width = spec.bin_width;
  for (const auto& [flow, bytes] : per_flow) {
    h.bins[int64_t(bytes) / spec.bin_width] += 1;
  }
  return h;
}

void RecordFoldState::AddFlowItem(uint64_t id, const FiveTuple& flow, const CompactPath& path) {
  std::vector<size_t>& bucket = seen[path.HashKey(FiveTupleHash{}(flow))];
  for (size_t idx : bucket) {
    FlowItem& existing = flow_items[idx];
    if (existing.flow == flow && existing.path == path) {
      existing.id = std::min(existing.id, id);
      return;
    }
  }
  bucket.push_back(flow_items.size());
  flow_items.push_back(FlowItem{id, flow, path});
}

void RecordFoldState::Fold(const StandingQuerySpec& spec, const RecordDelta& delta) {
  // Shipped paths come from CompactPath::ToPath (and the wire decoder
  // rejects longer ones), so FromPath is lossless here.
  for (const RecordDeltaItem& item : delta.items) {
    Add(spec, item.id, item.flow, CompactPath::FromPath(item.path), item.bytes, item.pkts);
  }
}

QueryResult MaterializeStandingRecords(const StandingQuerySpec& spec,
                                       const RecordFoldState& state) {
  if (spec.kind == StandingQuerySpec::Kind::kCountSummary) {
    return state.count;
  }
  // First-appearance order across the whole TIB = ascending first id.
  using FlowItem = RecordFoldState::FlowItem;
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

QueryResult PollTib(const Tib& tib, const StandingQuerySpec& spec) {
  if (spec.IsRecordKind()) {
    std::vector<RecordFoldState> shards = tib.CollectShardPartials<RecordFoldState>(
        [&spec](RecordFoldState& state, uint64_t id, const TibRecord& rec) {
          if (spec.Matches(rec)) {
            state.Add(spec, id, rec.flow, rec.path, rec.bytes, rec.pkts);
          }
        });
    // Duplicates of a (flow, path) pair share a shard, so per-shard
    // dedup is complete and the merge concatenates.  `seen` stays empty:
    // materialization does not read it.
    size_t total = 0;
    for (const RecordFoldState& state : shards) {
      total += state.flow_items.size();
    }
    RecordFoldState merged;
    merged.flow_items.reserve(total);
    for (const RecordFoldState& state : shards) {
      merged.flow_items.insert(merged.flow_items.end(), state.flow_items.begin(),
                               state.flow_items.end());
      merged.count.bytes += state.count.bytes;
      merged.count.pkts += state.count.pkts;
    }
    return MaterializeStandingRecords(spec, merged);
  }
  std::vector<FlowBytesMap> shards = tib.CollectShardPartials<FlowBytesMap>(
      [&spec](FlowBytesMap& per_flow, uint64_t, const TibRecord& rec) {
        if (spec.Matches(rec)) {
          FoldFlowBytes(per_flow, rec);
        }
      });
  // Each flow hashes to exactly one shard: the maps are key-disjoint.
  size_t total = 0;
  for (const FlowBytesMap& m : shards) {
    total += m.size();
  }
  FlowBytesMap merged;
  merged.reserve(total);
  for (const FlowBytesMap& m : shards) {
    merged.insert(m.begin(), m.end());
  }
  return MaterializeStandingResult(spec, merged);
}

StandingQueryAccumulator::StandingQueryAccumulator(uint64_t subscription_id, HostId host,
                                                   const StandingQuerySpec& spec, Tib* tib)
    : subscription_id_(subscription_id), host_(host), spec_(spec), tib_(tib) {
  if (spec_.IsRecordKind()) {
    record_partial_.resize(tib->shard_count());
  } else {
    partial_.resize(tib->shard_count());
  }
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

void StandingQueryAccumulator::Accumulate(FlowBytesMap& partial, uint64_t,
                                          const TibRecord& rec) {
  FoldFlowBytes(partial, rec);
}

void StandingQueryAccumulator::Accumulate(std::vector<CompactRecordEntry>& partial,
                                          uint64_t record_id, const TibRecord& rec) {
  // Buffered in the stored compact form — no decode and no per-path
  // allocation while the exclusive shard lock is held.
  partial.push_back(CompactRecordEntry{record_id, rec.flow, rec.path, rec.bytes, rec.pkts});
}

void StandingQueryAccumulator::OnInsert(size_t shard_index, uint64_t record_id,
                                        const TibRecord& rec) {
  if (!spec_.Matches(rec)) {
    return;
  }
  if (spec_.IsRecordKind()) {
    Accumulate(record_partial_[shard_index], record_id, rec);
  } else {
    Accumulate(partial_[shard_index], record_id, rec);
  }
}

template <typename Partial>
std::vector<Partial> StandingQueryAccumulator::DrainShards(std::vector<Partial>& partials,
                                                           bool rescan) {
  std::vector<Partial> out(partials.size());
  if (!rescan) {
    tib_->ForEachShardExclusive([&](size_t si) { out[si].swap(partials[si]); });
    return out;
  }
  tib_->ForEachShardRecordExclusive(
      [&](size_t si) { partials[si].clear(); },
      [&](size_t si, uint64_t record_id, const TibRecord& rec) {
        if (spec_.Matches(rec)) {
          Accumulate(out[si], record_id, rec);
        }
      });
  return out;
}

QueryDelta StandingQueryAccumulator::Drain(bool rescan) {
  QueryDelta delta;
  delta.subscription_id = subscription_id_;
  delta.host = host_;
  delta.kind = spec_.kind;
  if (!spec_.IsRecordKind()) {
    std::vector<FlowBytesMap> shards = DrainShards(partial_, rescan);
    delta.payload = FlowBytesDelta::FromShardMaps(shards);
    return delta;
  }
  std::vector<std::vector<CompactRecordEntry>> shards = DrainShards(record_partial_, rescan);
  // Decode paths here, with no lock held — once per shipped record,
  // never inside Insert.
  std::vector<std::vector<RecordDeltaItem>> decoded(shards.size());
  for (size_t si = 0; si < shards.size(); ++si) {
    decoded[si].reserve(shards[si].size());
    for (const CompactRecordEntry& e : shards[si]) {
      decoded[si].push_back(RecordDeltaItem{e.id, e.flow, e.path.ToPath(), e.bytes, e.pkts});
    }
  }
  delta.records = RecordDelta::FromShardBuffers(decoded);
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
  const bool empty = spec_.IsRecordKind() ? delta.records.empty() : delta.payload.empty();
  if (empty) {
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
