#include "src/edge/tib.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"

namespace pathdump {

namespace {

// Inserts are the system's hottest path: every insert bumps one relaxed
// counter, but clock reads and trace-ring pushes happen only on a
// 1-in-(kTraceSampleMask+1) per-thread sample, keeping the overhead gate
// honest (see bench_transport's instrumentation section).
constexpr uint32_t kTraceSampleMask = 1023;

bool SampleThisInsert() {
  thread_local uint32_t n = 0;
  return (++n & kTraceSampleMask) == 0;
}

// On-disk layout: 16-byte header then fixed-size rows.
constexpr uint32_t kTibMagic = 0x50445442;  // "PDTB"
constexpr uint32_t kTibVersion = 1;

struct DiskHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t count;
};

struct DiskRow {
  IpAddr src_ip;
  IpAddr dst_ip;
  uint16_t src_port;
  uint16_t dst_port;
  uint8_t protocol;
  uint8_t path_len;
  uint16_t pad;
  SwitchId path[CompactPath::kMaxSwitches];
  SimTime stime;
  SimTime etime;
  uint64_t bytes;
  uint32_t pkts;
  uint32_t pad2;
};

size_t ResolveShardCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
  }
  return std::clamp<size_t>(n, 1, Tib::kMaxShards);
}

}  // namespace

CompactPath CompactPath::FromPath(const Path& p) {
  CompactPath out;
  out.len = uint8_t(p.size() > kMaxSwitches ? kMaxSwitches : p.size());
  for (int i = 0; i < out.len; ++i) {
    out.sw[size_t(i)] = p[size_t(i)];
  }
  return out;
}

Path CompactPath::ToPath() const {
  Path p;
  p.reserve(len);
  for (int i = 0; i < len; ++i) {
    p.push_back(sw[size_t(i)]);
  }
  return p;
}

bool CompactPath::ContainsSwitch(SwitchId s) const {
  for (int i = 0; i < len; ++i) {
    if (sw[size_t(i)] == s) {
      return true;
    }
  }
  return false;
}

Tib::Tib(TibOptions options)
    : options_(options), metrics_([this](MetricsSnapshot& snap) {
        snap.gauges["tib.bytes_resident"] +=
            int64_t(resident_bytes_.load(std::memory_order_acquire));
      }) {
  shards_.resize(ResolveShardCount(options_.num_shards));
  for (auto& s : shards_) {
    s = std::make_unique<Shard>();
  }
}

void Tib::ForEachShardParallel(const std::function<void(size_t)>& fn) const {
  ThreadPool* pool = scan_pool_.load(std::memory_order_acquire);
  size_t n = shards_.size();
  if (pool == nullptr || pool->worker_count() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn);
}

void Tib::Insert(const TibRecord& rec) {
  static Counter* inserts = MetricsRegistry::Global().GetCounter("tib.inserts");
  static LatencyHistogram* insert_us =
      MetricsRegistry::Global().GetHistogram("tib.insert_us");
  inserts->Add();
  const bool sampled = MetricsRegistry::enabled() && SampleThisInsert();
  const uint64_t t0 = sampled ? Tracer::Global().NowUs() : 0;

  const size_t si = ShardOf(rec.flow);
  Shard& s = *shards_[si];
  std::unique_lock<std::shared_mutex> lock(s.mu);
  // The id is claimed under the shard lock so each shard's id column stays
  // strictly ascending — the invariant the ordered reduces rely on.
  uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  // Append to the open segment, creating one if the previous was sealed.
  const bool fresh_segment = s.segments.empty() || s.segments.back().sealed;
  if (fresh_segment) {
    s.segments.emplace_back();
  }
  Segment& seg = s.segments.back();
  // Row first, index last, with rollback: an allocation failure in any
  // step must not leave a half-inserted row or a by-flow entry pointing
  // past the column (an id gap is harmless — ids only need to ascend).
  seg.records.push_back(rec);
  try {
    seg.ids.push_back(id);
    if (options_.index_by_flow) {
      const uint64_t seq = s.base_seq + uint64_t(s.segments.size()) - 1;
      s.by_flow[rec.flow].push_back((seq << 32) | uint64_t(seg.records.size() - 1));
    }
  } catch (...) {
    if (seg.ids.size() == seg.records.size()) {
      seg.ids.pop_back();
    }
    seg.records.pop_back();
    if (fresh_segment && seg.records.empty()) {
      s.segments.pop_back();
    }
    throw;
  }
  count_.fetch_add(1, std::memory_order_acq_rel);
  inserted_.fetch_add(1, std::memory_order_relaxed);
  const size_t per_record = PerRecordBytes();
  resident_bytes_.fetch_add(per_record, std::memory_order_acq_rel);
  // Standing-query accumulators ride the shard lock already held here:
  // the hook table is only ever swapped under all shard locks, so this
  // read is race-free, and per-shard partials need no lock of their own.
  for (const auto& [hook_id, hook] : insert_hooks_) {
    hook(si, id, rec);
  }
  lock.unlock();
  // Opportunistic ceiling enforcement: the moment resident bytes cross
  // the ceiling, the inserting thread retires sealed epochs (try-lock —
  // if another thread is already retiring, this one moves on).  Must run
  // after the shard lock is released: enforcement takes shard locks.
  if (options_.max_memory_bytes > 0 &&
      resident_bytes_.load(std::memory_order_relaxed) > options_.max_memory_bytes) {
    TryEnforceCeiling();
  }
  if (sampled) {
    const uint64_t dur = Tracer::Global().NowUs() - t0;
    insert_us->Record(dur);
    Tracer::Global().Record("tib.insert", t0, dur, TraceKeys{});
  }
}

void Tib::SealEpoch() {
  static Counter* seals = MetricsRegistry::Global().GetCounter("tib.epochs_sealed");
  std::lock_guard<std::mutex> seal(seal_mu_);
  const uint64_t e = current_epoch_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    std::unique_lock<std::shared_mutex> lock(sp->mu);
    if (!sp->segments.empty() && !sp->segments.back().sealed) {
      sp->segments.back().epoch = e;
      sp->segments.back().sealed = true;
    }
  }
  current_epoch_.store(e + 1, std::memory_order_release);
  epochs_sealed_.fetch_add(1, std::memory_order_relaxed);
  seals->Add();
  EnforceCeilingLocked();
}

void Tib::RetireFrontLocked(Shard& s) {
  static Counter* retired_ctr = MetricsRegistry::Global().GetCounter("tib.segments_retired");
  static Counter* evicted_ctr = MetricsRegistry::Global().GetCounter("tib.evicted_records");
  Segment& seg = s.segments.front();
  const uint64_t retiring_seq = s.base_seq;
  if (options_.index_by_flow) {
    // Refs are ascending by (seq, slot) and the front segment holds the
    // lowest seq, so each flow's dropped entries are exactly the prefix
    // stamped with the retiring seq.  Visiting the flow of every retired
    // record covers every key that can hold such a prefix; repeat visits
    // of a flow find an already-pruned vector and drop nothing.
    for (const TibRecord& rec : seg.records) {
      auto it = s.by_flow.find(rec.flow);
      if (it == s.by_flow.end()) {
        continue;
      }
      std::vector<uint64_t>& refs = it->second;
      size_t drop = 0;
      while (drop < refs.size() && (refs[drop] >> 32) == retiring_seq) {
        ++drop;
      }
      if (drop == 0) {
        continue;
      }
      if (drop == refs.size()) {
        s.by_flow.erase(it);
      } else {
        refs.erase(refs.begin(), refs.begin() + ptrdiff_t(drop));
      }
    }
  }
  const size_t n = seg.records.size();
  count_.fetch_sub(n, std::memory_order_acq_rel);
  evicted_.fetch_add(n, std::memory_order_relaxed);
  segments_retired_.fetch_add(1, std::memory_order_relaxed);
  const size_t bytes = n * PerRecordBytes();
  resident_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
  retired_ctr->Add();
  evicted_ctr->Add(n);
  s.segments.pop_front();
  ++s.base_seq;
}

void Tib::EnforceCeilingLocked() {
  const size_t max = options_.max_memory_bytes;
  if (max == 0) {
    return;
  }
  while (resident_bytes_.load(std::memory_order_acquire) > max) {
    // Oldest sealed epoch still retained, across all shards.  Epochs
    // retire whole — every shard's segments for that epoch go together —
    // so the retained window is always a contiguous epoch suffix and the
    // decision is deterministic given (inserts, seal points, ceiling).
    uint64_t oldest = UINT64_MAX;
    for (const auto& sp : shards_) {
      std::shared_lock<std::shared_mutex> lock(sp->mu);
      if (!sp->segments.empty() && sp->segments.front().sealed) {
        oldest = std::min(oldest, sp->segments.front().epoch);
      }
    }
    if (oldest == UINT64_MAX) {
      return;  // only open segments remain; nothing is eligible
    }
    for (const auto& sp : shards_) {
      std::unique_lock<std::shared_mutex> lock(sp->mu);
      while (!sp->segments.empty() && sp->segments.front().sealed &&
             sp->segments.front().epoch <= oldest) {
        RetireFrontLocked(*sp);
      }
    }
  }
}

void Tib::TryEnforceCeiling() {
  std::unique_lock<std::mutex> seal(seal_mu_, std::try_to_lock);
  if (!seal.owns_lock()) {
    return;  // someone else is sealing/retiring; they will enforce
  }
  EnforceCeilingLocked();
}

TibMemoryStats Tib::MemoryStats() const {
  TibMemoryStats st;
  st.resident_bytes = resident_bytes_.load(std::memory_order_acquire);
  st.retained_records = count_.load(std::memory_order_acquire);
  st.inserted_records = inserted_.load(std::memory_order_relaxed);
  st.evicted_records = evicted_.load(std::memory_order_relaxed);
  st.segments_retired = segments_retired_.load(std::memory_order_relaxed);
  st.epochs_sealed = epochs_sealed_.load(std::memory_order_relaxed);
  st.current_epoch = current_epoch_.load(std::memory_order_acquire);
  uint64_t oldest = UINT64_MAX;
  size_t segs = 0;
  for (const auto& sp : shards_) {
    std::shared_lock<std::shared_mutex> lock(sp->mu);
    segs += sp->segments.size();
    if (!sp->segments.empty() && sp->segments.front().sealed) {
      oldest = std::min(oldest, sp->segments.front().epoch);
    }
  }
  st.segment_count = segs;
  st.oldest_retained_epoch = oldest == UINT64_MAX ? 0 : oldest;
  return st;
}

int Tib::AddInsertHook(InsertHook hook) {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sp : shards_) {
    locks.emplace_back(sp->mu);
  }
  int id = next_insert_hook_id_++;
  insert_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Tib::RemoveInsertHook(int id) {
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sp : shards_) {
    locks.emplace_back(sp->mu);
  }
  std::erase_if(insert_hooks_, [id](const auto& entry) { return entry.first == id; });
}

size_t Tib::insert_hook_count() const {
  // Any one shard lock orders this read against the all-locks writers.
  std::shared_lock<std::shared_mutex> lock(shards_[0]->mu);
  return insert_hooks_.size();
}

void Tib::ForEachShardExclusive(const std::function<void(size_t)>& fn) const {
  for (size_t si = 0; si < shards_.size(); ++si) {
    std::unique_lock<std::shared_mutex> lock(shards_[si]->mu);
    fn(si);
  }
}

void Tib::ForEachShardRecordExclusive(
    const std::function<void(size_t)>& on_shard,
    const std::function<void(size_t, uint64_t, const TibRecord&)>& on_record) const {
  for (size_t si = 0; si < shards_.size(); ++si) {
    const Shard& s = *shards_[si];
    std::unique_lock<std::shared_mutex> lock(s.mu);
    if (on_shard) {
      on_shard(si);
    }
    // Retained records only: a resync snapshot taken here is window-scoped
    // by construction — retired epochs are simply not there to scan.
    s.ForEachStored([&](uint64_t id, const TibRecord& rec) { on_record(si, id, rec); });
  }
}

std::optional<TibRecord> Tib::record(size_t id) const {
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    std::shared_lock<std::shared_mutex> lock(s.mu);
    for (const Segment& seg : s.segments) {
      if (uint64_t(id) > seg.ids.back()) {
        continue;  // a newer segment of this shard may hold it
      }
      if (uint64_t(id) < seg.ids.front()) {
        break;  // ids ascend across segments: not in this shard
      }
      auto it = std::lower_bound(seg.ids.begin(), seg.ids.end(), uint64_t(id));
      if (it != seg.ids.end() && *it == uint64_t(id)) {
        return seg.records[size_t(it - seg.ids.begin())];
      }
      break;  // would have been in this segment's id range
    }
  }
  // Typed miss: never inserted, rolled back, or evicted with its epoch.
  return std::nullopt;
}

void Tib::ForEachRecord(const std::function<void(size_t, const TibRecord&)>& fn) const {
  // Lock every shard (ascending — the documented hierarchy), then k-way
  // merge the per-shard ascending id columns.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sp : shards_) {
    locks.emplace_back(sp->mu);
  }
  // Min-heap over one (id, shard) head per shard: O(n log s) for the
  // whole walk, and the all-shards lock window stays as short as the
  // visitor allows.  Each shard's cursor walks its segment ring in order
  // (ids ascend across a shard's segments).
  struct Pos {
    size_t seg = 0;
    size_t slot = 0;
  };
  std::vector<Pos> pos(shards_.size());
  auto head_of = [&](size_t si) -> const Segment* {
    const Shard& s = *shards_[si];
    Pos& p = pos[si];
    while (p.seg < s.segments.size() && p.slot >= s.segments[p.seg].records.size()) {
      ++p.seg;
      p.slot = 0;
    }
    return p.seg < s.segments.size() ? &s.segments[p.seg] : nullptr;
  };
  using Head = std::pair<uint64_t, size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (const Segment* seg = head_of(i)) {
      heads.emplace(seg->ids[pos[i].slot], i);
    }
  }
  while (!heads.empty()) {
    auto [id, si] = heads.top();
    heads.pop();
    fn(size_t(id), shards_[si]->segments[pos[si].seg].records[pos[si].slot]);
    ++pos[si].slot;
    if (const Segment* seg = head_of(si)) {
      heads.emplace(seg->ids[pos[si].slot], si);
    }
  }
}

void Tib::ForEachRecordUnordered(const std::function<void(const TibRecord&)>& fn) const {
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    std::shared_lock<std::shared_mutex> lock(s.mu);
    for (const Segment& seg : s.segments) {
      for (const TibRecord& rec : seg.records) {
        fn(rec);
      }
    }
  }
}

std::vector<TibRecord> Tib::records() const {
  std::vector<TibRecord> out;
  out.reserve(size());
  ForEachRecord([&out](size_t, const TibRecord& rec) { out.push_back(rec); });
  return out;
}

std::vector<size_t> Tib::RecordsOfFlow(const FiveTuple& flow, const TimeRange& range) const {
  std::vector<size_t> out;
  ForEachRecordOfFlow(flow, range, [&out](size_t id, const TibRecord&) { out.push_back(id); });
  return out;
}

bool Tib::ForEachRecordOfFlow(const FiveTuple& flow, const TimeRange& range,
                              const std::function<void(size_t, const TibRecord&)>& fn) const {
  const Shard& s = *shards_[ShardOf(flow)];
  std::shared_lock<std::shared_mutex> lock(s.mu);
  if (options_.index_by_flow) {
    auto it = s.by_flow.find(flow);
    if (it == s.by_flow.end()) {
      return false;  // typed miss: never inserted or fully evicted
    }
    for (uint64_t ref : it->second) {
      const Segment& seg = s.segments[size_t((ref >> 32) - s.base_seq)];
      const size_t slot = size_t(ref & 0xFFFFFFFFu);
      if (seg.records[slot].Overlaps(range)) {
        fn(size_t(seg.ids[slot]), seg.records[slot]);
      }
    }
    return true;
  }
  bool retained = false;
  for (const Segment& seg : s.segments) {
    for (size_t i = 0; i < seg.records.size(); ++i) {
      if (seg.records[i].flow == flow) {
        retained = true;
        if (seg.records[i].Overlaps(range)) {
          fn(size_t(seg.ids[i]), seg.records[i]);
        }
      }
    }
  }
  return retained;
}

size_t Tib::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    std::shared_lock<std::shared_mutex> lock(s.mu);
    for (const Segment& seg : s.segments) {
      bytes += seg.records.capacity() * sizeof(TibRecord);
      bytes += seg.ids.capacity() * sizeof(uint64_t);
    }
    bytes += s.by_flow.size() * (sizeof(FiveTuple) + sizeof(std::vector<uint64_t>) + 24);
    for (const auto& [flow, v] : s.by_flow) {
      bytes += v.capacity() * sizeof(uint64_t);
    }
  }
  return bytes;
}

size_t Tib::SaveTo(const std::string& path) const {
  // Snapshot first (one consistent pass under all shard locks) so the
  // header count always matches the rows written, even if inserts race.
  // Under eviction this is exactly the retained window: retired segments
  // are gone from the ring, so they are not written.
  std::vector<TibRecord> snap = records();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return 0;
  }
  DiskHeader hdr{kTibMagic, kTibVersion, snap.size()};
  size_t written = 0;
  bool failed = false;
  if (std::fwrite(&hdr, sizeof(hdr), 1, f) == 1) {
    written += sizeof(hdr);
    for (const TibRecord& rec : snap) {
      DiskRow row{};
      row.src_ip = rec.flow.src_ip;
      row.dst_ip = rec.flow.dst_ip;
      row.src_port = rec.flow.src_port;
      row.dst_port = rec.flow.dst_port;
      row.protocol = rec.flow.protocol;
      row.path_len = rec.path.len;
      for (int i = 0; i < rec.path.len; ++i) {
        row.path[i] = rec.path.sw[size_t(i)];
      }
      row.stime = rec.stime;
      row.etime = rec.etime;
      row.bytes = rec.bytes;
      row.pkts = rec.pkts;
      if (std::fwrite(&row, sizeof(row), 1, f) != 1) {
        failed = true;
        break;
      }
      written += sizeof(row);
    }
  } else {
    failed = true;
  }
  std::fclose(f);
  return failed ? 0 : written;
}

int64_t Tib::LoadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return -1;
  }
  DiskHeader hdr{};
  if (std::fread(&hdr, sizeof(hdr), 1, f) != 1 || hdr.magic != kTibMagic ||
      hdr.version != kTibVersion) {
    std::fclose(f);
    return -1;
  }
  // Parse the whole file into staging first, then replace the contents in
  // one all-locks critical section, so concurrent readers never observe a
  // half-loaded TIB.  (The reserve is capped: a corrupt count with a valid
  // magic must not force a huge allocation before row reads catch it.)
  std::vector<TibRecord> rows;
  rows.reserve(size_t(std::min<uint64_t>(hdr.count, 1u << 20)));
  for (uint64_t i = 0; i < hdr.count; ++i) {
    DiskRow row{};
    if (std::fread(&row, sizeof(row), 1, f) != 1 || row.path_len > CompactPath::kMaxSwitches) {
      std::fclose(f);
      Clear();
      return -1;
    }
    TibRecord rec;
    rec.flow.src_ip = row.src_ip;
    rec.flow.dst_ip = row.dst_ip;
    rec.flow.src_port = row.src_port;
    rec.flow.dst_port = row.dst_port;
    rec.flow.protocol = row.protocol;
    rec.path.len = row.path_len;
    for (int j = 0; j < row.path_len; ++j) {
      rec.path.sw[size_t(j)] = row.path[j];
    }
    rec.stime = row.stime;
    rec.etime = row.etime;
    rec.bytes = row.bytes;
    rec.pkts = row.pkts;
    rows.push_back(rec);
  }
  std::fclose(f);

  std::lock_guard<std::mutex> seal(seal_mu_);
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sp : shards_) {
    locks.emplace_back(sp->mu);
  }
  for (const auto& sp : shards_) {
    sp->segments.clear();
    sp->base_seq = 0;
    sp->by_flow.clear();
  }
  uint64_t id = 0;
  for (const TibRecord& rec : rows) {
    Shard& s = *shards_[ShardOf(rec.flow)];
    if (s.segments.empty()) {
      s.segments.emplace_back();  // one open segment; epoching restarts
    }
    Segment& seg = s.segments.back();
    seg.records.push_back(rec);
    seg.ids.push_back(id++);
    if (options_.index_by_flow) {
      s.by_flow[rec.flow].push_back(uint64_t(seg.records.size() - 1));  // seq 0
    }
  }
  next_id_.store(id, std::memory_order_release);
  count_.store(id, std::memory_order_release);
  // A load begins a fresh lifetime: the tallies describe this window.
  inserted_.store(id, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
  segments_retired_.store(0, std::memory_order_relaxed);
  epochs_sealed_.store(0, std::memory_order_relaxed);
  current_epoch_.store(1, std::memory_order_release);
  const size_t new_resident = rows.size() * PerRecordBytes();
  resident_bytes_.store(new_resident, std::memory_order_release);
  return int64_t(rows.size());
}

void Tib::Clear() {
  std::lock_guard<std::mutex> seal(seal_mu_);
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& sp : shards_) {
    locks.emplace_back(sp->mu);
  }
  for (const auto& sp : shards_) {
    sp->segments.clear();
    sp->base_seq = 0;
    sp->by_flow.clear();
  }
  next_id_.store(0, std::memory_order_release);
  count_.store(0, std::memory_order_release);
  inserted_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
  segments_retired_.store(0, std::memory_order_relaxed);
  epochs_sealed_.store(0, std::memory_order_relaxed);
  current_epoch_.store(1, std::memory_order_release);
  resident_bytes_.store(0, std::memory_order_release);
}

}  // namespace pathdump
