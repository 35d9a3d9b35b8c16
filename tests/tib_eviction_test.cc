// Epoch-windowed TIB eviction contract tests (the bounded-memory
// tentpole):
//
//  1. Identity — with the ceiling high enough that nothing evicts,
//     sealing epochs is invisible: every poll query and all four
//     standing kinds stay byte-identical to an unbounded TIB across the
//     {1, 4, 16} shards x {1, 4, 16} workers matrix.
//  2. Window — with eviction active, every window-scoped query (and the
//     persisted file) equals a fresh TIB holding only the retained
//     records, and a save/load round trip of the evicting TIB stays
//     loadable by the seed format.
//  3. Ceiling — a sustained insert storm never drives bytes_resident
//     above the configured ceiling (once a sealed epoch exists to
//     retire), and retained == inserted − evicted holds exactly, on the
//     instance stats and on the registry metrics alike.
//  4. Typed miss — record(id) and ForEachRecordOfFlow report evicted
//     ids/flows as misses, not stale or default-constructed hits,
//     including lookups straddling a retirement.
//  5. Adversarial (TSan) — seeded fuzz where ceiling-driven eviction
//     races shard-parallel scans, inserts, and standing TakeDelta;
//     standing results must still equal an unbounded shadow's poll
//     (accumulators folded every record before its segment retired).
//  6. Resync semantics — after eviction, standing state is exact (full
//     history) until a resync re-baselines it to the retained window;
//     both sides of that contract are asserted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/load_imbalance.h"
#include "src/apps/traffic_measure.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/edge/standing_query.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/workload/synthetic_records.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

std::vector<TibRecord> MakeRecords(int n, uint32_t seed) {
  return MakeSyntheticRecords(n, seed, {.ip_space = 2048, .switch_space = 24});
}

constexpr size_t kTopK = 500;
constexpr int64_t kBinWidth = 10000;
const LinkId kProbeLink{3, 7};

// The four standing kinds as this file subscribes them, in Kind order:
// kSpecs[0] TopK, [1] histogram, [2] flow list, [3] count.
const std::vector<StandingQuerySpec> kSpecs =
    testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);

// A small fleet sharing one topology/codec, with a per-testbed TIB
// memory ceiling (0 = unbounded, the seed default).
struct Testbed {
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  std::vector<HostId> hosts;

  Testbed(size_t num_agents, size_t shards, size_t max_memory_bytes)
      : topo(BuildFatTree(4)), labels(&topo), codec(&topo, &labels) {
    for (size_t a = 0; a < num_agents; ++a) {
      HostId h = topo.hosts()[a];
      EdgeAgentConfig cfg;
      cfg.tib_options.num_shards = shards;
      cfg.tib_options.max_memory_bytes = max_memory_bytes;
      agents.push_back(std::make_unique<EdgeAgent>(h, &topo, &codec, cfg));
      controller.RegisterAgent(agents.back().get());
      hosts.push_back(h);
    }
  }
};

// Accounted cost of one record under `opt`, measured on a probe instance
// (PerRecordBytes is private and an implementation detail; the tests
// derive it observationally so ceiling arithmetic tracks the model).
size_t MeasuredPerRecordBytes(TibOptions opt) {
  opt.max_memory_bytes = 0;
  Tib probe(opt);
  probe.Insert(TibRecord{});
  return probe.bytes_resident();
}

// --- 1. High ceiling: sealing must be invisible across the matrix ---

TEST(TibEvictionIdentity, HighCeilingMatchesUnboundedAcrossShardWorkerMatrix) {
  const int kPerAgent = 8000;
  const int kEpochs = 4;
  const size_t kAgents = 2;
  std::vector<std::vector<TibRecord>> records;
  for (size_t a = 0; a < kAgents; ++a) {
    records.push_back(MakeRecords(kPerAgent, 0xE701 + uint32_t(a)));
  }

  for (size_t shards : {size_t(1), size_t(4), size_t(16)}) {
    // Bounded-but-roomy: epoch sealing and ceiling checks run, nothing
    // ever qualifies for retirement.
    Testbed bounded(kAgents, shards, size_t(1) << 30);
    // The unbounded reference never seals — flat columns, seed behavior.
    Testbed shadow(kAgents, shards, 0);
    SubscriptionManager manager(&bounded.controller);
    uint64_t topk_sub = SubscribeTopK(manager, bounded.hosts, kTopK);
    uint64_t hist_sub = SubscribeFlowSizeDistribution(manager, bounded.hosts, kProbeLink,
                                                      TimeRange::All(), kBinWidth);
    uint64_t list_sub = SubscribeFlowList(manager, bounded.hosts, kProbeLink);
    uint64_t count_sub = SubscribeCountSummary(manager, bounded.hosts, kProbeLink);

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (size_t a = 0; a < kAgents; ++a) {
        for (int i = epoch * kPerAgent / kEpochs; i < (epoch + 1) * kPerAgent / kEpochs; ++i) {
          bounded.agents[a]->tib().Insert(records[a][size_t(i)]);
          shadow.agents[a]->tib().Insert(records[a][size_t(i)]);
        }
      }
      // Agent-driven boundary: ticks every registration, then seals the
      // TIB's open segments (the eviction unit under a real ceiling).
      for (auto& agent : bounded.agents) {
        agent->EpochTick();
      }
      manager.Flush();

      for (size_t workers : {size_t(1), size_t(4), size_t(16)}) {
        ThreadPool scan_pool(workers);
        for (size_t a = 0; a < kAgents; ++a) {
          bounded.agents[a]->SetQueryThreadPool(workers > 1 ? &scan_pool : nullptr);
          shadow.agents[a]->SetQueryThreadPool(workers > 1 ? &scan_pool : nullptr);
        }
        for (const StandingQuerySpec& spec : kSpecs) {
          auto [seg, sstats] = bounded.controller.Execute(bounded.hosts, testutil::PollOf(spec));
          auto [flat, fstats] = shadow.controller.Execute(shadow.hosts, testutil::PollOf(spec));
          EXPECT_EQ(seg, flat) << shards << " shards, " << workers << " workers, epoch "
                               << epoch;
          EXPECT_EQ(SerializedBytes(seg), SerializedBytes(flat));
        }
        const uint64_t subs[] = {topk_sub, hist_sub, list_sub, count_sub};
        for (size_t s = 0; s < kSpecs.size(); ++s) {
          EXPECT_EQ(manager.Materialize(subs[s]),
                    shadow.controller.Execute(shadow.hosts, testutil::PollOf(kSpecs[s])).first)
              << shards << " shards, " << workers << " workers, epoch " << epoch << ", kind " << s;
        }
        for (size_t a = 0; a < kAgents; ++a) {
          bounded.agents[a]->SetQueryThreadPool(nullptr);
          shadow.agents[a]->SetQueryThreadPool(nullptr);
        }
      }
      // Id-addressed reads and raw snapshots agree too: ids are global
      // and preserved, segmentation must not leak.
      for (size_t a = 0; a < kAgents; ++a) {
        const Tib& seg_tib = bounded.agents[a]->tib();
        const Tib& flat_tib = shadow.agents[a]->tib();
        ASSERT_EQ(seg_tib.size(), flat_tib.size());
        EXPECT_EQ(seg_tib.records(), flat_tib.records());
        for (size_t id = 0; id < seg_tib.size(); id += 611) {
          EXPECT_EQ(seg_tib.record(id).value(), flat_tib.record(id).value());
        }
      }
    }
    // Epochs were sealed but nothing retired.
    for (auto& agent : bounded.agents) {
      TibMemoryStats st = agent->tib().MemoryStats();
      EXPECT_EQ(st.epochs_sealed, uint64_t(kEpochs));
      EXPECT_EQ(st.evicted_records, 0u);
      EXPECT_EQ(st.segments_retired, 0u);
      EXPECT_EQ(st.retained_records, st.inserted_records);
    }
  }
}

// --- 2. Active eviction: window == fresh TIB of the retained records ---

TEST(TibEvictionWindow, WindowedQueriesEqualFreshTibLoadedWithRetainedRecords) {
  const int kPerEpoch = 1500;
  const int kEpochs = 8;
  TibOptions opt;
  opt.num_shards = 4;
  // Room for ~3 epochs of records: the window slides all test long.
  opt.max_memory_bytes = MeasuredPerRecordBytes(opt) * size_t(kPerEpoch) * 3;
  Tib tib(opt);

  std::vector<TibRecord> all = MakeRecords(kPerEpoch * kEpochs, 0xD07E);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int i = epoch * kPerEpoch; i < (epoch + 1) * kPerEpoch; ++i) {
      tib.Insert(all[size_t(i)]);
    }
    tib.SealEpoch();

    // A fresh single-shard TIB holding exactly the retained records must
    // answer every value query identically (ids differ — the fresh TIB
    // re-densifies them — so the comparison is over values and order).
    std::vector<TibRecord> retained = tib.records();
    TibOptions fresh_opt;
    fresh_opt.num_shards = 1;
    Tib fresh(fresh_opt);
    for (const TibRecord& rec : retained) {
      fresh.Insert(rec);
    }
    // Every standing kind, plus the exact per-flow totals on the probe
    // and across all links (TopK with k = 0 keeps every flow).
    std::vector<StandingQuerySpec> specs = kSpecs;
    specs.push_back({.kind = StandingQuerySpec::Kind::kTopK, .link = kProbeLink});
    specs.push_back({.kind = StandingQuerySpec::Kind::kTopK});
    for (const StandingQuerySpec& spec : specs) {
      EXPECT_EQ(PollTib(tib, spec), PollTib(fresh, spec))
          << "epoch " << epoch << ", kind " << int(spec.kind);
    }
    // Persistence writes only the retained window, byte-for-byte what the
    // fresh TIB writes, and the seed format loads it back unchanged.
    const std::string seg_path = "/tmp/pathdump_evict_seg.bin";
    const std::string fresh_path = "/tmp/pathdump_evict_fresh.bin";
    ASSERT_GT(tib.SaveTo(seg_path), 0u);
    ASSERT_GT(fresh.SaveTo(fresh_path), 0u);
    auto slurp = [](const std::string& p) {
      std::string out;
      std::FILE* f = std::fopen(p.c_str(), "rb");
      char buf[4096];
      size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        out.append(buf, n);
      }
      std::fclose(f);
      return out;
    };
    EXPECT_EQ(slurp(seg_path), slurp(fresh_path)) << "epoch " << epoch;
    Tib loaded;  // default options: unbounded, seed behavior
    ASSERT_EQ(loaded.LoadFrom(seg_path), int64_t(retained.size()));
    EXPECT_EQ(loaded.records(), retained);
    std::remove(seg_path.c_str());
    std::remove(fresh_path.c_str());
  }

  TibMemoryStats st = tib.MemoryStats();
  EXPECT_GT(st.evicted_records, 0u);
  EXPECT_GT(st.segments_retired, 0u);
  EXPECT_GT(st.oldest_retained_epoch, 1u);  // the window actually slid
  EXPECT_EQ(st.inserted_records, uint64_t(kPerEpoch * kEpochs));
  EXPECT_EQ(st.retained_records, st.inserted_records - st.evicted_records);
}

// --- 3. Ceiling enforcement under a storm ---

TEST(TibEvictionCeiling, StormNeverExceedsCeilingAndAccountingIsExact) {
  const int kPerEpoch = 400;
  const int kEpochs = 60;
  TibOptions opt;
  opt.num_shards = 8;
  const size_t per_record = MeasuredPerRecordBytes(opt);
  // Ceiling ~6 epochs; each epoch's batch is well under it, so with the
  // insert-side overflow check the level must stay under the ceiling at
  // EVERY sample point, not just at boundaries.
  opt.max_memory_bytes = per_record * size_t(kPerEpoch) * 6;
  // tib.bytes_resident is pulled from live TIBs at snapshot time; it has
  // no handle to read.
  auto resident_gauge = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    auto it = snap.gauges.find("tib.bytes_resident");
    return it == snap.gauges.end() ? int64_t(0) : it->second;
  };
  const int64_t gauge_before = resident_gauge();
  const uint64_t retired_before =
      MetricsRegistry::Global().GetCounter("tib.segments_retired")->value();
  const uint64_t evicted_before =
      MetricsRegistry::Global().GetCounter("tib.evicted_records")->value();
  {
    Tib tib(opt);
    std::vector<TibRecord> all = MakeRecords(kPerEpoch * kEpochs, 0x570F);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (int i = epoch * kPerEpoch; i < (epoch + 1) * kPerEpoch; ++i) {
        tib.Insert(all[size_t(i)]);
        ASSERT_LE(tib.bytes_resident(), opt.max_memory_bytes)
            << "mid-epoch sample, insert " << i;
      }
      tib.SealEpoch();
      ASSERT_LE(tib.bytes_resident(), opt.max_memory_bytes) << "boundary, epoch " << epoch;
      TibMemoryStats st = tib.MemoryStats();
      ASSERT_EQ(st.retained_records, st.inserted_records - st.evicted_records)
          << "epoch " << epoch;
      ASSERT_EQ(st.resident_bytes, st.retained_records * per_record);
      ASSERT_EQ(st.retained_records, tib.size());
      // The registry gauge tracks this instance's level exactly (diffed
      // against the pre-test level — other tests' TIBs come and go).
      EXPECT_EQ(resident_gauge() - gauge_before, int64_t(tib.bytes_resident()));
    }
    TibMemoryStats st = tib.MemoryStats();
    EXPECT_GT(st.evicted_records, uint64_t(kPerEpoch) * 40);  // the storm really churned
    EXPECT_EQ(st.inserted_records, uint64_t(kPerEpoch * kEpochs));
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("tib.segments_retired")->value() -
                  retired_before,
              st.segments_retired);
    EXPECT_EQ(MetricsRegistry::Global().GetCounter("tib.evicted_records")->value() -
                  evicted_before,
              st.evicted_records);
  }
  // Destruction returns the instance's contribution to the gauge.
  EXPECT_EQ(resident_gauge(), gauge_before);
}

// --- 4. Typed misses for evicted ids/flows ---

TEST(TibEvictionTypedMiss, LookupsStraddlingARetirementMissCleanly) {
  TibOptions opt;
  opt.num_shards = 4;
  const size_t per_record = MeasuredPerRecordBytes(opt);

  // Three hand-built flows: one entirely in epoch 1 (will evict), one
  // entirely in epoch 2 (will survive), one straddling both.
  FiveTuple old_flow{0x0A000001, 0x0A000002, 1111, 80, kProtoTcp};
  FiveTuple new_flow{0x0A000003, 0x0A000004, 2222, 80, kProtoTcp};
  FiveTuple straddle_flow{0x0A000005, 0x0A000006, 3333, 80, kProtoTcp};
  auto rec_for = [](const FiveTuple& flow, uint64_t bytes) {
    TibRecord rec;
    rec.flow = flow;
    rec.path = CompactPath::FromPath({1, 2, 3});
    rec.stime = 0;
    rec.etime = kNsPerSec;
    rec.bytes = bytes;
    rec.pkts = 1;
    return rec;
  };

  // Epoch 1: 40 records (old_flow, straddle_flow, filler).  Epoch 2: 10
  // records (new_flow, straddle_flow).  Ceiling fits epoch 2 only.
  opt.max_memory_bytes = per_record * 20;
  Tib tib(opt);
  tib.Insert(rec_for(old_flow, 100));
  tib.Insert(rec_for(straddle_flow, 200));
  for (const TibRecord& rec : MakeRecords(38, 0x0E01)) {
    tib.Insert(rec);
  }
  tib.SealEpoch();  // epoch 1 sealed; over ceiling -> nothing older to keep it from
  const uint64_t last_epoch1_id = 39;
  tib.Insert(rec_for(new_flow, 300));  // id 40
  tib.Insert(rec_for(straddle_flow, 400));  // id 41
  tib.SealEpoch();  // epoch 2 sealed; epoch 1 must be retired by now

  TibMemoryStats st = tib.MemoryStats();
  ASSERT_EQ(st.evicted_records, 40u);
  ASSERT_EQ(st.retained_records, 2u);
  ASSERT_EQ(st.oldest_retained_epoch, 2u);

  // record(id): typed miss for every evicted id, real hit for retained.
  for (uint64_t id = 0; id <= last_epoch1_id; ++id) {
    EXPECT_FALSE(tib.record(size_t(id)).has_value()) << "evicted id " << id;
  }
  ASSERT_TRUE(tib.record(40).has_value());
  EXPECT_EQ(tib.record(40)->bytes, 300u);
  ASSERT_TRUE(tib.record(41).has_value());
  EXPECT_EQ(tib.record(41)->bytes, 400u);
  EXPECT_FALSE(tib.record(42).has_value());  // never inserted

  // ForEachRecordOfFlow: false for the fully-evicted flow, true (with
  // only retained visits) for the straddler and the new flow.
  size_t visits = 0;
  EXPECT_FALSE(tib.ForEachRecordOfFlow(old_flow, TimeRange::All(),
                                       [&](size_t, const TibRecord&) { ++visits; }));
  EXPECT_EQ(visits, 0u);
  EXPECT_TRUE(tib.RecordsOfFlow(old_flow, TimeRange::All()).empty());

  std::vector<size_t> straddle_ids;
  EXPECT_TRUE(tib.ForEachRecordOfFlow(straddle_flow, TimeRange::All(),
                                      [&](size_t id, const TibRecord& rec) {
                                        straddle_ids.push_back(id);
                                        EXPECT_EQ(rec.bytes, 400u);
                                      }));
  EXPECT_EQ(straddle_ids, (std::vector<size_t>{41}));
  EXPECT_EQ(tib.RecordsOfFlow(new_flow, TimeRange::All()), (std::vector<size_t>{40}));

  // Same miss contract without the by-flow index (scan path).  Unindexed
  // records cost less, so re-derive the ceiling: room for one record.
  TibOptions noidx = opt;
  noidx.index_by_flow = false;
  noidx.max_memory_bytes = MeasuredPerRecordBytes(noidx);
  Tib scan_tib(noidx);
  scan_tib.Insert(rec_for(old_flow, 100));
  scan_tib.SealEpoch();
  scan_tib.Insert(rec_for(new_flow, 300));
  scan_tib.SealEpoch();
  EXPECT_FALSE(scan_tib.ForEachRecordOfFlow(old_flow, TimeRange::All(),
                                            [](size_t, const TibRecord&) {}));
  EXPECT_TRUE(scan_tib.ForEachRecordOfFlow(new_flow, TimeRange::All(),
                                           [](size_t, const TibRecord&) {}));
}

// --- 5. Seeded fuzz: eviction vs scans vs inserts vs TakeDelta (TSan) ---

TEST(TibEvictionConcurrency, EvictionRacesScansInsertsAndTakeDelta) {
  const int kPreload = 4000;
  const int kPerWriter = 8000;
  for (uint32_t seed : {0xEA51u, 0xEA52u}) {
    std::vector<TibRecord> records = MakeRecords(kPreload + 2 * kPerWriter, seed);

    TibOptions opt;
    opt.num_shards = 8;
    const size_t per_record = MeasuredPerRecordBytes(opt);
    opt.max_memory_bytes = per_record * 3000;  // far below the total: constant churn

    Testbed bounded(1, 8, opt.max_memory_bytes);
    Testbed shadow(1, 8, 0);
    EdgeAgent& agent = *bounded.agents[0];
    SubscriptionManager manager(&bounded.controller);
    uint64_t topk_sub = SubscribeTopK(manager, bounded.hosts, kTopK);
    uint64_t count_sub = SubscribeCountSummary(manager, bounded.hosts, kProbeLink);
    for (int i = 0; i < kPreload; ++i) {
      agent.tib().Insert(records[size_t(i)]);
      shadow.agents[0]->tib().Insert(records[size_t(i)]);
    }

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          agent.tib().Insert(records[size_t(kPreload + w * kPerWriter + i)]);
        }
      });
    }
    // Ticker: agent-level boundaries — TakeDelta for both kinds, then
    // SealEpoch, which retires segments while everyone else is running.
    std::thread ticker([&] {
      uint64_t boundaries = 0;
      while (!done.load(std::memory_order_acquire)) {
        agent.EpochTick();
        ++boundaries;
      }
      EXPECT_GE(boundaries, 1u) << "seed=" << seed;
    });
    // Scanner: windowed reads racing retirement — shard-parallel scans,
    // id lookups (hits AND typed misses), per-flow walks.
    std::thread scanner([&] {
      Rng rng(seed ^ 0x5CA11);
      while (!done.load(std::memory_order_acquire)) {
        (void)agent.Poll(kSpecs[1]);
        (void)agent.Poll(kSpecs[2]);
        (void)agent.tib().record(rng.UniformInt(uint32_t(kPreload + 2 * kPerWriter)));
        const TibRecord& probe = records[rng.UniformInt(uint32_t(records.size()))];
        (void)agent.tib().RecordsOfFlow(probe.flow, TimeRange::All());
        (void)agent.tib().MemoryStats();
      }
    });
    for (auto& t : writers) {
      t.join();
    }
    done.store(true, std::memory_order_release);
    ticker.join();
    scanner.join();
    for (const TibRecord& rec :
         std::vector<TibRecord>(records.begin() + kPreload, records.end())) {
      shadow.agents[0]->tib().Insert(rec);
    }

    // Quiesce, then the standing results must equal the UNBOUNDED
    // shadow's poll: every record was folded before its segment retired,
    // so racing eviction must not have cost the standing state a byte.
    agent.EpochTick();
    manager.Flush();
    EXPECT_EQ(manager.Materialize(topk_sub),
              shadow.controller.Execute(shadow.hosts, testutil::PollOf(kSpecs[0])).first)
        << "seed=" << seed;
    EXPECT_EQ(manager.Materialize(count_sub),
              shadow.controller.Execute(shadow.hosts, testutil::PollOf(kSpecs[3])).first)
        << "seed=" << seed;

    TibMemoryStats st = agent.tib().MemoryStats();
    EXPECT_GT(st.evicted_records, 0u) << "seed=" << seed;
    EXPECT_EQ(st.inserted_records, uint64_t(kPreload + 2 * kPerWriter)) << "seed=" << seed;
    EXPECT_EQ(st.retained_records, st.inserted_records - st.evicted_records)
        << "seed=" << seed;
    EXPECT_LE(st.resident_bytes, opt.max_memory_bytes) << "seed=" << seed;
  }
}

// --- 6. Resync re-baselines standing state to the retained window ---

TEST(TibEvictionResync, SnapshotAfterEvictionAdoptsWindowScope) {
  const int kPerEpoch = 1200;
  TibOptions probe_opt;
  probe_opt.num_shards = 4;
  const size_t ceiling = MeasuredPerRecordBytes(probe_opt) * size_t(kPerEpoch) * 2;

  Testbed bounded(1, 4, ceiling);
  Testbed shadow(1, 4, 0);
  EdgeAgent& agent = *bounded.agents[0];
  SubscriptionManager manager(&bounded.controller);
  const std::vector<uint64_t> subs = {
      SubscribeTopK(manager, bounded.hosts, kTopK),
      SubscribeFlowSizeDistribution(manager, bounded.hosts, kProbeLink, TimeRange::All(),
                                    kBinWidth),
      SubscribeFlowList(manager, bounded.hosts, kProbeLink),
      SubscribeCountSummary(manager, bounded.hosts, kProbeLink)};

  for (int epoch = 0; epoch < 6; ++epoch) {
    for (const TibRecord& rec : MakeRecords(kPerEpoch, 0x2E00 + uint32_t(epoch))) {
      agent.tib().Insert(rec);
      shadow.agents[0]->tib().Insert(rec);
    }
    agent.EpochTick();
    manager.Flush();
  }
  ASSERT_GT(agent.tib().MemoryStats().evicted_records, 0u);

  // Before any resync: standing folds are EXACT — full history, equal to
  // the unbounded shadow, even though the local TIB evicted most of it.
  for (size_t s = 0; s < subs.size(); ++s) {
    EXPECT_EQ(manager.Materialize(subs[s]),
              shadow.controller.Execute(shadow.hosts, testutil::PollOf(kSpecs[s])).first)
        << "pre-resync kind " << s;
  }

  // Resync each stream: TakeSnapshot re-scans the retained window only,
  // so the standing state re-baselines to what the bounded agent's own
  // window-scoped poll sees — and now DIFFERS from the unbounded shadow.
  const HostId host = bounded.hosts[0];
  for (uint64_t id : subs) {
    ASSERT_TRUE(manager.MarkStale(id, host));
    ASSERT_TRUE(manager.Resync(id, host));
  }
  manager.Flush();
  EXPECT_EQ(manager.stale_streams(), 0u);
  for (size_t s = 0; s < subs.size(); ++s) {
    EXPECT_EQ(manager.Materialize(subs[s]),
              bounded.controller.Execute(bounded.hosts, testutil::PollOf(kSpecs[s])).first)
        << "post-resync kind " << s;
  }
  // The window really is narrower than history: the re-baselined TopK
  // total must not match the shadow's.
  EXPECT_NE(manager.Materialize(subs[0]),
            shadow.controller.Execute(shadow.hosts, testutil::PollOf(kSpecs[0])).first);

  // Folding resumes: the next epoch's deltas land on the re-anchored
  // counter and window-scoped identity holds at the new boundary too.
  for (const TibRecord& rec : MakeRecords(kPerEpoch, 0x2E99)) {
    agent.tib().Insert(rec);
  }
  agent.EpochTick();
  manager.Flush();
  for (uint64_t id : subs) {
    EXPECT_EQ(manager.info(id).pending_gaps, 0u);
  }
  const SubscriptionManagerStats ss = manager.stats();
  EXPECT_EQ(ss.deltas_submitted,
            ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);
}

}  // namespace
}  // namespace pathdump
