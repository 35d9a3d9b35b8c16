// Sharded-TIB contract tests (the PR 3 tentpole):
//
//  1. Determinism — TopK, FlowSizeDistribution, RecordsOnLink, and
//     RecordsOfFlow return byte-identical results across {1, 4, 16}
//     shards x {1, 4, 16} scan workers at the paper's 240 K records/host.
//  2. Concurrency — inserts racing shard-parallel scans are safe (run
//     under ThreadSanitizer in CI) and the post-race state matches a
//     sequentially built reference.
//  3. Persistence — the single-file on-disk format is byte-identical at
//     any shard count, round-trips across mismatched shard counts, and
//     truncated/corrupt tails are rejected.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/edge/edge_agent.h"
#include "src/edge/standing_query.h"
#include "src/edge/tib.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

// The paper's per-host TIB population (§5.1).
constexpr int kEntries = 240000;

// The shared synthetic fixture (tests/test_util.h) at this file's
// historical distribution (4096-address IP space).
std::vector<TibRecord> MakeRecords(int n, uint32_t seed) {
  return testutil::MakeSyntheticRecords(n, seed, {.ip_space = 4096, .switch_space = 24});
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- 1. Shard/worker determinism at 240 K records ---

class TibShardDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new Topology(BuildFatTree(4));
    labels_ = new LinkLabelMap(topo_);
    codec_ = new CherryPickCodec(topo_, labels_);
    records_ = new std::vector<TibRecord>(MakeRecords(kEntries, 0xDE7E));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete codec_;
    delete labels_;
    delete topo_;
    records_ = nullptr;
    codec_ = nullptr;
    labels_ = nullptr;
    topo_ = nullptr;
  }

  static Topology* topo_;
  static LinkLabelMap* labels_;
  static CherryPickCodec* codec_;
  static std::vector<TibRecord>* records_;
};

Topology* TibShardDeterminism::topo_ = nullptr;
LinkLabelMap* TibShardDeterminism::labels_ = nullptr;
CherryPickCodec* TibShardDeterminism::codec_ = nullptr;
std::vector<TibRecord>* TibShardDeterminism::records_ = nullptr;

TEST_F(TibShardDeterminism, QueriesByteIdenticalAcrossShardAndWorkerMatrix) {
  const LinkId probe{3, 7};          // present in a fraction of random paths
  const LinkId into{kInvalidNode, 5};
  const TimeRange mid{600 * kNsPerSec, 2400 * kNsPerSec};

  // Sample flows for the point-lookup query: every 4801st record's tuple.
  std::vector<FiveTuple> sample_flows;
  for (size_t i = 0; i < records_->size(); i += 4801) {
    sample_flows.push_back((*records_)[i].flow);
  }
  ASSERT_GE(sample_flows.size(), 40u);

  TopKFlows base_topk;
  FlowSizeHistogram base_dist;
  std::vector<size_t> base_on_link, base_into;
  std::vector<std::vector<size_t>> base_of_flow;
  bool have_base = false;

  for (size_t shards : {size_t(1), size_t(4), size_t(16)}) {
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = shards;
    EdgeAgent agent(topo_->hosts().front(), topo_, codec_, cfg);
    for (const TibRecord& rec : *records_) {
      agent.tib().Insert(rec);
    }
    ASSERT_EQ(agent.tib().size(), size_t(kEntries));
    ASSERT_EQ(agent.tib().shard_count(), shards);

    for (size_t workers : {size_t(1), size_t(4), size_t(16)}) {
      ThreadPool pool(workers);
      agent.SetQueryThreadPool(&pool);

      TopKFlows topk = agent.TopK(1000, TimeRange::All());
      FlowSizeHistogram dist = agent.FlowSizeDistribution(probe, mid, 10000);
      std::vector<size_t> on_link = agent.tib().RecordsOnLink(probe, TimeRange::All());
      std::vector<size_t> into_link = agent.tib().RecordsOnLink(into, mid);
      std::vector<std::vector<size_t>> of_flow;
      for (const FiveTuple& f : sample_flows) {
        of_flow.push_back(agent.tib().RecordsOfFlow(f, mid));
      }
      agent.SetQueryThreadPool(nullptr);

      if (!have_base) {
        base_topk = topk;
        base_dist = dist;
        base_on_link = on_link;
        base_into = into_link;
        base_of_flow = of_flow;
        have_base = true;
        EXPECT_EQ(base_topk.items.size(), 1000u);
        EXPECT_FALSE(base_on_link.empty());
        continue;
      }
      EXPECT_EQ(topk, base_topk) << shards << " shards, " << workers << " workers";
      EXPECT_EQ(dist, base_dist) << shards << " shards, " << workers << " workers";
      EXPECT_EQ(on_link, base_on_link) << shards << " shards, " << workers << " workers";
      EXPECT_EQ(into_link, base_into) << shards << " shards, " << workers << " workers";
      EXPECT_EQ(of_flow, base_of_flow) << shards << " shards, " << workers << " workers";
    }
  }
}

TEST_F(TibShardDeterminism, SnapshotAndIdsPreserveInsertionOrder) {
  TibOptions opt;
  opt.num_shards = 8;
  Tib tib(opt);
  for (size_t i = 0; i < 10000; ++i) {
    tib.Insert((*records_)[i]);
  }
  std::vector<TibRecord> snap = tib.records();
  ASSERT_EQ(snap.size(), 10000u);
  for (size_t i = 0; i < snap.size(); ++i) {
    ASSERT_EQ(snap[i], (*records_)[i]) << "id " << i;
  }
  // Point lookups agree with the snapshot.
  for (size_t i = 0; i < snap.size(); i += 997) {
    EXPECT_EQ(tib.record(i).value(), snap[i]);
  }
  // GetFlows dedup/order is shard-count independent too.
  TibOptions one;
  one.num_shards = 1;
  Tib flat(one);
  for (size_t i = 0; i < 10000; ++i) {
    flat.Insert((*records_)[i]);
  }
  StandingQuerySpec flows{.kind = StandingQuerySpec::Kind::kFlowList, .link = LinkId{3, 7}};
  EXPECT_EQ(PollTib(tib, flows), PollTib(flat, flows));
}

TEST_F(TibShardDeterminism, FlowLookupsMatchWithAndWithoutIndex) {
  TibOptions indexed;
  indexed.num_shards = 4;
  TibOptions scan_only;
  scan_only.num_shards = 4;
  scan_only.index_by_flow = false;
  Tib a(indexed), b(scan_only);
  for (size_t i = 0; i < 20000; ++i) {
    a.Insert((*records_)[i]);
    b.Insert((*records_)[i]);
  }
  for (size_t i = 0; i < 20000; i += 1231) {
    const FiveTuple& f = (*records_)[i].flow;
    EXPECT_EQ(a.RecordsOfFlow(f, TimeRange::All()), b.RecordsOfFlow(f, TimeRange::All()));
  }
}

// --- 2. Inserts racing shard-parallel scans (TSan) ---

TEST(TibShardConcurrency, InsertsRaceScans) {
  // 200 K preloaded + 2 x 20 K racing inserts = the paper's 240 K total.
  const int preload = 200000;
  const int per_writer = 20000;
  std::vector<TibRecord> records = MakeRecords(preload + 2 * per_writer, 0xACE5);

  TibOptions opt;
  opt.num_shards = 8;
  Tib tib(opt);
  for (int i = 0; i < preload; ++i) {
    tib.Insert(records[size_t(i)]);
  }

  ThreadPool pool(4);
  tib.SetScanPool(&pool);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};
  const LinkId probe{3, 7};
  // TopK with k = 0 keeps every flow: the exact per-flow byte totals, in
  // a total order.
  const StandingQuerySpec probe_totals{.kind = StandingQuerySpec::Kind::kTopK, .link = probe};
  const StandingQuerySpec all_totals{.kind = StandingQuerySpec::Kind::kTopK};

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < per_writer; ++i) {
        tib.Insert(records[size_t(preload + w * per_writer + i)]);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        QueryResult totals = PollTib(tib, probe_totals);
        std::vector<size_t> ids = tib.RecordsOnLink(probe, TimeRange::All());
        // Ids are a monotone merge of per-shard ascending columns.
        for (size_t i = 1; i < ids.size(); ++i) {
          ASSERT_LT(ids[i - 1], ids[i]);
        }
        ASSERT_LE(std::get<TopKFlows>(totals).items.size(), tib.size());
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) {
    t.join();
  }
  tib.SetScanPool(nullptr);
  EXPECT_GE(scans.load(), 1u);
  ASSERT_EQ(tib.size(), size_t(preload + 2 * per_writer));

  // Post-race contents equal a sequential reference, modulo insertion
  // order of the racing tail: compare as per-flow aggregates (exact) and
  // total match counts.
  TibOptions ref_opt;
  ref_opt.num_shards = 1;
  Tib ref(ref_opt);
  for (const TibRecord& rec : records) {
    ref.Insert(rec);
  }
  EXPECT_EQ(PollTib(tib, probe_totals), PollTib(ref, probe_totals));
  EXPECT_EQ(PollTib(tib, all_totals), PollTib(ref, all_totals));
  EXPECT_EQ(tib.RecordsOnLink(probe, TimeRange::All()).size(),
            ref.RecordsOnLink(probe, TimeRange::All()).size());
}

// --- 3. Persistence across shard counts ---

TEST(TibShardPersistence, FileBytesIndependentOfShardCount) {
  std::vector<TibRecord> records = MakeRecords(5000, 0xF11E);
  TibOptions one;
  one.num_shards = 1;
  TibOptions eight;
  eight.num_shards = 8;
  Tib a(one), b(eight);
  for (const TibRecord& rec : records) {
    a.Insert(rec);
    b.Insert(rec);
  }
  const std::string pa = "/tmp/pathdump_shard_save_1.bin";
  const std::string pb = "/tmp/pathdump_shard_save_8.bin";
  ASSERT_GT(a.SaveTo(pa), 0u);
  ASSERT_GT(b.SaveTo(pb), 0u);
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(TibShardPersistence, RoundTripsAcrossMismatchedShardCounts) {
  std::vector<TibRecord> records = MakeRecords(5000, 0x0DD5);
  TibOptions eight;
  eight.num_shards = 8;
  Tib saved(eight);
  for (const TibRecord& rec : records) {
    saved.Insert(rec);
  }
  const std::string path = "/tmp/pathdump_shard_roundtrip.bin";
  ASSERT_GT(saved.SaveTo(path), 0u);

  // Save at 8 shards, load at 1 — and back out again at 16.
  TibOptions one;
  one.num_shards = 1;
  Tib flat(one);
  ASSERT_EQ(flat.LoadFrom(path), int64_t(records.size()));
  EXPECT_EQ(flat.records(), records);

  ASSERT_GT(flat.SaveTo(path), 0u);
  TibOptions sixteen;
  sixteen.num_shards = 16;
  Tib wide(sixteen);
  ASSERT_EQ(wide.LoadFrom(path), int64_t(records.size()));
  EXPECT_EQ(wide.records(), records);

  // Queries agree after the double hop.
  LinkId probe{3, 7};
  EXPECT_EQ(wide.RecordsOnLink(probe, TimeRange::All()),
            saved.RecordsOnLink(probe, TimeRange::All()));
  const FiveTuple& f = records[17].flow;
  EXPECT_EQ(wide.RecordsOfFlow(f, TimeRange::All()), saved.RecordsOfFlow(f, TimeRange::All()));
  std::remove(path.c_str());
}

TEST(TibShardPersistence, RejectsTruncatedAndCorruptTails) {
  std::vector<TibRecord> records = MakeRecords(64, 0xBAD);
  TibOptions eight;
  eight.num_shards = 8;
  Tib tib(eight);
  for (const TibRecord& rec : records) {
    tib.Insert(rec);
  }
  const std::string path = "/tmp/pathdump_shard_corrupt.bin";
  ASSERT_GT(tib.SaveTo(path), 0u);

  // Truncate mid-row: header promises 64 rows, the tail is gone.
  std::string bytes = ReadFileBytes(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size() / 2));
  }
  Tib loaded(eight);
  EXPECT_EQ(loaded.LoadFrom(path), -1);
  EXPECT_EQ(loaded.size(), 0u);

  // Corrupt a row's path_len (offset 29 = 16-byte header + 13 bytes of
  // five-tuple fields) to an impossible value.
  bytes[29] = char(0xFF);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
  }
  EXPECT_EQ(loaded.LoadFrom(path), -1);
  EXPECT_EQ(loaded.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pathdump
