// Determinism tests for the controller's parallel query fan-out:
// Execute / ExecuteMultiLevel must return byte-identical QueryResults
// and identical QueryExecStats.network_bytes across 1, 4, and 16
// worker threads.  The ThreadPool itself is covered in
// tests/thread_pool_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/edge/fleet.h"
#include "src/netsim/network.h"
#include "src/topology/fat_tree.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

// --- Controller determinism across worker counts ---

// FatTree(8): 128 hosts, matching the "≥128 simulated hosts" bar of the
// Fig. 11/12 experiments (which use 112 of these hosts).
class ParallelControllerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = BuildFatTree(8);
    net_ = std::make_unique<Network>(&topo_, NetworkConfig{});
    fleet_ = std::make_unique<AgentFleet>(&topo_, &net_->codec());
    controller_ = std::make_unique<Controller>();
    controller_->RegisterFleet(*fleet_);

    // Deterministic per-host TIB contents: host h holds 8 flows from
    // distinct sources with byte counts that force real merge work.
    SimTime now = kNsPerSec;
    const std::vector<HostId>& hosts = topo_.hosts();
    for (size_t hi = 0; hi < hosts.size(); ++hi) {
      HostId h = hosts[hi];
      for (int f = 0; f < 8; ++f) {
        HostId src = hosts[(hi + size_t(f) + 1) % hosts.size()];
        TibRecord rec;
        rec.flow = testutil::MakeFlow(topo_, src, h, uint16_t(20000 + f));
        rec.path = CompactPath::FromPath({topo_.TorOfHost(h)});
        rec.stime = 0;
        rec.etime = now;
        rec.bytes = 1000 + uint64_t(hi) * 131 + uint64_t(f) * 17;
        rec.pkts = 10;
        fleet_->agent(h).IngestRecord(rec, now);
      }
    }
    hosts_ = controller_->registered_hosts();
    ASSERT_GE(hosts_.size(), 128u);
  }

  Topology topo_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<AgentFleet> fleet_;
  std::unique_ptr<Controller> controller_;
  std::vector<HostId> hosts_;
};

Controller::QueryFn TopKQuery() {
  return [](EdgeAgent& a) -> QueryResult { return a.TopK(50, TimeRange::All()); };
}

Controller::QueryFn HistogramQuery() {
  return [](EdgeAgent& a) -> QueryResult {
    // Wildcard link: every record matches.
    return a.FlowSizeDistribution(LinkId{kInvalidNode, kInvalidNode}, TimeRange::All(), 500);
  };
}

TEST_F(ParallelControllerTest, ExecuteIsDeterministicAcrossWorkerCounts) {
  auto [base, base_stats] = controller_->Execute(hosts_, TopKQuery());
  const auto& base_top = std::get<TopKFlows>(base);
  for (size_t workers : {size_t(4), size_t(16)}) {
    controller_->SetWorkerThreads(workers);
    auto [res, stats] = controller_->Execute(hosts_, TopKQuery());
    const auto& top = std::get<TopKFlows>(res);
    // Byte-identical payload, element for element (merge order is fixed).
    EXPECT_EQ(top.items, base_top.items) << workers << " workers";
    EXPECT_EQ(SerializedBytes(res), SerializedBytes(base));
    EXPECT_EQ(stats.network_bytes, base_stats.network_bytes);
    EXPECT_EQ(stats.response_bytes, base_stats.response_bytes);
    EXPECT_EQ(stats.hosts, base_stats.hosts);
  }
  controller_->SetWorkerThreads(1);
}

TEST_F(ParallelControllerTest, ExecuteMultiLevelIsDeterministicAcrossWorkerCounts) {
  auto [base, base_stats] = controller_->ExecuteMultiLevel(hosts_, TopKQuery());
  const auto& base_top = std::get<TopKFlows>(base);
  for (size_t workers : {size_t(4), size_t(16)}) {
    controller_->SetWorkerThreads(workers);
    auto [res, stats] = controller_->ExecuteMultiLevel(hosts_, TopKQuery());
    const auto& top = std::get<TopKFlows>(res);
    EXPECT_EQ(top.items, base_top.items) << workers << " workers";
    EXPECT_EQ(SerializedBytes(res), SerializedBytes(base));
    EXPECT_EQ(stats.network_bytes, base_stats.network_bytes);
    EXPECT_EQ(stats.response_bytes, base_stats.response_bytes);
  }
  controller_->SetWorkerThreads(1);
}

TEST_F(ParallelControllerTest, HistogramIdenticalAcrossWorkersAndMechanisms) {
  controller_->SetWorkerThreads(1);
  auto [dbase, dstats] = controller_->Execute(hosts_, HistogramQuery());
  auto [mbase, mstats] = controller_->ExecuteMultiLevel(hosts_, HistogramQuery());
  const auto& dh = std::get<FlowSizeHistogram>(dbase);
  const auto& mh = std::get<FlowSizeHistogram>(mbase);
  EXPECT_EQ(dh.bins, mh.bins);  // mechanisms agree
  for (size_t workers : {size_t(4), size_t(16)}) {
    controller_->SetWorkerThreads(workers);
    auto [dres, ds] = controller_->Execute(hosts_, HistogramQuery());
    auto [mres, ms] = controller_->ExecuteMultiLevel(hosts_, HistogramQuery());
    EXPECT_EQ(std::get<FlowSizeHistogram>(dres).bins, dh.bins);
    EXPECT_EQ(std::get<FlowSizeHistogram>(mres).bins, mh.bins);
    EXPECT_EQ(ds.network_bytes, dstats.network_bytes);
    EXPECT_EQ(ms.network_bytes, mstats.network_bytes);
  }
  controller_->SetWorkerThreads(1);
}

TEST_F(ParallelControllerTest, UnregisteredHostsAreSkippedIdentically) {
  // An unregistered host early in the list lands on an *interior*
  // aggregation-tree node, whose empty (monostate) contribution must
  // merge as the identity (regression: MergeQueryResult used to throw
  // bad_variant_access here).
  std::vector<HostId> with_bogus = hosts_;
  with_bogus.insert(with_bogus.begin() + 2, kInvalidNode - 1);
  auto [base, base_stats] = controller_->Execute(with_bogus, TopKQuery());
  auto [mbase, mbase_stats] = controller_->ExecuteMultiLevel(with_bogus, TopKQuery());
  controller_->SetWorkerThreads(8);
  auto [res, stats] = controller_->Execute(with_bogus, TopKQuery());
  auto [mres, mstats] = controller_->ExecuteMultiLevel(with_bogus, TopKQuery());
  EXPECT_EQ(std::get<TopKFlows>(res).items, std::get<TopKFlows>(base).items);
  EXPECT_EQ(stats.network_bytes, base_stats.network_bytes);
  EXPECT_EQ(std::get<TopKFlows>(mres).items, std::get<TopKFlows>(mbase).items);
  EXPECT_EQ(mstats.network_bytes, mbase_stats.network_bytes);
  controller_->SetWorkerThreads(1);
}

TEST_F(ParallelControllerTest, PipelinedReduceHandlesDegenerateTreeShapes) {
  // The pipelined reduce climbs a dependency chain per tree edge; a
  // chain tree (fanout 1) makes every merge depend on the previous one
  // — the worst case for the per-node counters — while a flat tree has
  // no interior merges at all.  Both must stay byte-identical to the
  // sequential baseline at any worker count.
  struct Shape {
    int top_fanout;
    int fanout;
  };
  for (Shape shape : {Shape{1, 1}, Shape{100, 4}, Shape{7, 4}}) {
    controller_->SetWorkerThreads(1);
    // 24 hosts keeps the chain deep (depth 24) but the test fast.
    std::vector<HostId> subset(hosts_.begin(), hosts_.begin() + 24);
    auto [base, base_stats] =
        controller_->ExecuteMultiLevel(subset, TopKQuery(), shape.top_fanout, shape.fanout);
    for (size_t workers : {size_t(4), size_t(16)}) {
      controller_->SetWorkerThreads(workers);
      auto [res, stats] =
          controller_->ExecuteMultiLevel(subset, TopKQuery(), shape.top_fanout, shape.fanout);
      EXPECT_EQ(res, base) << shape.top_fanout << "/" << shape.fanout << ", " << workers
                           << " workers";
      EXPECT_EQ(stats.network_bytes, base_stats.network_bytes);
      EXPECT_EQ(stats.response_bytes, base_stats.response_bytes);
    }
  }
  controller_->SetWorkerThreads(1);
}

TEST(TopKFinalizeTest, TiesTruncateByTotalOrder) {
  // Three flows tie at 500 bytes across the k-boundary; the retained set
  // must be the same no matter the arrival order of the tied items.
  FiveTuple fa{1, 2, 10, 80, kProtoTcp};
  FiveTuple fb{1, 2, 20, 80, kProtoTcp};
  FiveTuple fc{1, 2, 30, 80, kProtoTcp};
  TopKFlows x;
  x.k = 2;
  x.items = {{500, fc}, {500, fa}, {500, fb}};
  x.Finalize();
  TopKFlows y;
  y.k = 2;
  y.items = {{500, fb}, {500, fc}, {500, fa}};
  y.Finalize();
  EXPECT_EQ(x.items, y.items);
  EXPECT_EQ(x.items.size(), 2u);
}

TEST(TopKFinalizeTest, MatchesFullSortThenTruncate) {
  // Finalize partitions at k and sorts only the first k; the result must
  // equal a full sort under the same total order, truncated to k.  Few
  // distinct byte counts make long runs of ties across the k-boundary.
  const auto before = [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return b.first < a.first;
    }
    return a.second < b.second;
  };
  Rng rng(16, 0x70B);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.UniformInt(400);
    const uint32_t distinct_bytes = 1 + rng.UniformInt(4);
    std::vector<std::pair<uint64_t, FiveTuple>> items;
    for (size_t i = 0; i < n; ++i) {
      const FiveTuple flow{rng.UniformInt(32), rng.UniformInt(32), uint16_t(rng.UniformInt(8)),
                           80, kProtoTcp};
      items.emplace_back(uint64_t(rng.UniformInt(distinct_bytes)) * 1000, flow);
    }
    std::vector<std::pair<uint64_t, FiveTuple>> sorted = items;
    std::sort(sorted.begin(), sorted.end(), before);
    const size_t mid = 1 + rng.UniformInt(uint32_t(n));
    for (size_t k : {size_t(0), size_t(1), n - 1, n, n + 1, mid}) {
      TopKFlows t;
      t.k = k;
      t.items = items;
      t.Finalize();
      const size_t keep = k == 0 ? n : std::min(k, n);
      const std::vector<std::pair<uint64_t, FiveTuple>> expected(
          sorted.begin(), sorted.begin() + std::ptrdiff_t(keep));
      ASSERT_EQ(t.items, expected) << "trial " << trial << " n=" << n << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace pathdump
