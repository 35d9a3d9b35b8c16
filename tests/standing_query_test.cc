// Standing-query subsystem contract tests (the PR 4 tentpole):
//
//  1. Byte-identity — at every epoch boundary the materialized standing
//     result of all four kinds equals a fresh poll Execute over the same
//     TIB contents, across the {1, 4, 16} shards x {1, 4, 16} workers
//     matrix — through the named polls (also with a bounded time range
//     and non-default parameters) and through EdgeAgent::Poll for
//     half-wildcard links and flow-keyed specs.
//  2. Concurrency — epoch ticks racing Tib::Insert are safe (run under
//     ThreadSanitizer in CI) and the post-race materialization matches
//     a fresh poll.
//  3. Lifecycle — unsubscribe mid-epoch detaches the insert hook and
//     discards late deltas without corrupting other subscriptions.
//  4. Ordering — deltas arriving out of epoch order (simulated network
//     reordering) still fold to a deterministic materialized state.
//  5. Property — randomized arrival interleavings (out-of-order,
//     duplicate, orphan, gapped) across all four standing kinds fold to
//     poll identity; the failing seed is logged on mismatch.
//  6. Recovery — a stream marked stale discards ordinary deltas until a
//     snapshot re-baselines it (in-process Resync restores byte
//     identity for all four kinds), and the gap threshold declares
//     presumed-lost epochs stale + fires the resync requester.
//  7. Fold index — FoldState's open-addressed index against map-based
//     references: folds across many table growths, Add and Merge on a
//     copied state, FlowList pairs sharing a flow or a home slot; and
//     MergeQueryResult's copy (lvalue) and move (rvalue) forms.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/apps/load_imbalance.h"
#include "src/apps/traffic_measure.h"
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

// The shared synthetic fixture (src/workload/synthetic_records.h) at
// this file's historical distribution (2048-address IP space).
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

// The named polls — EdgeAgent's one-line forwards to Poll.  The matrix
// below polls through them, at the defaults and with a bounded range and
// non-default k / bin width, so each forward's argument mapping stays
// checked against a subscription built from the same parameters.
Controller::QueryFn PollTopK(size_t k = kTopK, TimeRange range = TimeRange::All()) {
  return [k, range](EdgeAgent& a) -> QueryResult { return a.TopK(k, range); };
}

Controller::QueryFn PollHistogram(TimeRange range = TimeRange::All(),
                                  int64_t bin_width = kBinWidth) {
  return [range, bin_width](EdgeAgent& a) -> QueryResult {
    return a.FlowSizeDistribution(kProbeLink, range, bin_width);
  };
}

Controller::QueryFn PollFlowList(TimeRange range = TimeRange::All()) {
  return [range](EdgeAgent& a) -> QueryResult { return FlowList{a.GetFlows(kProbeLink, range)}; };
}

Controller::QueryFn PollCount(TimeRange range = TimeRange::All()) {
  return [range](EdgeAgent& a) -> QueryResult { return a.CountOnLink(kProbeLink, range); };
}

// A small fleet sharing one topology/codec, owned per test.
struct Testbed {
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  std::vector<std::unique_ptr<EdgeAgent>> agents;
  std::vector<HostId> hosts;

  explicit Testbed(size_t num_agents, size_t shards)
      : topo(BuildFatTree(4)), labels(&topo), codec(&topo, &labels) {
    for (size_t a = 0; a < num_agents; ++a) {
      HostId h = topo.hosts()[a];
      EdgeAgentConfig cfg;
      cfg.tib_options.num_shards = shards;
      agents.push_back(std::make_unique<EdgeAgent>(h, &topo, &codec, cfg));
      controller.RegisterAgent(agents.back().get());
      hosts.push_back(h);
    }
  }
};

// --- 1. Poll-vs-standing byte-identity across the shard x worker matrix ---

TEST(StandingQueryDeterminism, MatchesPollAcrossShardWorkerMatrix) {
  const int kPerAgent = 12000;
  const int kEpochs = 4;
  const size_t kAgents = 4;
  std::vector<std::vector<TibRecord>> records;
  for (size_t a = 0; a < kAgents; ++a) {
    records.push_back(MakeRecords(kPerAgent, 0x5D00 + uint32_t(a)));
  }

  // Beyond the default polls: every kind under a bounded time range and
  // under the half-wildcard links (<*, s>) and (<s, *>).  Records start
  // on whole seconds and last up to 5 s, so half-second edges cut
  // through records on both sides.
  const TimeRange bounded{1200 * kNsPerSec + 500 * kNsPerMs, 2400 * kNsPerSec + 500 * kNsPerMs};
  size_t straddle_begin = 0;
  size_t straddle_end = 0;
  for (const auto& agent_records : records) {
    for (const TibRecord& rec : agent_records) {
      straddle_begin += rec.stime < bounded.begin && rec.etime >= bounded.begin;
      straddle_end += rec.stime < bounded.end && rec.etime >= bounded.end;
    }
  }
  ASSERT_GT(straddle_begin, 0u);
  ASSERT_GT(straddle_end, 0u);
  // The bounded set goes through the named polls, with non-default k and
  // bin width; the half-wildcard sets (every kind filtered by the link,
  // TopK included) go through EdgeAgent::Poll.
  const size_t bounded_k = 200;
  const int64_t bounded_bin = 25000;
  std::vector<StandingQuerySpec> named =
      testutil::FourKindSpecs(bounded_k, kProbeLink, bounded_bin);
  for (StandingQuerySpec& spec : named) {
    spec.range = bounded;
  }
  std::vector<std::pair<StandingQuerySpec, Controller::QueryFn>> extras = {
      {named[0], PollTopK(bounded_k, bounded)},
      {named[1], PollHistogram(bounded, bounded_bin)},
      {named[2], PollFlowList(bounded)},
      {named[3], PollCount(bounded)}};
  const std::vector<std::pair<LinkId, TimeRange>> half_wildcards = {
      {LinkId{kInvalidNode, kProbeLink.dst}, bounded},
      {LinkId{kProbeLink.src, kInvalidNode}, TimeRange::All()}};
  for (const auto& [link, range] : half_wildcards) {
    for (StandingQuerySpec spec : kSpecs) {
      spec.link = link;
      spec.range = range;
      extras.emplace_back(spec, testutil::PollOf(spec));
    }
  }
  // Flow-keyed shapes (getPaths, getCount): agent 0's first flow, reused
  // by every 997th of its records across all epochs, every other one of
  // those on the first record's path.  A FlowList keyed to it under a
  // half-wildcard link its first path passes, and a CountSummary keyed
  // to it with that exact path.
  const FiveTuple key = records[0][0].flow;
  const CompactPath key_path = records[0][0].path;
  for (size_t i = 997; i < records[0].size(); i += 997) {
    records[0][i].flow = key;
    if (i % 1994 == 0) {
      records[0][i].path = key_path;
    }
  }
  const StandingQuerySpec keyed_list{.kind = StandingQuerySpec::Kind::kFlowList,
                                     .link = LinkId{kInvalidNode, key_path.sw[1]},
                                     .flow = key};
  const StandingQuerySpec keyed_count{
      .kind = StandingQuerySpec::Kind::kCountSummary, .flow = key, .path = key_path};
  for (const StandingQuerySpec& spec : {keyed_list, keyed_count}) {
    extras.emplace_back(spec, testutil::PollOf(spec));
  }

  for (size_t shards : {size_t(1), size_t(4), size_t(16)}) {
    Testbed tb(kAgents, shards);
    SubscriptionManager manager(&tb.controller);
    uint64_t topk_sub = SubscribeTopK(manager, tb.hosts, kTopK);
    uint64_t hist_sub =
        SubscribeFlowSizeDistribution(manager, tb.hosts, kProbeLink, TimeRange::All(), kBinWidth);
    uint64_t list_sub = SubscribeFlowList(manager, tb.hosts, kProbeLink);
    uint64_t count_sub = SubscribeCountSummary(manager, tb.hosts, kProbeLink);
    std::vector<uint64_t> extra_subs;
    for (const auto& [spec, poll] : extras) {
      extra_subs.push_back(manager.Subscribe(tb.hosts, spec));
    }

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      // One epoch's worth of inserts on every agent...
      for (size_t a = 0; a < kAgents; ++a) {
        for (int i = epoch * kPerAgent / kEpochs; i < (epoch + 1) * kPerAgent / kEpochs; ++i) {
          tb.agents[a]->tib().Insert(records[a][size_t(i)]);
        }
      }
      // ... then an epoch boundary.
      manager.TickEpoch();
      manager.Flush();

      // At the boundary, the materialized standing result must equal a
      // fresh poll over the same records — at every worker count, for
      // all four kinds.
      for (size_t workers : {size_t(1), size_t(4), size_t(16)}) {
        tb.controller.SetWorkerThreads(workers);
        ThreadPool scan_pool(workers);
        for (auto& agent : tb.agents) {
          agent->SetQueryThreadPool(workers > 1 ? &scan_pool : nullptr);
        }
        auto [poll_topk, tstats] = tb.controller.Execute(tb.hosts, PollTopK());
        auto [poll_hist, hstats] = tb.controller.Execute(tb.hosts, PollHistogram());
        auto [poll_list, lstats] = tb.controller.Execute(tb.hosts, PollFlowList());
        auto [poll_count, cstats] = tb.controller.Execute(tb.hosts, PollCount());
        QueryResult standing_topk = manager.Materialize(topk_sub);
        QueryResult standing_hist = manager.Materialize(hist_sub);
        QueryResult standing_list = manager.Materialize(list_sub);
        QueryResult standing_count = manager.Materialize(count_sub);
        EXPECT_EQ(standing_topk, poll_topk)
            << shards << " shards, " << workers << " workers, epoch " << epoch;
        EXPECT_EQ(standing_hist, poll_hist)
            << shards << " shards, " << workers << " workers, epoch " << epoch;
        EXPECT_EQ(standing_list, poll_list)
            << shards << " shards, " << workers << " workers, epoch " << epoch;
        EXPECT_EQ(standing_count, poll_count)
            << shards << " shards, " << workers << " workers, epoch " << epoch;
        EXPECT_EQ(SerializedBytes(standing_topk), SerializedBytes(poll_topk));
        EXPECT_EQ(SerializedBytes(standing_list), SerializedBytes(poll_list));
        for (size_t i = 0; i < extras.size(); ++i) {
          auto [poll, stats] = tb.controller.Execute(tb.hosts, extras[i].second);
          EXPECT_EQ(manager.Materialize(extra_subs[i]), poll)
              << shards << " shards, " << workers << " workers, epoch " << epoch
              << ", extra spec " << i;
        }
        for (auto& agent : tb.agents) {
          agent->SetQueryThreadPool(nullptr);
        }
      }
      tb.controller.SetWorkerThreads(1);
    }
    // Delta accounting: every epoch shipped something, and the folded
    // wire bytes stayed O(delta), not O(TIB).
    SubscriptionInfo info = manager.info(topk_sub);
    EXPECT_EQ(info.hosts, kAgents);
    EXPECT_GE(info.deltas_folded, uint64_t(kEpochs));
    EXPECT_EQ(info.pending_gaps, 0u);
    EXPECT_GT(manager.info(list_sub).delta_bytes, 0u);
    EXPECT_GT(manager.info(count_sub).deltas_folded, 0u);
    // The keyed shapes matched more than the one record they were
    // picked from.
    EXPECT_GE(std::get<FlowList>(tb.agents[0]->Poll(keyed_list)).flows.size(), 2u);
    EXPECT_GT(std::get<CountSummary>(tb.agents[0]->Poll(keyed_count)).pkts,
              uint64_t(records[0][0].pkts));
  }
}

TEST(StandingQueryDeterminism, EmptyEpochsShipNothingAndAppResultsMatch) {
  Testbed tb(2, 4);
  SubscriptionManager manager(&tb.controller);
  uint64_t topk_sub = SubscribeTopK(manager, tb.hosts, kTopK);
  uint64_t hist_sub =
      SubscribeFlowSizeDistribution(manager, tb.hosts, kProbeLink, TimeRange::All(), kBinWidth);

  std::vector<TibRecord> records = MakeRecords(5000, 0xE44);
  for (const TibRecord& rec : records) {
    tb.agents[0]->tib().Insert(rec);
  }
  // Drive this boundary from the agents' side (EpochTick ticks every
  // registration on the agent) — same channel, same semantics as the
  // manager-driven TickEpoch used below.
  for (auto& agent : tb.agents) {
    agent->EpochTick();
  }
  // No inserts since the last boundary: these epochs must ship nothing.
  manager.TickEpoch();
  manager.TickEpoch();
  manager.Flush();
  SubscriptionManagerStats stats = manager.stats();
  EXPECT_EQ(stats.deltas_reordered, 0u);
  EXPECT_EQ(stats.deltas_folded, stats.deltas_submitted);
  // Only the first boundary produced deltas (one per matching host/sub).
  EXPECT_LE(stats.deltas_submitted, 2u * 2u);

  // The app-level accessors agree with their poll twins.
  TopKFlows standing_topk = TopKStanding(manager, topk_sub);
  TopKFlows poll_topk = TopKAcrossHosts(tb.controller, tb.hosts, kTopK, TimeRange::All(),
                                        /*multi_level=*/false);
  EXPECT_EQ(standing_topk, poll_topk);
  FlowSizeHistogram standing_hist = FlowSizeDistributionStanding(manager, hist_sub);
  FlowSizeHistogram poll_hist = FlowSizeDistributionForLink(
      tb.controller, tb.hosts, kProbeLink, TimeRange::All(), kBinWidth, /*multi_level=*/false);
  EXPECT_EQ(standing_hist, poll_hist);
}

TEST(StandingQueryDeterminism, RecordKindDeltasShipFoldIncrements) {
  // A FlowList delta carries each distinct (flow, path) once, with its
  // smaller insertion id; a CountSummary delta is one (bytes, pkts) pair
  // however many records it sums.  Deltas are captured at the agent and
  // forwarded to a remote-style subscription, so both the shipped
  // increments and their folded results are checked.
  Testbed tb(1, 4);
  EdgeAgent& agent = *tb.agents[0];
  SubscriptionManager manager(&tb.controller);
  const std::vector<StandingQuerySpec> specs = {kSpecs[2], kSpecs[3]};
  std::vector<QueryDelta> captured;
  std::vector<uint64_t> subs;
  std::vector<int> capture_ids;
  for (const StandingQuerySpec& spec : specs) {
    subs.push_back(manager.SubscribeRemote(tb.hosts, spec));
    capture_ids.push_back(
        agent.RegisterStandingQuery(subs.back(), spec, [&](QueryDelta&& d) {
          captured.push_back(d);
          manager.SubmitDelta(std::move(d));
        }));
  }
  auto tick = [&] {
    captured.clear();
    for (int id : capture_ids) {
      agent.EpochTickOne(id);
    }
  };

  TibRecord rec;
  rec.flow = FiveTuple{1, 2, 10, 80, kProtoTcp};
  rec.path = CompactPath::FromPath({1, kProbeLink.src, kProbeLink.dst, 2});
  rec.stime = 0;
  rec.etime = kNsPerSec;
  rec.bytes = 100;
  rec.pkts = 2;
  TibRecord other = rec;
  other.flow.src_port = 11;

  // One epoch inserts rec, other, then rec again.
  agent.tib().Insert(rec);
  agent.tib().Insert(other);
  agent.tib().Insert(rec);
  tick();
  ASSERT_EQ(captured.size(), 2u);
  const std::vector<FoldState::FlowItem>& items = captured[0].payload.flow_items;
  ASSERT_EQ(items.size(), 2u);
  const auto item_of = [&items](const FiveTuple& flow) {
    return std::find_if(items.begin(), items.end(),
                        [&flow](const FoldState::FlowItem& item) { return item.flow == flow; });
  };
  ASSERT_NE(item_of(rec.flow), items.end());
  ASSERT_NE(item_of(other.flow), items.end());
  EXPECT_LT(item_of(rec.flow)->id, item_of(other.flow)->id);  // the first insert's id
  const size_t count_delta_bytes = captured[1].SerializedSize();
  EXPECT_EQ(count_delta_bytes, 24u + 16u + 16u);

  for (int matching : {1, 1000}) {
    for (int i = 0; i < matching; ++i) {
      TibRecord r = other;
      r.flow.dst_port = uint16_t(1000 + i);
      agent.tib().Insert(r);
    }
    tick();
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[1].SerializedSize(), count_delta_bytes) << matching << " records";
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(specs[i]));
    EXPECT_EQ(manager.Materialize(subs[i]), poll) << "kind " << int(specs[i].kind);
  }
  for (int id : capture_ids) {
    agent.UnregisterStandingQuery(id);
  }
}

// --- 2. Epoch ticks racing Tib::Insert (TSan) ---

TEST(StandingQueryConcurrency, EpochTicksRaceInserts) {
  const int kPreload = 20000;
  const int kPerWriter = 10000;
  std::vector<TibRecord> records = MakeRecords(kPreload + 2 * kPerWriter, 0xACE2);

  Testbed tb(1, 8);
  EdgeAgent& agent = *tb.agents[0];
  // Subscribe before any data: the standing state must account for
  // every record the poll sees.
  SubscriptionManager manager(&tb.controller);
  uint64_t sub = SubscribeTopK(manager, tb.hosts, kTopK);
  for (int i = 0; i < kPreload; ++i) {
    agent.tib().Insert(records[size_t(i)]);
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
  std::thread ticker([&] {
    uint64_t boundaries = 0;
    while (!done.load(std::memory_order_acquire)) {
      manager.TickEpoch();
      ++boundaries;
    }
    EXPECT_GE(boundaries, 1u);
  });
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_release);
  ticker.join();

  // Quiesce: one final boundary captures whatever the racing ticks
  // missed, then the materialized state must equal a fresh poll.
  manager.TickEpoch();
  manager.Flush();
  auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[0]));
  EXPECT_EQ(manager.Materialize(sub), poll);
  EXPECT_EQ(manager.stats().deltas_folded, manager.stats().deltas_submitted);
}

// --- 3. Unsubscribe mid-epoch ---

TEST(StandingQueryLifecycle, UnsubscribeMidEpochDetachesCleanly) {
  Testbed tb(2, 4);
  SubscriptionManager manager(&tb.controller);
  uint64_t doomed = SubscribeTopK(manager, tb.hosts, kTopK);
  uint64_t kept =
      SubscribeFlowSizeDistribution(manager, tb.hosts, kProbeLink, TimeRange::All(), kBinWidth);
  EXPECT_EQ(manager.subscription_count(), 2u);
  EXPECT_EQ(tb.agents[0]->StandingQueryCount(), 2u);
  EXPECT_EQ(tb.agents[0]->tib().insert_hook_count(), 2u);

  std::vector<TibRecord> records = MakeRecords(6000, 0x0DD1);
  for (size_t i = 0; i < 3000; ++i) {
    tb.agents[0]->tib().Insert(records[i]);
  }
  manager.TickEpoch();
  // Mid-epoch: more data has accumulated but no boundary yet.
  for (size_t i = 3000; i < records.size(); ++i) {
    tb.agents[1]->tib().Insert(records[i]);
  }
  manager.Unsubscribe(doomed);
  EXPECT_EQ(manager.subscription_count(), 1u);
  EXPECT_EQ(tb.agents[0]->StandingQueryCount(), 1u);
  EXPECT_EQ(tb.agents[0]->tib().insert_hook_count(), 1u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(manager.Materialize(doomed)));

  // Inserts keep flowing with the hook gone, and the surviving
  // subscription still matches its poll twin at the next boundary.
  for (const TibRecord& rec : MakeRecords(1000, 0x0DD2)) {
    tb.agents[0]->tib().Insert(rec);
  }
  manager.TickEpoch();
  manager.Flush();
  auto [poll_hist, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[1]));
  EXPECT_EQ(manager.Materialize(kept), poll_hist);
}

TEST(StandingQueryLifecycle, UnsubscribeRacesInserts) {
  Testbed tb(1, 8);
  EdgeAgent& agent = *tb.agents[0];
  SubscriptionManager manager(&tb.controller);
  std::vector<TibRecord> records = MakeRecords(20000, 0x5AFE);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const TibRecord& rec : records) {
      agent.tib().Insert(rec);
    }
    done.store(true, std::memory_order_release);
  });
  // Subscribe/tick/unsubscribe churn while the writer runs: hook
  // install/remove synchronizes with in-flight inserts via the shard
  // locks (TSan-covered in CI).
  uint64_t churned = 0;
  while (!done.load(std::memory_order_acquire)) {
    uint64_t sub = SubscribeTopK(manager, tb.hosts, kTopK);
    manager.TickEpoch();
    manager.Unsubscribe(sub);
    ++churned;
  }
  writer.join();
  EXPECT_GE(churned, 1u);
  EXPECT_EQ(agent.tib().insert_hook_count(), 0u);
  EXPECT_EQ(agent.tib().size(), records.size());

  // A fresh subscription sees only post-subscription inserts — and
  // after inserting more, matches a poll restricted to those records?
  // No: standing state starts empty by design.  Assert exactly that.
  uint64_t fresh = SubscribeTopK(manager, tb.hosts, kTopK);
  manager.TickEpoch();
  manager.Flush();
  EXPECT_EQ(manager.info(fresh).deltas_folded, 0u);
  TopKFlows empty = TopKStanding(manager, fresh);
  EXPECT_TRUE(empty.items.empty());
}

// --- 4. Out-of-order delta arrival ---

TEST(StandingQueryOrdering, ReorderedDeltasFoldDeterministically) {
  Testbed tb(1, 4);
  SubscriptionManager manager(&tb.controller);
  uint64_t sub = SubscribeTopK(manager, tb.hosts, kTopK);
  HostId host = tb.hosts[0];

  auto delta_for = [&](uint64_t epoch, uint16_t port, uint64_t bytes) {
    QueryDelta d;
    d.subscription_id = sub;
    d.host = host;
    d.epoch = epoch;
    d.payload.flows = {{FiveTuple{1, 2, port, 80, kProtoTcp}, bytes}};
    return d;
  };

  // Epochs arrive 2, 3, 1: the first two must be buffered (a gap), and
  // folding must happen in epoch order once 1 lands.
  ASSERT_TRUE(manager.SubmitDelta(delta_for(2, 20, 200)));
  ASSERT_TRUE(manager.SubmitDelta(delta_for(3, 30, 300)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_reordered, 2u);
  EXPECT_EQ(manager.stats().deltas_folded, 0u);
  EXPECT_EQ(manager.info(sub).pending_gaps, 2u);
  // A duplicate of a still-gapped epoch is a duplicate, not a reorder.
  ASSERT_TRUE(manager.SubmitDelta(delta_for(3, 30, 300)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_reordered, 2u);
  EXPECT_EQ(manager.stats().deltas_orphaned, 1u);
  // Materialization before the gap closes reflects no folded epoch.
  TopKFlows before = TopKStanding(manager, sub);
  EXPECT_TRUE(before.items.empty());

  ASSERT_TRUE(manager.SubmitDelta(delta_for(1, 10, 100)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_folded, 3u);
  EXPECT_EQ(manager.info(sub).pending_gaps, 0u);

  // A duplicate of an already-folded epoch is dropped, not re-applied.
  ASSERT_TRUE(manager.SubmitDelta(delta_for(2, 20, 200)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_orphaned, 2u);

  // The folded state equals the in-order fold.
  TopKFlows after = TopKStanding(manager, sub);
  ASSERT_EQ(after.items.size(), 3u);
  EXPECT_EQ(after.items[0].first, 300u);
  EXPECT_EQ(after.items[1].first, 200u);
  EXPECT_EQ(after.items[2].first, 100u);
}

TEST(StandingQueryOrdering, OrphanedDeltasAreCountedNotFolded) {
  Testbed tb(1, 4);
  SubscriptionManager manager(&tb.controller);
  QueryDelta d;
  d.subscription_id = 999;  // never subscribed
  d.host = tb.hosts[0];
  d.epoch = 1;
  d.payload.flows = {{FiveTuple{1, 2, 3, 80, kProtoTcp}, 42}};
  ASSERT_TRUE(manager.SubmitDelta(std::move(d)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_orphaned, 1u);
  EXPECT_EQ(manager.stats().deltas_folded, 0u);
}

// --- Periodic-driven epochs via the agent's own Tick ---

TEST(StandingQueryPeriodic, AgentTickDrivesEpochs) {
  Testbed tb(1, 4);
  EdgeAgent& agent = *tb.agents[0];
  SubscriptionManager manager(&tb.controller);
  uint64_t sub =
      SubscribeTopK(manager, tb.hosts, kTopK, TimeRange::All(), /*epoch_period=*/kNsPerSec);
  EXPECT_EQ(agent.InstalledQueryCount(), 1u);

  std::vector<TibRecord> records = MakeRecords(4000, 0x71C);
  for (size_t i = 0; i < 2000; ++i) {
    agent.tib().Insert(records[i]);
  }
  agent.Tick(2 * kNsPerSec);  // periodic epoch boundary fires
  for (size_t i = 2000; i < records.size(); ++i) {
    agent.tib().Insert(records[i]);
  }
  agent.Tick(4 * kNsPerSec);
  manager.Flush();
  EXPECT_EQ(manager.info(sub).deltas_folded, 2u);

  auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[0]));
  EXPECT_EQ(manager.Materialize(sub), poll);

  manager.Unsubscribe(sub);
  EXPECT_EQ(agent.InstalledQueryCount(), 0u);  // periodic tick uninstalled too
}

// --- 5. Property: randomized arrival interleavings fold to poll identity ---
//
// The channel contract says arrival order can never leak into results:
// the manager folds strictly in epoch order per (subscription, host),
// buffering gaps and dropping duplicates/orphans.  This fuzz-style case
// attacks that with seeded randomized schedules across ALL FOUR standing
// kinds at once: epoch deltas are captured at the agent (a second
// accumulator registered with the subscription's own id and a capturing
// sink — the manager's accumulators are never ticked), then replayed
// into SubmitDelta in a shuffled order with random duplicates and
// orphans injected.  After the full fold every kind must equal its poll
// twin.  On mismatch the failing seed is in the assertion message —
// rerun with it to reproduce.

TEST(StandingQueryProperty, RandomizedArrivalsFoldToPollIdentityAllKinds) {
  const int kEpochs = 6;
  const int kPerEpoch = 700;
  for (uint32_t seed : {0xF00Du, 0xBEEFu, 0x5EED1u, 0x5EED2u}) {
    Rng rng(seed);
    Testbed tb(1, 4);
    EdgeAgent& agent = *tb.agents[0];
    SubscriptionManager manager(&tb.controller);

    struct KindUnderTest {
      uint64_t sub = 0;
      int capture_id = -1;
      StandingQuerySpec spec;
    };
    std::vector<QueryDelta> captured;
    std::vector<KindUnderTest> kinds;
    for (const StandingQuerySpec& spec : kSpecs) {
      KindUnderTest k;
      k.sub = manager.Subscribe(tb.hosts, spec);
      k.capture_id = agent.RegisterStandingQuery(
          k.sub, spec, [&captured](QueryDelta&& d) { captured.push_back(std::move(d)); });
      k.spec = spec;
      kinds.push_back(std::move(k));
    }

    std::vector<TibRecord> records =
        MakeRecords(kEpochs * kPerEpoch, 0xAB00 + seed);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (int i = epoch * kPerEpoch; i < (epoch + 1) * kPerEpoch; ++i) {
        agent.tib().Insert(records[size_t(i)]);
      }
      for (const KindUnderTest& k : kinds) {
        agent.EpochTickOne(k.capture_id);
      }
    }
    for (const KindUnderTest& k : kinds) {
      agent.UnregisterStandingQuery(k.capture_id);
    }

    // Build the adversarial schedule: every captured delta exactly once,
    // plus random duplicates and orphans, in a seeded random order.
    // Shuffling alone yields gapped + out-of-order arrivals (a later
    // epoch drawn before an earlier one must buffer).
    std::vector<QueryDelta> schedule = captured;
    uint64_t injected_junk = 0;
    for (const QueryDelta& d : captured) {
      if (rng.Bernoulli(0.3)) {
        schedule.push_back(d);  // duplicate: must fold at most once
        ++injected_junk;
      }
    }
    for (int i = 0; i < 3; ++i) {
      QueryDelta orphan = captured[rng.UniformInt(uint32_t(captured.size()))];
      orphan.subscription_id = 424242 + uint64_t(i);  // never subscribed
      schedule.push_back(std::move(orphan));
      ++injected_junk;
    }
    {
      QueryDelta stray = captured[rng.UniformInt(uint32_t(captured.size()))];
      stray.host = HostId(9999);  // subscribed id, unknown host
      schedule.push_back(std::move(stray));
      ++injected_junk;
    }
    for (size_t i = schedule.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(schedule[i - 1], schedule[rng.UniformInt(uint32_t(i))]);
    }

    for (QueryDelta& d : schedule) {
      ASSERT_TRUE(manager.SubmitDelta(std::move(d)));
    }
    manager.Flush();

    SubscriptionManagerStats stats = manager.stats();
    EXPECT_EQ(stats.deltas_folded, captured.size()) << "seed=" << seed;
    EXPECT_EQ(stats.deltas_orphaned, injected_junk) << "seed=" << seed;
    for (const KindUnderTest& k : kinds) {
      EXPECT_EQ(manager.info(k.sub).pending_gaps, 0u) << "seed=" << seed;
      auto [poll, pstats] = tb.controller.Execute(tb.hosts, testutil::PollOf(k.spec));
      EXPECT_EQ(manager.Materialize(k.sub), poll)
          << "seed=" << seed << " kind="
          << int(manager.info(k.sub).spec.kind);
    }
  }
}

// --- 6. Crash recovery: stale streams and snapshot resync ---

TEST(StandingQueryRecovery, InProcessResyncRestoresByteIdentityAllKinds) {
  const int kPerEpoch = 3000;
  Testbed tb(2, 4);
  SubscriptionManager manager(&tb.controller);
  const std::vector<uint64_t> subs = {
      SubscribeTopK(manager, tb.hosts, kTopK),
      SubscribeFlowSizeDistribution(manager, tb.hosts, kProbeLink, TimeRange::All(),
                                    kBinWidth),
      SubscribeFlowList(manager, tb.hosts, kProbeLink),
      SubscribeCountSummary(manager, tb.hosts, kProbeLink)};
  auto expect_identity = [&](const char* ctx) {
    for (size_t s = 0; s < subs.size(); ++s) {
      auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[s]));
      EXPECT_EQ(manager.Materialize(subs[s]), poll) << ctx << ", kind " << s;
    }
  };
  auto ingest = [&](uint32_t seed) {
    for (size_t a = 0; a < tb.agents.size(); ++a) {
      for (const TibRecord& rec : MakeRecords(kPerEpoch, seed + uint32_t(a))) {
        tb.agents[a]->tib().Insert(rec);
      }
    }
  };

  for (uint32_t epoch = 1; epoch <= 2; ++epoch) {
    ingest(0x9E00u * epoch);
    manager.TickEpoch();
    manager.Flush();
  }
  expect_identity("pre-loss");

  // Simulated loss on host 0: all four of its streams go stale — the
  // next epoch's deltas for them are discarded (their increments are
  // unusable without the lost prefix).
  const HostId victim = tb.hosts[0];
  for (uint64_t id : subs) {
    EXPECT_TRUE(manager.MarkStale(id, victim));
    EXPECT_FALSE(manager.MarkStale(id, victim));  // one mark per episode
  }
  EXPECT_EQ(manager.stale_streams(), subs.size());
  ingest(0x9E00u * 3);
  manager.TickEpoch();
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_stale_discarded, subs.size());

  // In-process resync: snapshot through the attachment, fold it as the
  // new baseline, and byte-identity is restored for every kind.
  for (uint64_t id : subs) {
    EXPECT_TRUE(manager.Resync(id, victim));
  }
  manager.Flush();
  EXPECT_EQ(manager.stale_streams(), 0u);
  EXPECT_EQ(manager.stats().snapshot_folds, subs.size());
  EXPECT_EQ(manager.stats().resyncs, subs.size());
  expect_identity("post-resync");

  // Strict-epoch delta folding resumes from the re-anchored epoch: the
  // next boundary folds cleanly, no gap, still byte-identical.
  ingest(0x9E00u * 4);
  manager.TickEpoch();
  manager.Flush();
  for (uint64_t id : subs) {
    EXPECT_EQ(manager.info(id).pending_gaps, 0u);
  }
  expect_identity("post-recovery epoch");

  EXPECT_FALSE(manager.Resync(9999, victim));  // unknown subscription
  const SubscriptionManagerStats ss = manager.stats();
  EXPECT_EQ(ss.deltas_submitted,
            ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);
}

TEST(StandingQueryRecovery, GapThresholdDeclaresStaleAndSnapshotRebaselines) {
  Testbed tb(1, 4);
  SubscriptionManagerOptions opts;
  opts.gap_resync_threshold = 2;
  SubscriptionManager manager(&tb.controller, opts);
  const uint64_t sub = SubscribeTopK(manager, tb.hosts, kTopK);
  const HostId host = tb.hosts[0];

  std::mutex fired_mu;
  std::vector<std::pair<uint64_t, HostId>> fired;
  manager.SetResyncRequester([&](uint64_t id, HostId h) {
    std::lock_guard<std::mutex> lock(fired_mu);
    fired.emplace_back(id, h);
  });
  auto fired_count = [&] {
    std::lock_guard<std::mutex> lock(fired_mu);
    return fired.size();
  };

  auto delta_for = [&](uint64_t epoch, uint16_t port, uint64_t bytes) {
    QueryDelta d;
    d.subscription_id = sub;
    d.host = host;
    d.epoch = epoch;
    d.payload.flows = {{FiveTuple{1, 2, port, 80, kProtoTcp}, bytes}};
    return d;
  };

  ASSERT_TRUE(manager.SubmitDelta(delta_for(1, 10, 100)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_folded, 1u);

  // Epoch 2 lost upstream.  Epoch 3 buffers (below threshold, no fire);
  // epoch 4 reaches the threshold: the stream goes stale, the buffered
  // stragglers are discarded, and the requester fires exactly once.
  ASSERT_TRUE(manager.SubmitDelta(delta_for(3, 30, 300)));
  manager.Flush();
  EXPECT_EQ(fired_count(), 0u);
  ASSERT_TRUE(manager.SubmitDelta(delta_for(4, 40, 400)));
  manager.Flush();
  {
    std::lock_guard<std::mutex> lock(fired_mu);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].first, sub);
    EXPECT_EQ(fired[0].second, host);
  }
  EXPECT_EQ(manager.stale_streams(), 1u);
  EXPECT_EQ(manager.stats().resyncs, 1u);
  EXPECT_EQ(manager.stats().deltas_stale_discarded, 2u);  // the cleared buffer
  EXPECT_EQ(manager.info(sub).pending_gaps, 0u);

  // While stale, ordinary deltas are discarded and nothing re-fires —
  // one outstanding request per stale episode.
  ASSERT_TRUE(manager.SubmitDelta(delta_for(5, 50, 500)));
  manager.Flush();
  EXPECT_EQ(manager.stats().deltas_stale_discarded, 3u);
  EXPECT_EQ(fired_count(), 1u);

  // The snapshot replaces the stream's state wholesale and re-anchors
  // the epoch counter at snapshot + 1.
  QueryDelta snap;
  snap.subscription_id = sub;
  snap.host = host;
  snap.epoch = 6;
  snap.snapshot = true;
  snap.payload.flows = {{FiveTuple{1, 2, 10, 80, kProtoTcp}, 100},
                        {FiveTuple{1, 2, 30, 80, kProtoTcp}, 300},
                        {FiveTuple{1, 2, 40, 80, kProtoTcp}, 400}};
  ASSERT_TRUE(manager.SubmitDelta(std::move(snap)));
  manager.Flush();
  EXPECT_EQ(manager.stale_streams(), 0u);
  EXPECT_EQ(manager.stats().snapshot_folds, 1u);

  ASSERT_TRUE(manager.SubmitDelta(delta_for(7, 70, 700)));
  manager.Flush();
  EXPECT_EQ(manager.info(sub).pending_gaps, 0u);
  TopKFlows top = TopKStanding(manager, sub);
  ASSERT_EQ(top.items.size(), 4u);
  EXPECT_EQ(top.items[0].first, 700u);
  EXPECT_EQ(top.items[1].first, 400u);
  EXPECT_EQ(top.items[2].first, 300u);
  EXPECT_EQ(top.items[3].first, 100u);

  const SubscriptionManagerStats ss = manager.stats();
  EXPECT_EQ(ss.deltas_submitted,
            ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);
  manager.SetResyncRequester(nullptr);
}

// --- 7. Fold index ---

FiveTuple IndexedFlow(uint32_t i) {
  return FiveTuple{0x0A000000u + (i >> 8), 0x0B000000u + (i & 0xFF), uint16_t(i), 80, kProtoTcp};
}

TibRecord FlowRecord(const FiveTuple& flow, uint64_t bytes) {
  TibRecord rec;
  rec.flow = flow;
  rec.bytes = bytes;
  rec.pkts = 1;
  return rec;
}

StandingQuerySpec TopKSpec() {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kTopK;
  spec.k = kTopK;
  return spec;
}

StandingQuerySpec FlowListSpec() {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kFlowList;
  return spec;
}

// Per-flow sums in first-appearance order, from a FlowBytesMap.
std::vector<FoldState::FlowSum> FlowSumReference(const std::vector<TibRecord>& records) {
  FlowBytesMap bytes;
  std::vector<FiveTuple> order;
  for (const TibRecord& rec : records) {
    auto [it, fresh] = bytes.try_emplace(rec.flow, 0);
    if (fresh) {
      order.push_back(rec.flow);
    }
    it->second += rec.bytes;
  }
  std::vector<FoldState::FlowSum> out;
  for (const FiveTuple& flow : order) {
    out.push_back({flow, bytes.at(flow)});
  }
  return out;
}

TEST(FoldStateIndex, LargeFoldsMatchFlowBytesReference) {
  // 120 000 distinct flows, each seen up to three times in a shuffled
  // order: the index grows from 16 slots to 2^18, and every growth must
  // keep every earlier flow findable.
  constexpr uint32_t kFlows = 120000;
  Rng rng(16, 0xF01D);
  std::vector<TibRecord> records;
  for (uint32_t i = 0; i < kFlows; ++i) {
    const uint32_t copies = 1 + rng.UniformInt(3);
    for (uint32_t c = 0; c < copies; ++c) {
      records.push_back(FlowRecord(IndexedFlow(i), rng.UniformInt(5000)));
    }
  }
  for (size_t i = records.size() - 1; i > 0; --i) {
    std::swap(records[i], records[rng.UniformInt(uint32_t(i + 1))]);
  }
  const std::vector<FoldState::FlowSum> reference = FlowSumReference(records);
  ASSERT_EQ(reference.size(), kFlows);

  const StandingQuerySpec spec = TopKSpec();
  FoldState added;
  for (size_t i = 0; i < records.size(); ++i) {
    added.Add(spec, i, records[i]);
  }
  EXPECT_EQ(added.flows, reference);

  // The controller's fold: the same records as many increments merged
  // in order (later increments re-touch flows of earlier ones).
  FoldState merged;
  for (size_t begin = 0; begin < records.size(); begin += 7919) {
    FoldState increment;
    for (size_t i = begin; i < std::min(records.size(), begin + 7919); ++i) {
      increment.Add(spec, i, records[i]);
    }
    merged.Merge(increment);
  }
  EXPECT_EQ(merged.flows, reference);
}

TEST(FoldStateIndex, CopiedStateAddsAndMergesIntoItsOwnEntries) {
  const StandingQuerySpec spec = TopKSpec();
  FoldState original;
  for (uint32_t i = 0; i < 100; ++i) {
    original.Add(spec, i, FlowRecord(IndexedFlow(i), 10));
  }
  const FoldState before = original;

  FoldState copy = original;
  copy.Add(spec, 100, FlowRecord(IndexedFlow(7), 5));
  FoldState increment;
  increment.Add(spec, 0, FlowRecord(IndexedFlow(42), 1));
  increment.Add(spec, 1, FlowRecord(IndexedFlow(5000), 2));
  copy.Merge(increment);
  ASSERT_EQ(copy.flows.size(), 101u);
  EXPECT_EQ(copy.flows[7].bytes, 15u);
  EXPECT_EQ(copy.flows[42].bytes, 11u);
  EXPECT_EQ(copy.flows[100], (FoldState::FlowSum{IndexedFlow(5000), 2}));
  // Grow the copy's index past its original size; every entry stays
  // findable and the original is untouched.
  for (uint32_t i = 0; i < 1000; ++i) {
    copy.Add(spec, i, FlowRecord(IndexedFlow(i), 1));
  }
  ASSERT_EQ(copy.flows.size(), 1001u);
  EXPECT_EQ(copy.flows[7].bytes, 16u);
  EXPECT_EQ(copy.flows[100].bytes, 2u);
  EXPECT_EQ(original, before);

  // Copy assignment over a state with its own index, and a FlowList
  // state: the assigned state must find the source's entries.
  FoldState assigned;
  assigned.Add(spec, 0, FlowRecord(IndexedFlow(999999), 1));
  assigned = original;
  assigned.Add(spec, 0, FlowRecord(IndexedFlow(3), 1));
  ASSERT_EQ(assigned.flows.size(), 100u);
  EXPECT_EQ(assigned.flows[3].bytes, 11u);

  const StandingQuerySpec list = FlowListSpec();
  FoldState items;
  TibRecord rec = FlowRecord(IndexedFlow(1), 1);
  rec.path = CompactPath::FromPath({1, 2, 3});
  items.Add(list, 50, rec);
  FoldState items_copy = items;
  items_copy.Add(list, 20, rec);
  ASSERT_EQ(items_copy.flow_items.size(), 1u);
  EXPECT_EQ(items_copy.flow_items[0].id, 20u);
  EXPECT_EQ(items.flow_items[0].id, 50u);
}

TEST(FoldStateIndex, FlowListDedupsPairsSharingAFlowOrAHomeSlot) {
  // Many paths per flow.  The index places an entry by the top bits of
  // its hash, so paths of one flow whose hashes agree in the top 16 bits
  // share a home slot at every table size up to 2^16 and must be told
  // apart by exact comparison.
  Rng rng(16, 0xB0C);
  const std::vector<FiveTuple> flows = {IndexedFlow(1), IndexedFlow(2), IndexedFlow(3)};
  std::vector<std::pair<FiveTuple, CompactPath>> pairs;
  std::map<uint64_t, int> slot_users;
  for (const FiveTuple& flow : flows) {
    for (int p = 0; p < 1500; ++p) {
      Path path(2 + rng.UniformInt(CompactPath::kMaxSwitches - 1));
      for (SwitchId& sw : path) {
        sw = SwitchId(rng.UniformInt(64));
      }
      const CompactPath compact = CompactPath::FromPath(path);
      pairs.emplace_back(flow, compact);
      ++slot_users[compact.HashKey(FiveTupleHash{}(flow)) >> 48];
    }
  }
  ASSERT_TRUE(std::any_of(slot_users.begin(), slot_users.end(),
                          [](const auto& e) { return e.second > 1; }))
      << "no two pairs share a 16-bit home slot; pick another seed";

  // Each pair arrives several times with random ids, interleaved.
  std::vector<FoldState::FlowItem> arrivals;
  for (const auto& [flow, path] : pairs) {
    for (uint32_t c = 0, n = 1 + rng.UniformInt(3); c < n; ++c) {
      arrivals.push_back({rng.NextU64() >> 20, flow, path});
    }
  }
  for (size_t i = arrivals.size() - 1; i > 0; --i) {
    std::swap(arrivals[i], arrivals[rng.UniformInt(uint32_t(i + 1))]);
  }

  // Dedup reference: first-appearance order, smallest id per pair.
  using Key = std::pair<FiveTuple, std::vector<SwitchId>>;
  std::map<Key, size_t> position;
  std::vector<FoldState::FlowItem> reference;
  for (const FoldState::FlowItem& item : arrivals) {
    auto [it, fresh] = position.try_emplace(Key{item.flow, item.path.ToPath()}, reference.size());
    if (fresh) {
      reference.push_back(item);
    } else {
      reference[it->second].id = std::min(reference[it->second].id, item.id);
    }
  }

  const StandingQuerySpec spec = FlowListSpec();
  FoldState added;
  for (const FoldState::FlowItem& item : arrivals) {
    TibRecord rec = FlowRecord(item.flow, 1);
    rec.path = item.path;
    added.Add(spec, item.id, rec);
  }
  EXPECT_EQ(added.flow_items, reference);

  FoldState merged;
  for (size_t begin = 0; begin < arrivals.size(); begin += 611) {
    FoldState increment;
    increment.flow_items.assign(
        arrivals.begin() + std::ptrdiff_t(begin),
        arrivals.begin() + std::ptrdiff_t(std::min(arrivals.size(), begin + 611)));
    merged.Merge(increment);
  }
  EXPECT_EQ(merged.flow_items, reference);
}

TEST(QueryResultMerge, CopiesLvaluesAndMovesRvalues) {
  const FiveTuple fa{1, 2, 10, 80, kProtoTcp};
  const FiveTuple fb{1, 2, 20, 80, kProtoTcp};
  FlowSizeHistogram histogram;
  histogram.bins = {{0, 2}, {3, 1}};
  TopKFlows top;
  top.k = 2;
  top.items = {{300, fb}, {100, fa}};
  TopKFlows top_unsorted;
  top_unsorted.k = 2;
  top_unsorted.items = {{50, fa}, {700, fb}, {300, fa}};
  const std::vector<std::pair<QueryResult, QueryResult>> cases = {
      {QueryResult{}, FlowList{{Flow{fa, {1, 2, 3}}, Flow{fb, {4, 5}}}}},
      {FlowList{{Flow{fb, {9}}}}, FlowList{{Flow{fa, {1, 2, 3}}, Flow{fb, {4, 5}}}}},
      {PathList{{{7, 8}}}, PathList{{{1, 2, 3}, {4}}}},
      {QueryResult{}, top_unsorted},
      {top, top_unsorted},
      {histogram, histogram},
      {CountSummary{5, 1}, CountSummary{7, 2}},
      {CountSummary{5, 1}, QueryResult{}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [base, contribution] = cases[c];
    QueryResult from_lvalue = base;
    QueryResult in = contribution;
    MergeQueryResult(from_lvalue, in);
    EXPECT_EQ(in, contribution) << "case " << c << ": the lvalue changed";

    QueryResult from_rvalue = base;
    QueryResult moved = contribution;
    MergeQueryResult(from_rvalue, std::move(moved));
    EXPECT_EQ(from_rvalue, from_lvalue) << "case " << c;
  }
}

}  // namespace
}  // namespace pathdump
