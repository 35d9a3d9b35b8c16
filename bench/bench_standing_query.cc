// Standing queries vs polling: per-epoch cost scales with the delta,
// poll cost scales with the TIB.
//
// A poll re-scans every record on every host per query — O(TIB) each
// time, even when nothing changed.  A standing subscription pays at
// insert time (one filter + hash-map bump per record) and per epoch
// ships/folds only the increment — O(delta).  This bench measures both
// sides on the same fleet and checks, at every epoch boundary, that the
// materialized standing result is byte-identical to a fresh poll
// Execute (exit 1 on any mismatch).  Covers all four standing kinds:
// the per-flow pair (TopK, FlowSizeHistogram) in the main sections,
// FlowList and CountSummary via the count identity check
// per epoch plus a dedicated FlowList section at the end.
//
// Env knobs (reduced in CI quick-bench):
//   PATHDUMP_STANDING_AGENTS   fleet size            (default 16)
//   PATHDUMP_STANDING_PRELOAD  records/agent preload (default 40000)

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "bench/query_bench_common.h"
#include "src/apps/load_imbalance.h"
#include "src/apps/traffic_measure.h"
#include "src/controller/subscription.h"

namespace pathdump {
namespace {

constexpr size_t kTopK = 1000;
constexpr int64_t kBinWidth = 10000;

using bench::IntFromEnv;
using bench::Seconds;

struct EpochMeasurement {
  double fold_seconds = 0;  // tick + flush: the per-epoch pipeline, O(delta)
  double mat_seconds = 0;   // materialize on demand, O(active flows), no host touched
  double poll_seconds = 0;  // fresh Execute over all hosts, O(TIB)
  size_t poll_response_bytes = 0;
  bool identical = false;
};

int Main() {
  bench::Banner("Standing queries: incremental evaluation with epoch deltas",
                "per-epoch cost is O(delta) for subscriptions, O(TIB) for polls; "
                "results byte-identical at every epoch boundary");

  const int num_agents = IntFromEnv("PATHDUMP_STANDING_AGENTS", 16);
  const int preload = IntFromEnv("PATHDUMP_STANDING_PRELOAD", 40000);

  auto tb = bench::BuildQueryTestbed(num_agents, 0);
  // The shared probe link points out of the pod; records terminate at
  // hosts, so probe the reversed (down) direction for real matches.
  const LinkId probe{tb->probe_link.dst, tb->probe_link.src};

  SubscriptionManager manager(&tb->controller);
  uint64_t topk_sub = SubscribeTopK(manager, tb->hosts, kTopK);
  uint64_t hist_sub =
      SubscribeFlowSizeDistribution(manager, tb->hosts, probe, TimeRange::All(), kBinWidth);
  // The FlowList and CountSummary kinds ride the same channel; their
  // deltas carry distinct (id, flow, path) items and one count pair.
  uint64_t list_sub = SubscribeFlowList(manager, tb->hosts, probe);
  uint64_t count_sub = SubscribeCountSummary(manager, tb->hosts, probe);

  Controller::QueryFn poll_topk = [](EdgeAgent& agent) -> QueryResult {
    return agent.TopK(kTopK, TimeRange::All());
  };
  Controller::QueryFn poll_hist = [probe](EdgeAgent& agent) -> QueryResult {
    return agent.FlowSizeDistribution(probe, TimeRange::All(), kBinWidth);
  };
  Controller::QueryFn poll_list = [probe](EdgeAgent& agent) -> QueryResult {
    return FlowList{agent.GetFlows(probe, TimeRange::All())};
  };
  Controller::QueryFn poll_count = [probe](EdgeAgent& agent) -> QueryResult {
    return agent.CountOnLink(probe, TimeRange::All());
  };

  Rng rng(0x57D9);
  int next_entry = 0;
  auto insert_per_agent = [&](int n) {
    for (size_t a = 0; a < tb->hosts.size(); ++a) {
      HostId host = tb->hosts[a];
      for (int e = 0; e < n; ++e) {
        tb->agents[host]->tib().Insert(
            bench::MakeQueryRecord(*tb, a, host, next_entry + e, rng));
      }
    }
    next_entry += n;
  };

  uint64_t prev_delta_bytes = 0;
  auto measure_epoch = [&]() {
    EpochMeasurement m;
    auto t0 = std::chrono::steady_clock::now();
    manager.TickEpoch();
    manager.Flush();
    m.fold_seconds = Seconds(t0);
    t0 = std::chrono::steady_clock::now();
    QueryResult standing_topk = manager.Materialize(topk_sub);
    QueryResult standing_hist = manager.Materialize(hist_sub);
    m.mat_seconds = Seconds(t0);

    QueryResult standing_count = manager.Materialize(count_sub);

    t0 = std::chrono::steady_clock::now();
    auto [topk_res, topk_stats] = tb->controller.Execute(tb->hosts, poll_topk);
    auto [hist_res, hist_stats] = tb->controller.Execute(tb->hosts, poll_hist);
    auto [count_res, count_stats] = tb->controller.Execute(tb->hosts, poll_count);
    m.poll_seconds = Seconds(t0);
    m.poll_response_bytes = topk_stats.response_bytes + hist_stats.response_bytes;
    m.identical =
        standing_topk == topk_res && standing_hist == hist_res && standing_count == count_res;
    return m;
  };
  auto delta_bytes_this_epoch = [&]() {
    uint64_t total = manager.info(topk_sub).delta_bytes + manager.info(hist_sub).delta_bytes;
    uint64_t bytes = total - prev_delta_bytes;
    prev_delta_bytes = total;
    return bytes;
  };

  std::printf("fleet: %d agents, preload %d records/agent\n", num_agents, preload);
  insert_per_agent(preload);

  bool all_identical = true;
  bench::Section("per-epoch cost vs delta size (TIB ~fixed at preload)");
  std::printf("%-14s %10s %10s %10s %12s %14s %10s\n", "delta/agent", "fold(ms)", "mat(ms)",
              "poll(ms)", "delta(KB)", "poll-resp(KB)", "identical");
  {
    // Absorb the preload into epoch 1 (uncounted warm-up boundary).
    EpochMeasurement warm = measure_epoch();
    all_identical = all_identical && warm.identical;
    delta_bytes_this_epoch();
  }
  for (int delta : {preload / 64, preload / 16, preload / 4}) {
    if (delta <= 0) {
      continue;
    }
    insert_per_agent(delta);
    EpochMeasurement m = measure_epoch();
    all_identical = all_identical && m.identical;
    std::printf("%-14d %10.2f %10.2f %10.2f %12.1f %14.1f %10s\n", delta, m.fold_seconds * 1e3,
                m.mat_seconds * 1e3, m.poll_seconds * 1e3,
                double(delta_bytes_this_epoch()) / 1e3, double(m.poll_response_bytes) / 1e3,
                m.identical ? "yes" : "NO");
  }

  bench::Section("standing vs poll as the TIB grows (fixed delta/agent)");
  const int fixed_delta = std::max(preload / 64, 1);
  std::printf("%-14s %10s %10s %10s %12s %10s\n", "TIB/agent", "fold(ms)", "mat(ms)", "poll(ms)",
              "delta(KB)", "identical");
  for (int step = 0; step < 4; ++step) {
    // Grow the TIB between boundaries, then measure an epoch whose
    // delta is the fixed tail: poll cost tracks the first column, the
    // fold cost tracks the (constant) delta; only the on-demand
    // materialization grows with the active-flow population — and it
    // runs at the controller without touching hosts or the wire.
    insert_per_agent(preload / 2);
    // Absorb the growth into its own boundary — still a boundary, so
    // its identity check still gates the exit code.
    all_identical = all_identical && measure_epoch().identical;
    delta_bytes_this_epoch();
    insert_per_agent(fixed_delta);
    EpochMeasurement m = measure_epoch();
    all_identical = all_identical && m.identical;
    std::printf("%-14d %10.2f %10.2f %10.2f %12.1f %10s\n", next_entry, m.fold_seconds * 1e3,
                m.mat_seconds * 1e3, m.poll_seconds * 1e3,
                double(delta_bytes_this_epoch()) / 1e3, m.identical ? "yes" : "NO");
  }

  bench::Section("standing FlowList: per-pair deltas vs poll as the TIB doubles");
  // A FlowList delta ships the epoch's new distinct (id, flow, path)
  // items, so it tracks the *increment* while the getFlows poll
  // re-scans and re-dedups the whole TIB.  Identity at
  // every boundary gates the exit code like the per-flow kinds.
  std::printf("%-14s %10s %10s %10s %12s %10s\n", "TIB/agent", "fold(ms)", "mat(ms)", "poll(ms)",
              "delta(KB)", "identical");
  uint64_t prev_list_bytes = manager.info(list_sub).delta_bytes;
  for (int step = 0; step < 3; ++step) {
    insert_per_agent(next_entry);  // double the TIB
    auto t0 = std::chrono::steady_clock::now();
    manager.TickEpoch();
    manager.Flush();
    double fold_s = Seconds(t0);
    t0 = std::chrono::steady_clock::now();
    QueryResult standing_list = manager.Materialize(list_sub);
    double mat_s = Seconds(t0);
    t0 = std::chrono::steady_clock::now();
    auto [list_res, list_stats] = tb->controller.Execute(tb->hosts, poll_list);
    double poll_s = Seconds(t0);
    bool identical = standing_list == list_res;
    all_identical = all_identical && identical;
    uint64_t list_bytes = manager.info(list_sub).delta_bytes;
    std::printf("%-14d %10.2f %10.2f %10.2f %12.1f %10s\n", next_entry, fold_s * 1e3, mat_s * 1e3,
                poll_s * 1e3, double(list_bytes - prev_list_bytes) / 1e3,
                identical ? "yes" : "NO");
    prev_list_bytes = list_bytes;
    delta_bytes_this_epoch();  // keep the per-flow accounting in step
  }

  bench::Section("channel + fold accounting");
  SubscriptionManagerStats stats = manager.stats();
  std::printf("deltas submitted/folded: %llu/%llu, reordered %llu, orphaned %llu\n",
              (unsigned long long)stats.deltas_submitted, (unsigned long long)stats.deltas_folded,
              (unsigned long long)stats.deltas_reordered,
              (unsigned long long)stats.deltas_orphaned);
  std::printf("total delta wire bytes: %.1f KB, fold updates: %llu\n",
              double(stats.delta_bytes) / 1e3, (unsigned long long)stats.flow_updates);

  bench::Section("shape check");
  std::printf("standing results byte-identical to fresh polls at every boundary: %s\n",
              all_identical ? "YES" : "NO");
  bench::BenchReport& report = bench::BenchReport::Global();
  report.Add("accounting", "deltas_folded", double(stats.deltas_folded), "count");
  report.Add("accounting", "deltas_reordered", double(stats.deltas_reordered), "count");
  report.Add("accounting", "deltas_orphaned", double(stats.deltas_orphaned), "count");
  report.Add("accounting", "delta_kb", double(stats.delta_bytes) / 1e3, "KB");
  report.Add("accounting", "identical", all_identical ? 1 : 0, "bool");
  report.WriteIfRequested();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace pathdump

int main() { return pathdump::Main(); }
