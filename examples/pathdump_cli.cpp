// pathdump_cli — a batch command-line front end over a simulated
// datacenter, for poking at the system without writing code.
//
// Builds a FatTree(k), drives a web workload through the flow-level
// engine (plus an optional silent-drop fault), then executes the
// requested query/diagnosis:
//
//   pathdump_cli topk [k]           top-k flows via the aggregation tree
//   pathdump_cli flows <switch-id>  flows entering the given switch
//   pathdump_cli flowlist <switch>  distinct (flow, path) pairs entering
//                                   the switch, first-appearance order
//   pathdump_cli paths <host-id>    paths of flows received by a host
//   pathdump_cli matrix             ToR-to-ToR traffic matrix
//   pathdump_cli hunt               inject a silent dropper and localize it
//   pathdump_cli rules              static rule budget per switch role
//   pathdump_cli stats [k]          run a standing top-k workload, then dump
//                                   the process metrics registry (counters,
//                                   gauges, latency histograms)
//
// Options (before the command): --fat-tree <k>, --seed <n>,
// --seconds <s>, --workers <n> (controller query fan-out threads;
// results are byte-identical at any worker count), --standing (serve
// topk/flowlist from a standing subscription fed by epoch deltas during
// the run instead of a full-scan poll; the result is byte-identical —
// flowlist deltas ship distinct (flow, path) items, topk per-flow sums),
// --trace-out <path> (write the span ring as Chrome-trace JSON on exit;
// open in chrome://tracing or Perfetto).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/apps/silent_drop.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/apps/traffic_measure.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/fleet.h"
#include "src/fluidsim/fluid.h"
#include "src/switchsim/rule_budget.h"
#include "src/topology/fat_tree.h"
#include "src/workload/flow_size.h"
#include "src/workload/traffic_gen.h"

using namespace pathdump;

namespace {

struct Cli {
  int k = 4;
  uint64_t seed = 1;
  double seconds = 10;
  int workers = 1;
  bool standing = false;
  std::string command = "topk";
  std::string arg;
  std::string trace_out;
};

void Usage() {
  std::printf(
      "usage: pathdump_cli [--fat-tree k] [--seed n] [--seconds s] [--workers n] [--standing] "
      "[--trace-out path] "
      "<topk [k] | flows <switch> | flowlist <switch> | paths <host> | matrix | hunt | rules | "
      "stats [k]>\n");
}

// Writes the span ring on every exit path (the command handlers return
// from main directly).
struct TraceDumpOnExit {
  std::string path;
  ~TraceDumpOnExit() {
    if (path.empty()) {
      return;
    }
    if (Tracer::Global().WriteChromeTraceFile(path.c_str())) {
      std::printf("wrote %zu spans to %s\n", Tracer::Global().Snapshot().size(), path.c_str());
    } else {
      std::printf("failed to write trace to %s\n", path.c_str());
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fat-tree") == 0 && i + 1 < argc) {
      cli.k = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cli.seed = uint64_t(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      cli.seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      cli.workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--standing") == 0) {
      cli.standing = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      cli.trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      cli.trace_out = argv[i] + 12;
    } else {
      break;
    }
  }
  if (i < argc) {
    cli.command = argv[i++];
  }
  if (i < argc) {
    cli.arg = argv[i];
  }
  if (cli.k < 2 || cli.k % 2 != 0 || cli.seconds <= 0 || cli.workers < 1) {
    Usage();
    return 2;
  }
  TraceDumpOnExit trace_dump{cli.trace_out};

  Topology topo = BuildFatTree(cli.k);
  Router router(&topo);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  AgentFleet fleet(&topo, &codec);
  Controller controller;
  controller.RegisterFleet(fleet);
  controller.SetWorkerThreads(size_t(cli.workers));
  fleet.SetAlarmHandler(controller.MakeAlarmSink());

  if (cli.command == "rules") {
    std::printf("static rule budget, FatTree(%d):\n", cli.k);
    const FatTreeMeta& m = *topo.fat_tree();
    for (SwitchId sw : {m.tor[0][0], m.agg[0][0], m.core[0]}) {
      RuleBudget b = ComputeRuleBudget(topo, sw);
      std::printf("  %-6s forwarding=%-4d tagging=%-4d total=%d\n", topo.NameOf(sw).c_str(),
                  b.forwarding, b.tagging, b.total());
    }
    RuleBudget total = TotalRuleBudget(topo);
    std::printf("  network total: %d rules (one-time installation)\n", total.total());
    return 0;
  }

  // Drive the workload.
  SilentDropDebugger debugger(&controller, &fleet);
  FluidConfig fcfg;
  fcfg.seed = cli.seed;
  FluidSimulation fluid(&topo, &router, fcfg);
  LinkId fault{kInvalidNode, kInvalidNode};
  if (cli.command == "hunt") {
    debugger.Start();
    const FatTreeMeta& m = *topo.fat_tree();
    fault = LinkId{m.agg[0][0], m.core[1]};
    fluid.AddSilentDrop(fault.src, fault.dst, 0.02);
    std::printf("injected fault: %s -> %s drops 2%% silently\n",
                topo.NameOf(fault.src).c_str(), topo.NameOf(fault.dst).c_str());
  }

  // A standing subscription must watch the TIBs while they fill, so it
  // installs before the workload runs.
  SubscriptionManager subscriptions(&controller);
  size_t topk_k = cli.arg.empty() ? 10 : size_t(std::atoll(cli.arg.c_str()));
  uint64_t standing_sub = 0;
  LinkId flowlist_link{kInvalidNode, kInvalidNode};
  if (cli.command == "flowlist") {
    if (cli.arg.empty()) {
      Usage();
      return 2;
    }
    SwitchId sw = SwitchId(std::atoll(cli.arg.c_str()));
    if (sw >= topo.node_count() || topo.IsHost(sw)) {
      std::printf("node %s is not a switch\n", cli.arg.c_str());
      return 2;
    }
    flowlist_link = LinkId{kInvalidNode, sw};
  }
  if ((cli.standing && cli.command == "topk") || cli.command == "stats") {
    standing_sub = SubscribeTopK(subscriptions, controller.registered_hosts(), topk_k);
  }
  if (cli.standing && cli.command == "flowlist") {
    standing_sub = SubscribeFlowList(subscriptions, controller.registered_hosts(), flowlist_link);
  }

  WebSearchFlowSizes sizes;
  TrafficGenerator gen(&topo, &sizes);
  TrafficParams params;
  params.flows_per_sec_per_host = 30;
  params.duration = SimTime(cli.seconds * double(kNsPerSec));
  params.seed = cli.seed;
  auto flows = gen.Generate(params);
  fluid.Run(flows, &fleet, controller.MakeAlarmSink());
  std::printf("simulated %zu flows over %.0fs on FatTree(%d)\n\n", flows.size(), cli.seconds,
              cli.k);

  if (cli.command == "stats") {
    // Exercise the full epoch pipeline once (tick → fold → materialize)
    // and a poll execute, then dump everything the registry saw.
    subscriptions.TickEpoch();
    TopKFlows standing_top = TopKStanding(subscriptions, standing_sub);
    TopKFlows poll = TopKAcrossHosts(controller, controller.registered_hosts(), topk_k,
                                     TimeRange::All(), /*multi_level=*/false);
    std::printf("standing top-%zu poll-identical: %s\n\n", topk_k,
                standing_top == poll ? "yes" : "NO");
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    std::printf("%s", snap.ToText().c_str());
    return standing_top == poll ? 0 : 1;
  }
  if (cli.command == "topk") {
    TopKFlows top;
    if (cli.standing) {
      // Epoch boundary: agents ship their per-flow increments; the
      // materialized result must equal a full-scan poll byte for byte.
      subscriptions.TickEpoch();
      top = TopKStanding(subscriptions, standing_sub);
      TopKFlows poll = TopKAcrossHosts(controller, controller.registered_hosts(), topk_k,
                                       TimeRange::All(), /*multi_level=*/false);
      SubscriptionInfo info = subscriptions.info(standing_sub);
      std::printf("standing top-%zu: %llu deltas folded, %.1f KB on the wire, "
                  "poll-identical: %s\n",
                  topk_k, (unsigned long long)info.deltas_folded,
                  double(info.delta_bytes) / 1e3, top == poll ? "yes" : "NO");
    } else {
      top = TopKAcrossHosts(controller, controller.registered_hosts(), topk_k, TimeRange::All());
    }
    std::printf("top-%zu flows:\n", topk_k);
    for (const auto& [bytes, flow] : top.items) {
      std::printf("  %10.3f MB  %s\n", double(bytes) / 1e6, FlowToString(flow).c_str());
    }
    return 0;
  }
  if (cli.command == "flowlist") {
    FlowList list;
    if (cli.standing) {
      // Epoch boundary: agents ship their new distinct (flow, path) pairs
      // with the smallest TIB insertion id of each; the materialized
      // first-appearance list must equal a full-scan poll byte for byte.
      subscriptions.TickEpoch();
      list = FlowListStanding(subscriptions, standing_sub);
      FlowList poll = FlowsOnLinkAcrossHosts(controller, controller.registered_hosts(),
                                             flowlist_link, TimeRange::All());
      SubscriptionInfo info = subscriptions.info(standing_sub);
      std::printf("standing flowlist: %llu deltas folded, %.1f KB on the wire, "
                  "poll-identical: %s\n",
                  (unsigned long long)info.deltas_folded, double(info.delta_bytes) / 1e3,
                  list == poll ? "yes" : "NO");
    } else {
      list = FlowsOnLinkAcrossHosts(controller, controller.registered_hosts(), flowlist_link,
                                    TimeRange::All());
    }
    std::printf("%zu distinct (flow, path) pairs entering %s; first 10:\n", list.flows.size(),
                topo.NameOf(flowlist_link.dst).c_str());
    for (size_t j = 0; j < list.flows.size() && j < 10; ++j) {
      std::printf("  %-36s %s\n", FlowToString(list.flows[j].id).c_str(),
                  PathToString(list.flows[j].path).c_str());
    }
    return 0;
  }
  if (cli.command == "flows") {
    if (cli.arg.empty()) {
      Usage();
      return 2;
    }
    SwitchId sw = SwitchId(std::atoll(cli.arg.c_str()));
    if (sw >= topo.node_count() || topo.IsHost(sw)) {
      std::printf("node %u is not a switch\n", sw);
      return 2;
    }
    size_t count = 0;
    for (EdgeAgent* agent : fleet.all()) {
      count += agent->GetFlows(LinkId{kInvalidNode, sw}, TimeRange::All()).size();
    }
    std::printf("flows entering %s during the run: %zu\n", topo.NameOf(sw).c_str(), count);
    return 0;
  }
  if (cli.command == "paths") {
    if (cli.arg.empty()) {
      Usage();
      return 2;
    }
    HostId h = HostId(std::atoll(cli.arg.c_str()));
    if (h >= topo.node_count() || !topo.IsHost(h)) {
      std::printf("node %s is not a host\n", cli.arg.c_str());
      return 2;
    }
    LinkId any{kInvalidNode, kInvalidNode};
    auto received = fleet.agent(h).GetFlows(any, TimeRange::All());
    std::printf("%s received %zu flows; first 10 paths:\n", topo.NameOf(h).c_str(),
                received.size());
    for (size_t j = 0; j < received.size() && j < 10; ++j) {
      std::printf("  %-36s %s\n", FlowToString(received[j].id).c_str(),
                  PathToString(received[j].path).c_str());
    }
    return 0;
  }
  if (cli.command == "matrix") {
    auto matrix = TrafficMatrix(fleet, TimeRange::All());
    std::printf("traffic matrix (%zu ToR pairs), top 10 by volume:\n", matrix.size());
    std::vector<std::pair<uint64_t, std::pair<SwitchId, SwitchId>>> rows;
    for (auto& [pair, bytes] : matrix) {
      rows.emplace_back(bytes, pair);
    }
    std::sort(rows.rbegin(), rows.rend());
    for (size_t j = 0; j < rows.size() && j < 10; ++j) {
      std::printf("  %-8s -> %-8s %10.2f MB\n", topo.NameOf(rows[j].second.first).c_str(),
                  topo.NameOf(rows[j].second.second).c_str(), double(rows[j].first) / 1e6);
    }
    return 0;
  }
  if (cli.command == "hunt") {
    std::printf("alarms: %zu, signatures: %zu\n", debugger.alarms_seen(),
                debugger.signature_count());
    for (const LinkId& l : debugger.Hypothesis()) {
      std::printf("  suspect: %s -> %s\n", topo.NameOf(l.src).c_str(),
                  topo.NameOf(l.dst).c_str());
    }
    auto acc = debugger.Accuracy({fault});
    std::printf("recall=%.2f precision=%.2f\n", acc.recall, acc.precision);
    return acc.Perfect() ? 0 : 1;
  }
  Usage();
  return 2;
}
