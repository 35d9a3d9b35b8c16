// Figure 13 — edge packet-processing throughput: PathDump vs vanilla
// vSwitch (google-benchmark).
//
// Packets of 64-1500 B carrying 1-2 VLAN tags stream through the datapath
// while the trajectory memory holds ~4 K live per-path flow records (the
// paper's "100K flows/sec at a rack switch" working set).  The reported
// Gbps/Mpps are capped at the testbed's 10 GbE line rate: the CPU path is
// measured for real, the NIC is modeled (DESIGN.md).
//
// Paper: PathDump within ~4% of the vanilla vSwitch at every packet size;
// 0.8M (1500B) to 3.6M (64B) lookups/updates per second.
//
// Sustained-storm addendum (bounded memory): RunEvictionStorm() pushes a
// multi-epoch insert storm through an agent whose TIB runs under a
// memory ceiling (default 220 MB = 2x the paper's 110 MB/agent
// worst-case from §5.2) and gates, with a nonzero exit, on (a) the
// resident-bytes trajectory never crossing the ceiling, (b) exact
// eviction accounting (retained == inserted - evicted), and (c) all four
// standing kinds staying byte-identical to their poll twins at epoch
// boundaries — exact vs an unbounded shadow before any resync, windowed
// vs the bounded agent itself after one.  Knobs:
// PATHDUMP_FIG13_STORM_RECORDS / _CEILING_MB / _EPOCHS / _CHECK_EVERY;
// PATHDUMP_FIG13_STORM_ONLY=1 skips the google-benchmark suites (the
// quickbench CTest entry uses reduced knobs for a sub-second gate).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/load_imbalance.h"
#include "src/apps/traffic_measure.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/edge/packet_pipeline.h"
#include "src/packet/packet.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/workload/synthetic_records.h"

namespace pathdump {
namespace {

constexpr double kLineRateBps = 10e9;  // 10 GbE NIC
constexpr int kLiveFlows = 4096;       // ~4K records in trajectory memory

std::vector<Packet> MakeWorkingSet(uint32_t packet_size) {
  Rng rng(1234);
  std::vector<Packet> pkts;
  pkts.reserve(kLiveFlows);
  for (int i = 0; i < kLiveFlows; ++i) {
    Packet p;
    p.flow.src_ip = 0x0A000000u | rng.NextU32() % 4096;
    p.flow.dst_ip = 0x0A000000u | 99;
    p.flow.src_port = uint16_t(1024 + i);
    p.flow.dst_port = 80;
    p.flow.protocol = kProtoTcp;
    p.size_bytes = packet_size;
    // 1-2 VLAN tags as on the wire (§5.3).
    p.tags.push_back(LinkLabel(rng.UniformInt(4096)));
    if (rng.Bernoulli(0.5)) {
      p.tags.push_back(LinkLabel(rng.UniformInt(4096)));
    }
    pkts.push_back(std::move(p));
  }
  return pkts;
}

void RunPipeline(benchmark::State& state, bool pathdump_enabled) {
  const uint32_t packet_size = uint32_t(state.range(0));
  std::vector<Packet> working_set = MakeWorkingSet(packet_size);
  PacketPipeline pipeline(pathdump_enabled);

  size_t i = 0;
  SimTime now = 0;
  uint64_t sink = 0;
  // Tag stripping mutates packets; re-arm a fresh copy per call.
  for (auto _ : state) {
    Packet p = working_set[i];
    sink += pipeline.Process(p, now);
    benchmark::DoNotOptimize(sink);
    i = (i + 1) % working_set.size();
    now += 1000;
  }

  state.SetItemsProcessed(int64_t(state.iterations()));
  state.counters["pkt_bytes"] = double(packet_size);
  // Measured datapath rate (per-second rate of processed packets).
  state.counters["cpu_Mpps"] =
      benchmark::Counter(double(state.iterations()) / 1e6, benchmark::Counter::kIsRate);
  // What a 10 GbE wire allows at this packet size (the testbed's NIC cap).
  state.counters["wire_Mpps_cap"] = kLineRateBps / (double(packet_size) * 8.0) / 1e6;
}

void BM_PathDump(benchmark::State& state) { RunPipeline(state, true); }
void BM_VanillaVSwitch(benchmark::State& state) { RunPipeline(state, false); }

BENCHMARK(BM_PathDump)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(1500);
BENCHMARK(BM_VanillaVSwitch)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(1500);

// --- Sustained storm under a TIB memory ceiling (bounded memory) ---

constexpr size_t kStormShards = 8;
constexpr size_t kStormTopK = 500;
constexpr int64_t kStormBinWidth = 10000;
const LinkId kStormProbeLink{3, 7};

Controller::QueryFn StormPollFor(int kind) {
  switch (kind) {
    case 0:
      return [](EdgeAgent& a) -> QueryResult { return a.TopK(kStormTopK, TimeRange::All()); };
    case 1:
      return [](EdgeAgent& a) -> QueryResult {
        return a.FlowSizeDistribution(kStormProbeLink, TimeRange::All(), kStormBinWidth);
      };
    case 2:
      return [](EdgeAgent& a) -> QueryResult {
        return FlowList{a.GetFlows(kStormProbeLink, TimeRange::All())};
      };
    default:
      return [](EdgeAgent& a) -> QueryResult {
        return a.CountOnLink(kStormProbeLink, TimeRange::All());
      };
  }
}

// Returns the number of failed gates (0 = clean run).
int RunEvictionStorm() {
  const int total_records = bench::IntFromEnv("PATHDUMP_FIG13_STORM_RECORDS", 3'000'000);
  const int ceiling_mb = bench::IntFromEnv("PATHDUMP_FIG13_STORM_CEILING_MB", 220);
  const int epochs = bench::IntFromEnv("PATHDUMP_FIG13_STORM_EPOCHS", 30);
  const int check_every = bench::IntFromEnv("PATHDUMP_FIG13_STORM_CHECK_EVERY", 10);
  const size_t ceiling = size_t(ceiling_mb) * 1024 * 1024;
  const int per_epoch = total_records / epochs;

  bench::Section("sustained storm under a TIB memory ceiling (§5.2 x2 = 220MB default)");
  std::printf("records=%d epochs=%d (%d/epoch) ceiling=%dMB check_every=%d\n", total_records,
              epochs, per_epoch, ceiling_mb, check_every);

  Topology topo = BuildFatTree(4);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Controller controller;
  EdgeAgentConfig bounded_cfg;
  bounded_cfg.tib_options.num_shards = kStormShards;
  bounded_cfg.tib_options.max_memory_bytes = ceiling;
  EdgeAgentConfig shadow_cfg;
  shadow_cfg.tib_options.num_shards = kStormShards;
  // Bounded agent under the ceiling; unbounded shadow as the exact
  // reference (identical inserts, never seals, never evicts).
  EdgeAgent bounded(topo.hosts()[0], &topo, &codec, bounded_cfg);
  EdgeAgent shadow(topo.hosts()[1], &topo, &codec, shadow_cfg);
  controller.RegisterAgent(&bounded);
  controller.RegisterAgent(&shadow);
  const std::vector<HostId> bounded_hosts{bounded.host()};
  const std::vector<HostId> shadow_hosts{shadow.host()};

  SubscriptionManager manager(&controller);
  const uint64_t subs[4] = {
      SubscribeTopK(manager, bounded_hosts, kStormTopK),
      SubscribeFlowSizeDistribution(manager, bounded_hosts, kStormProbeLink, TimeRange::All(),
                                    kStormBinWidth),
      SubscribeFlowList(manager, bounded_hosts, kStormProbeLink),
      SubscribeCountSummary(manager, bounded_hosts, kStormProbeLink),
  };

  SyntheticRecordOptions ropt;
  ropt.ip_space = 4096;
  ropt.switch_space = 24;

  int gate_failures = 0;
  size_t max_resident = 0;
  bool resynced_once = false;
  uint64_t ceiling_violations = 0;
  uint64_t identity_mismatches = 0;
  std::vector<double> early_us, late_us;
  for (int e = 0; e < epochs; ++e) {
    const std::vector<TibRecord> batch =
        MakeSyntheticRecords(per_epoch, 0xF163u + uint32_t(e), ropt);
    for (size_t i = 0; i < batch.size(); ++i) {
      const bool timed = (i % 64) == 0;
      const auto t0 = std::chrono::steady_clock::now();
      bounded.tib().Insert(batch[i]);
      if (timed) {
        const double us = bench::Seconds(t0) * 1e6;
        (e < epochs / 4 ? early_us : late_us).push_back(us);
      }
      shadow.tib().Insert(batch[i]);
      const size_t resident = bounded.tib().bytes_resident();
      max_resident = std::max(max_resident, resident);
      // Insert-side enforcement: once a sealed epoch exists, resident
      // must never cross the ceiling between two inserts.
      if (e > 0 && resident > ceiling) {
        ++ceiling_violations;
      }
    }
    bounded.EpochTick();
    manager.Flush();

    const bool check = ((e + 1) % check_every == 0) || e == epochs - 1;
    if (!check) {
      continue;
    }
    const TibMemoryStats ms = bounded.tib().MemoryStats();
    char label[64];
    std::snprintf(label, sizeof(label), "resident_mb_epoch_%d", e + 1);
    bench::Report("storm", label, double(ms.resident_bytes) / (1024.0 * 1024.0), "MB");

    // (c) exact identity: incremental folds survive eviction — until a
    // resync, standing state covers full history and must equal a poll
    // of the unbounded shadow.
    if (!resynced_once) {
      for (int k = 0; k < 4; ++k) {
        auto [poll, st] = controller.Execute(shadow_hosts, StormPollFor(k));
        if (!(manager.Materialize(subs[k]) == poll)) {
          ++identity_mismatches;
          std::printf("  IDENTITY MISMATCH (exact, kind %d, epoch %d)\n", k, e + 1);
        }
      }
    }
    // (c) windowed identity: after a resync the baseline is rebuilt from
    // retained epochs only and must equal a poll of the bounded agent.
    for (uint64_t id : subs) {
      manager.MarkStale(id, bounded.host());
      manager.Resync(id, bounded.host());
    }
    resynced_once = true;
    for (int k = 0; k < 4; ++k) {
      auto [poll, st] = controller.Execute(bounded_hosts, StormPollFor(k));
      if (!(manager.Materialize(subs[k]) == poll)) {
        ++identity_mismatches;
        std::printf("  IDENTITY MISMATCH (windowed, kind %d, epoch %d)\n", k, e + 1);
      }
    }
  }

  const TibMemoryStats ms = bounded.tib().MemoryStats();
  bench::Report("storm", "ceiling_mb", double(ceiling_mb), "MB");
  bench::Report("storm", "max_resident_mb", double(max_resident) / (1024.0 * 1024.0), "MB");
  bench::Report("storm", "inserted_records", double(ms.inserted_records), "records");
  bench::Report("storm", "evicted_records", double(ms.evicted_records), "records");
  bench::Report("storm", "retained_records", double(ms.retained_records), "records");
  bench::Report("storm", "segments_retired", double(ms.segments_retired), "segments");
  bench::Report("storm", "epochs_sealed", double(ms.epochs_sealed), "epochs");
  bench::Report("storm", "insert_p50_early_us", bench::Percentile(early_us, 0.50), "us");
  bench::Report("storm", "insert_p99_early_us", bench::Percentile(early_us, 0.99), "us");
  bench::Report("storm", "insert_p50_late_us", bench::Percentile(late_us, 0.50), "us");
  bench::Report("storm", "insert_p99_late_us", bench::Percentile(late_us, 0.99), "us");
  bench::Report("storm", "identity_mismatches", double(identity_mismatches), "mismatches");
  bench::Report("storm", "ceiling_violations", double(ceiling_violations), "samples");

  // Gates (nonzero exit on any failure).
  if (ceiling_violations > 0) {
    std::printf("GATE FAIL: bytes_resident crossed the %dMB ceiling %llu time(s)\n", ceiling_mb,
                (unsigned long long)ceiling_violations);
    ++gate_failures;
  }
  if (ms.retained_records != ms.inserted_records - ms.evicted_records) {
    std::printf("GATE FAIL: accounting: retained %llu != inserted %llu - evicted %llu\n",
                (unsigned long long)ms.retained_records, (unsigned long long)ms.inserted_records,
                (unsigned long long)ms.evicted_records);
    ++gate_failures;
  }
  if (identity_mismatches > 0) {
    std::printf("GATE FAIL: %llu standing-vs-poll identity mismatch(es)\n",
                (unsigned long long)identity_mismatches);
    ++gate_failures;
  }
  // Pressure sanity: when the storm's accounted footprint exceeds the
  // ceiling, eviction must actually have fired — a zero here means the
  // gate above tested nothing.
  const size_t accounted_total =
      ms.retained_records > 0
          ? ms.inserted_records * (ms.resident_bytes / ms.retained_records)
          : 0;
  if (accounted_total > ceiling && ms.evicted_records == 0) {
    std::printf("GATE FAIL: footprint %zuB exceeds ceiling %zuB but nothing was evicted\n",
                accounted_total, ceiling);
    ++gate_failures;
  }
  std::printf("storm: %s (evicted %llu of %llu records across %llu retired segments)\n",
              gate_failures == 0 ? "PASS" : "FAIL", (unsigned long long)ms.evicted_records,
              (unsigned long long)ms.inserted_records, (unsigned long long)ms.segments_retired);
  return gate_failures;
}

}  // namespace
}  // namespace pathdump

// Custom reporter epilogue: convert measured rates into the paper's
// Gbps/Mpps presentation with the 10 GbE cap.
int main(int argc, char** argv) {
  std::printf("==============================================================\n");
  std::printf("Figure 13: packet-processing throughput, PathDump vs vSwitch\n");
  std::printf("paper: <=4%% throughput loss at any size; 0.8-3.6M ops/s\n");
  std::printf("(cpu_Mpps = measured datapath rate; wire Gbps/Mpps = min(cpu, 10GbE))\n");
  std::printf("==============================================================\n");
  pathdump::bench::BenchReport::Global().SetBenchName("fig13_packet_processing");
  const char* storm_only = std::getenv("PATHDUMP_FIG13_STORM_ONLY");
  if (storm_only == nullptr || storm_only[0] != '1') {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const int gate_failures = pathdump::RunEvictionStorm();
  pathdump::bench::BenchReport::Global().WriteIfRequested();
  return gate_failures == 0 ? 0 : 1;
}
