// Transport bench: what the shared-memory agent channel costs relative
// to in-process delivery.
//
// Two layers:
//   1. Raw SPSC ring (src/transport/shm_ring.h): producer thread pushes
//      framed-size payloads, consumer thread pops — messages/sec, MB/s,
//      and sampled p50/p99 push→pop latency per payload size.
//   2. End-to-end epoch pipeline, in-process vs shm: a fleet of agents
//      with standing subscriptions runs ingest → EpochTick → ack → fold
//      boundaries; reports epoch p50/p99 latency, delta throughput, and
//      wire bytes.  The in-process leg drives SubscriptionManager
//      directly (Subscribe, TickEpoch, Flush); the shm leg goes through
//      TransportHub.  At the end the
//      materialized standing results are checked byte-identical to a
//      fresh poll — any mismatch exits 1, which is what the quickbench
//      CTest entry gates on.
//
// The shm side runs the real ring + frame protocol (same bytes, same
// rings as the forked-process harness in tests/transport_multiproc_test
// .cc); agent threads stand in for agent processes so the bench stays a
// single reproducible binary.
//
// Env knobs (reduced in CI quick-bench):
//   PATHDUMP_TRANSPORT_MSGS     raw-ring messages          (200000)
//   PATHDUMP_TRANSPORT_AGENTS   fleet size                 (4)
//   PATHDUMP_TRANSPORT_EPOCHS   epoch boundaries measured  (8)
//   PATHDUMP_TRANSPORT_RECORDS  records/agent/epoch        (2000)
//   PATHDUMP_OVERHEAD_MAX_PCT   instrumentation-overhead gate in percent
//                               (unset/0 = report only; CI sets 3)
//   PATHDUMP_BENCH_JSON         append machine-readable rows to this path

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "src/cherrypick/codec.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"
#include "src/workload/synthetic_records.h"

namespace pathdump {
namespace {

using bench::IntFromEnv;
using bench::Percentile;
using bench::Seconds;
using transport::ShmAgentClient;
using transport::ShmSpscRing;
using transport::TransportHub;
using transport::TransportOptions;
using transport::TransportStats;

std::string BenchShmPrefix() { return "/pathdump.bench." + std::to_string(getpid()) + "."; }

// --- Raw ring layer ---

void RawRingSection(int messages) {
  bench::Section("raw SPSC ring: push -> pop across two threads");
  std::printf("%-10s %-10s %12s %10s %12s %12s %8s\n", "payload", "ring", "msgs/s", "MB/s",
              "p50(us)", "p99(us)", "gaps");
  for (size_t payload : {size_t(64), size_t(1024)}) {
    const size_t slot_bytes = 256;
    const size_t slot_count = 1 << 12;
    std::vector<uint8_t> mem(ShmSpscRing::BytesFor(slot_bytes, slot_count) + 64);
    void* base = mem.data() + (64 - uintptr_t(mem.data()) % 64) % 64;
    ShmSpscRing producer = ShmSpscRing::CreateAt(base, slot_bytes, slot_count);
    ShmSpscRing consumer = ShmSpscRing::ViewAt(base);

    // Sampled latency: every 32nd message carries a steady_clock stamp.
    std::vector<double> lat_us;
    lat_us.reserve(size_t(messages) / 32 + 1);
    auto t0 = std::chrono::steady_clock::now();
    std::thread prod([&producer, messages, payload] {
      std::vector<uint8_t> msg(payload, 0xAB);
      for (int i = 0; i < messages; ++i) {
        if (i % 32 == 0) {
          const uint64_t now =
              uint64_t(std::chrono::steady_clock::now().time_since_epoch().count());
          std::memcpy(msg.data(), &now, sizeof(now));
        } else {
          std::memset(msg.data(), 0, sizeof(uint64_t));
        }
        producer.Push(msg.data(), msg.size(), 10'000'000);
      }
      producer.CloseProducer();
    });
    std::vector<uint8_t> out;
    int popped = 0;
    while (popped < messages) {
      if (!consumer.Pop(out)) {
        if (!consumer.WaitForData(10'000'000)) {
          break;
        }
        continue;
      }
      uint64_t stamp = 0;
      std::memcpy(&stamp, out.data(), sizeof(stamp));
      if (stamp != 0) {
        const uint64_t now =
            uint64_t(std::chrono::steady_clock::now().time_since_epoch().count());
        lat_us.push_back(double(now - stamp) / 1e3);
      }
      ++popped;
    }
    prod.join();
    const double secs = Seconds(t0);
    std::printf("%-10zu %-10s %12.0f %10.1f %12.2f %12.2f %8llu\n", payload,
                (std::to_string(slot_bytes) + "x" + std::to_string(slot_count)).c_str(),
                double(popped) / secs, double(popped) * double(payload) / secs / 1e6,
                Percentile(lat_us, 0.50), Percentile(lat_us, 0.99),
                (unsigned long long)consumer.seq_gaps());
  }
}

// --- End-to-end layer ---

constexpr uint32_t kIpSpace = 2048;
constexpr uint32_t kSwitchSpace = 24;
constexpr size_t kShards = 4;
const LinkId kProbeLink{3, 7};

// Thread standing in for an agent process: the same client, rings and
// ShmAgentClient::Serve loop as examples/agent_worker.cpp.  The
// destructor stops and joins it whether or not Shutdown was sent, so an
// early return from a failed section cannot hang the bench.
class ShmAgentThread {
 public:
  ShmAgentThread(const std::string& name, HostId host, const Topology* topo,
                 const CherryPickCodec* codec)
      : thread_([this, name, host, topo, codec] {
          auto client = ShmAgentClient::Open(name);
          if (client == nullptr) {
            std::printf("agent %u cannot map %s\n", unsigned(host), name.c_str());
            return;
          }
          EdgeAgentConfig cfg;
          cfg.tib_options.num_shards = kShards;
          EdgeAgent agent(host, topo, codec, cfg);
          client->SendHello(host);
          client->Serve(agent, host, [this] { return !stop_.load(std::memory_order_acquire); });
        }) {}
  ~ShmAgentThread() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  ShmAgentThread(const ShmAgentThread&) = delete;
  ShmAgentThread& operator=(const ShmAgentThread&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts once stop_ exists
};

// One epoch-pipeline leg.  In-process (`shm` false) the twins are the
// agents and the manager is driven directly; over shm, agent threads
// behind a TransportHub are the fleet and the twins the poll reference.
bool PipelineSection(bool shm, int num_agents, int epochs, int records_per_epoch,
                     double* p50_ms_out = nullptr, bool quiet = false) {
  Topology topo = BuildFatTree(4);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  Controller controller;
  // Twins outlive the manager (its destructor detaches from them).
  std::vector<std::unique_ptr<EdgeAgent>> twins;
  SubscriptionManager manager(&controller);
  std::unique_ptr<TransportHub> hub;
  std::vector<std::unique_ptr<ShmAgentThread>> threads;
  std::vector<HostId> hosts;
  if (shm) {
    TransportOptions options;
    options.shm_prefix = BenchShmPrefix();
    hub = std::make_unique<TransportHub>(&controller, &manager, options);
  }

  for (int a = 0; a < num_agents; ++a) {
    const HostId host = topo.hosts()[size_t(a)];
    hosts.push_back(host);
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = kShards;
    twins.push_back(std::make_unique<EdgeAgent>(host, &topo, &codec, cfg));
    controller.RegisterAgent(twins.back().get());
    if (shm) {
      threads.push_back(
          std::make_unique<ShmAgentThread>(hub->AddShmPeer(host), host, &topo, &codec));
    }
  }
  if (shm && !hub->WaitForHellos(10'000'000)) {
    std::printf("shm agents never said hello\n");
    return false;
  }

  StandingQuerySpec topk;
  topk.kind = StandingQuerySpec::Kind::kTopK;
  topk.k = 500;
  StandingQuerySpec list;
  list.kind = StandingQuerySpec::Kind::kFlowList;
  list.link = kProbeLink;
  auto subscribe = [&](const StandingQuerySpec& spec) {
    return shm ? hub->Subscribe(hosts, spec) : manager.Subscribe(hosts, spec);
  };
  const uint64_t topk_sub = subscribe(topk);
  const uint64_t list_sub = subscribe(list);

  std::vector<double> epoch_us;
  auto t0 = std::chrono::steady_clock::now();
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    const uint32_t seed = 0xBE0000u + uint32_t(epoch);
    for (auto& twin : twins) {
      IngestSynthetic(twin->tib(), twin->host(), uint32_t(records_per_epoch), seed,
                      {.ip_space = kIpSpace, .switch_space = kSwitchSpace});
    }
    if (shm) {
      hub->SendIngest(uint32_t(records_per_epoch), seed, kIpSpace, kSwitchSpace);
    }
    auto e0 = std::chrono::steady_clock::now();
    if (shm) {
      if (!hub->WaitForAcks(hub->SendEpochTick(), 30'000'000)) {
        std::printf("epoch %d never acked\n", epoch);
        return false;
      }
      hub->Flush();
    } else {
      manager.TickEpoch();
      manager.Flush();
    }
    epoch_us.push_back(Seconds(e0) * 1e6);
  }
  const double total_s = Seconds(t0);

  // Identity gate: the standing results fold exactly what a poll sees.
  Controller::QueryFn poll_topk = [](EdgeAgent& a) -> QueryResult {
    return a.TopK(500, TimeRange::All());
  };
  Controller::QueryFn poll_list = [](EdgeAgent& a) -> QueryResult {
    return FlowList{a.GetFlows(kProbeLink, TimeRange::All())};
  };
  const bool identical = manager.Materialize(topk_sub) == controller.Execute(hosts, poll_topk).first &&
                         manager.Materialize(list_sub) == controller.Execute(hosts, poll_list).first;

  const SubscriptionManagerStats ms = manager.stats();
  const double p50_ms = Percentile(epoch_us, 0.50) / 1e3;
  const double p99_ms = Percentile(epoch_us, 0.99) / 1e3;
  if (p50_ms_out != nullptr) {
    *p50_ms_out = p50_ms;
  }
  if (!quiet) {
    std::printf("%-8s %7d %7d %10.2f %10.2f %12.0f %12.1f %10s\n", shm ? "shm" : "inproc",
                num_agents, epochs, p50_ms, p99_ms, double(ms.deltas_folded) / total_s,
                double(ms.delta_bytes) / 1e3, identical ? "yes" : "NO");
    const std::string section = std::string("pipeline.") + (shm ? "shm" : "inproc");
    bench::BenchReport& report = bench::BenchReport::Global();
    report.Add(section, "epoch_p50", p50_ms, "ms");
    report.Add(section, "epoch_p99", p99_ms, "ms");
    report.Add(section, "deltas_per_sec", double(ms.deltas_folded) / total_s, "1/s");
    report.Add(section, "delta_kb", double(ms.delta_bytes) / 1e3, "KB");
    report.Add(section, "identical", identical ? 1 : 0, "bool");
  }
  if (shm && !quiet) {
    const TransportStats st = hub->stats();
    std::printf("         shm detail: frames %llu, wire %.1f KB, blocked pushes %llu, "
                "seq gaps %llu, decode errors %llu\n",
                (unsigned long long)st.frames, double(st.bytes) / 1e3,
                (unsigned long long)st.blocked_pushes, (unsigned long long)st.seq_gaps,
                (unsigned long long)st.decode_errors);
  }
  if (shm) {
    hub->SendShutdown();
  }
  threads.clear();
  return identical;
}

// Instrumentation-overhead gate: the same inproc epoch pipeline with the
// registry + tracer on vs off.  Exits non-zero (gates CI) when the
// overhead exceeds PATHDUMP_OVERHEAD_MAX_PCT AND the absolute p50 delta
// is above a noise floor — tiny absolute regressions on a fast pipeline
// are scheduler noise, not instrumentation cost.
bool OverheadSection(int num_agents, int epochs, int records_per_epoch) {
  bench::Section("instrumentation overhead: metrics+trace on vs off (inproc epoch pipeline)");
  constexpr double kNoiseFloorMs = 0.2;
  const int max_pct = IntFromEnv("PATHDUMP_OVERHEAD_MAX_PCT", 0);  // 0 = report only

  double warm_ms = 0, on_ms = 0, off_ms = 0;
  // Warmup run (populates registry handles, page-faults the rings).
  bool ok = PipelineSection(/*shm=*/false, num_agents, epochs, records_per_epoch, &warm_ms,
                            /*quiet=*/true);
  MetricsRegistry::SetEnabled(false);
  Tracer::Global().SetEnabled(false);
  ok = PipelineSection(/*shm=*/false, num_agents, epochs, records_per_epoch, &off_ms,
                       /*quiet=*/true) &&
       ok;
  MetricsRegistry::SetEnabled(true);
  Tracer::Global().SetEnabled(true);
  ok = PipelineSection(/*shm=*/false, num_agents, epochs, records_per_epoch, &on_ms,
                       /*quiet=*/true) &&
       ok;

  const double delta_ms = on_ms - off_ms;
  const double pct = off_ms > 0 ? delta_ms / off_ms * 100.0 : 0.0;
  std::printf("epoch p50 with instrumentation OFF: %.3f ms, ON: %.3f ms\n", off_ms, on_ms);
  std::printf("overhead: %+.3f ms (%+.2f%%), gate: %s\n", delta_ms, pct,
              max_pct > 0 ? (std::to_string(max_pct) + "%").c_str() : "report-only");
  bench::BenchReport& report = bench::BenchReport::Global();
  report.Add("overhead", "epoch_p50_off", off_ms, "ms");
  report.Add("overhead", "epoch_p50_on", on_ms, "ms");
  report.Add("overhead", "overhead_pct", pct, "%");

  if (!ok) {
    return false;
  }
  if (max_pct > 0 && pct > double(max_pct) && delta_ms > kNoiseFloorMs) {
    std::printf("OVERHEAD GATE FAILED: %.2f%% > %d%% (and %.3f ms > %.1f ms floor)\n", pct,
                max_pct, delta_ms, kNoiseFloorMs);
    return false;
  }
  return true;
}

int Main() {
  bench::Banner("Transport: shared-memory agent channels vs in-process delivery",
                "epoch pipeline cost is dominated by the delta fold either way; the shm "
                "ring adds bounded per-frame cost and the results stay byte-identical");

  const int messages = IntFromEnv("PATHDUMP_TRANSPORT_MSGS", 200000);
  const int num_agents = IntFromEnv("PATHDUMP_TRANSPORT_AGENTS", 4);
  const int epochs = IntFromEnv("PATHDUMP_TRANSPORT_EPOCHS", 8);
  const int records = IntFromEnv("PATHDUMP_TRANSPORT_RECORDS", 2000);

  RawRingSection(messages);

  bench::Section("epoch pipeline: ingest -> tick -> ack -> fold, in-process vs shm");
  std::printf("%-8s %7s %7s %10s %10s %12s %12s %10s\n", "path", "agents", "epochs",
              "p50(ms)", "p99(ms)", "deltas/s", "delta(KB)", "identical");
  bool all_identical = true;
  for (bool shm : {false, true}) {
    all_identical = PipelineSection(shm, num_agents, epochs, records) && all_identical;
  }

  all_identical = OverheadSection(num_agents, epochs, records) && all_identical;
  transport::CleanupShmByPrefix(BenchShmPrefix());

  bench::Section("shape check");
  std::printf("standing results byte-identical to fresh polls on both paths: %s\n",
              all_identical ? "YES" : "NO");
  bench::BenchReport::Global().WriteIfRequested();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace pathdump

int main() { return pathdump::Main(); }
