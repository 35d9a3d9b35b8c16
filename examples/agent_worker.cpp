// agent_worker: one EdgeAgent as its own process.
//
//   agent_worker <shm_name> <host_id> <tib_shards> [incarnation]
//
// Maps the shared-memory segment the controller created (AddShmPeer, or
// RestartPeer for incarnation > 0), says Hello carrying the incarnation
// number, and then runs ShmAgentClient::Serve (src/transport/transport.h)
// until Shutdown: Subscribe, Ingest (IngestSynthetic — the controller's
// in-test twins derive the identical records, so it can poll them and
// assert byte-identity without shipping records around), EpochTick,
// ResyncRequest (crash recovery; see docs/ARCHITECTURE.md).
//
// While idle the worker watches the controller's pid (segment header):
// if the controller dies, the worker exits instead of lingering as an
// orphan holding the mapping.  tests/transport_multiproc_test.cc
// forks a fleet of these and SIGKILLs one mid-epoch to exercise crash
// semantics; tests/transport_chaos_test.cc restarts the victims and
// asserts full recovery.  PATHDUMP_FAULT_{SEED,DROP,CORRUPT,DELAY,DUP}
// install a seeded data-plane fault injector (rates per 10,000 frames);
// PATHDUMP_TIB_MAX_BYTES sets a TIB memory ceiling (epoch-windowed
// eviction — see docs/ARCHITECTURE.md).

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <signal.h>
#include <unistd.h>

#include "src/cherrypick/codec.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/transport/transport.h"

namespace {

bool ControllerAlive(pathdump::transport::ShmSegment& segment) {
  const uint32_t pid = segment.header()->controller_pid.load(std::memory_order_acquire);
  if (pid == 0) {
    return true;
  }
  return kill(pid_t(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pathdump;
  using namespace pathdump::transport;

  if (argc != 4 && argc != 5) {
    std::fprintf(stderr, "usage: %s <shm_name> <host_id> <tib_shards> [incarnation]\n",
                 argv[0]);
    return 1;
  }
  const std::string shm_name = argv[1];
  const HostId host = HostId(std::strtoul(argv[2], nullptr, 10));
  const size_t shards = std::strtoul(argv[3], nullptr, 10);
  const uint32_t incarnation = argc == 5 ? uint32_t(std::strtoul(argv[4], nullptr, 10)) : 0;

  // Tag every log line with this worker's identity.  The component
  // pointer must outlive the process, so the buffer is leaked on purpose.
  char* component = new char[32];
  std::snprintf(component, 32, "agent:%u", host);
  SetLogComponent(component);

  // Bounded connect: a restarted worker can race the hub's RestartPeer
  // segment creation, so retry with backoff instead of failing once.
  auto client = ShmAgentClient::OpenWithBackoff(shm_name, /*total_timeout_us=*/5'000'000);
  if (client == nullptr) {
    std::fprintf(stderr, "agent_worker: cannot map %s\n", shm_name.c_str());
    return 2;
  }
  const FaultInjectorConfig fault_cfg = FaultInjectorConfig::FromEnv();
  if (fault_cfg.any()) {
    // Per-host seed offset: a fleet sharing the env draws distinct but
    // reproducible fault sequences.
    FaultInjectorConfig cfg = fault_cfg;
    cfg.seed += host;
    client->SetFaultInjector(cfg);
  }

  Topology topo = BuildFatTree(4);
  LinkLabelMap labels(&topo);
  CherryPickCodec codec(&topo, &labels);
  EdgeAgentConfig cfg;
  cfg.tib_options.num_shards = shards;
  // Optional TIB memory ceiling (bytes); the chaos eviction-interplay
  // test sets this before forking so workers and their in-test twins
  // evict in lockstep (same inserts + same seal points + same ceiling =>
  // same retained window, in any process).
  if (const char* max_bytes = std::getenv("PATHDUMP_TIB_MAX_BYTES")) {
    cfg.tib_options.max_memory_bytes = std::strtoull(max_bytes, nullptr, 10);
  }
  EdgeAgent agent(host, &topo, &codec, cfg);

  if (!client->SendHello(host, incarnation)) {
    return 3;
  }

  // Exit-time trace dump: set PATHDUMP_TRACE_OUT=<path> to capture this
  // worker's span ring as Chrome-trace JSON (path gets ".<host>" appended
  // so a fleet sharing the env var never clobbers itself).
  const char* trace_env = std::getenv("PATHDUMP_TRACE_OUT");
  auto dump_trace = [&] {
    if (trace_env == nullptr || trace_env[0] == '\0') {
      return;
    }
    const std::string path = std::string(trace_env) + "." + std::to_string(host);
    Tracer::Global().WriteChromeTraceFile(path.c_str());
  };

  // Periodic observability report: every ~5s of idle serving, log what
  // moved since the last report.  Diffing snapshots keeps the line small
  // and makes a quiet interval obvious (all zeros).
  MetricsSnapshot last_snap = MetricsRegistry::Global().Snapshot();
  auto last_report = std::chrono::steady_clock::now();
  auto report_if_due = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_report < std::chrono::seconds(5)) {
      return;
    }
    last_report = now;
    MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    MetricsSnapshot delta = snap.Diff(last_snap);
    last_snap = std::move(snap);
    Logf(LogLevel::kInfo,
         "interval: %llu tib inserts, %llu epoch ticks, %llu deltas (%llu B), %llu ring pushes",
         (unsigned long long)delta.counters["tib.inserts"],
         (unsigned long long)delta.counters["epoch.ticks"],
         (unsigned long long)delta.counters["standing.deltas_produced"],
         (unsigned long long)delta.counters["standing.delta_bytes_produced"],
         (unsigned long long)delta.counters["ring.delta_pushes"]);
  };

  client->Serve(agent, host, [&] {
    if (!ControllerAlive(client->segment())) {
      return false;  // controller died; don't linger as an orphan
    }
    report_if_due();
    return true;
  });
  dump_trace();
  return 0;
}
