// Chaos soak: SIGKILL forked agents mid-subscription, restart them, and
// assert FULL recovery — not just survival.
//
// Each round ingests into the whole fleet, ticks an epoch, quiesces the
// recovery machinery, and asserts the materialized standing result is
// byte-identical to a fresh poll over the in-test twins — for all four
// standing kinds.  On kill rounds a seeded RNG picks a victim: it is
// SIGKILLed and reaped, the hub detects the death, RestartPeer retires
// the old segment and arms the rejoin window, a fresh worker process is
// forked with the bumped incarnation number, and the rejoin handshake
// re-subscribes + snapshot-resyncs every covering stream.  The victim's
// twin is reset to a fresh EdgeAgent (its records died with it), so the
// poll reference tracks exactly what a recovered system must report.
//
// Seed comes from PATHDUMP_CHAOS_SEED (fixed default) so CI runs are
// reproducible; PATHDUMP_CHAOS_METRICS_OUT=<path> dumps the final
// process-wide metrics registry as JSON (the CI chaos step uploads it
// as the recovery-metrics artifact).
//
// Labeled `multiproc;chaos` in CTest: the CI chaos step runs `ctest -L
// chaos`; the plain multiproc step excludes it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/tib.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"
#include "tests/test_util.h"

#ifndef AGENT_WORKER_PATH
#error "AGENT_WORKER_PATH must point at the agent_worker example binary"
#endif

namespace pathdump {
namespace {

using transport::PeerState;
using transport::TransportHub;
using transport::TransportOptions;
using transport::TransportStats;

std::string TestShmPrefix() { return "/pathdump.chaos." + std::to_string(getpid()) + "."; }

class ShmCleanupEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { transport::CleanupShmByPrefix(TestShmPrefix()); }
};
const auto* const kCleanupEnv =
    ::testing::AddGlobalTestEnvironment(new ShmCleanupEnvironment());

constexpr uint32_t kIpSpace = 2048;
constexpr uint32_t kSwitchSpace = 24;
constexpr size_t kShards = 4;
constexpr size_t kTopK = 300;
constexpr int64_t kBinWidth = 10000;
const LinkId kProbeLink{3, 7};

uint64_t ChaosSeed() {
  const char* env = std::getenv("PATHDUMP_CHAOS_SEED");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC4A05;
}


pid_t ForkWorker(const std::string& shm_name, HostId host, uint32_t incarnation) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(AGENT_WORKER_PATH, "agent_worker", shm_name.c_str(),
          std::to_string(host).c_str(), std::to_string(kShards).c_str(),
          std::to_string(incarnation).c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

int ReapWithDeadline(pid_t pid, int64_t timeout_us) {
  const int64_t step_us = 20'000;
  int status = -1;
  for (int64_t waited = 0; waited <= timeout_us; waited += step_us) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return status;
    }
    if (r < 0) {
      return -1;
    }
    timespec ts{0, step_us * 1000};
    nanosleep(&ts, nullptr);
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return status;
}

struct ChaosTestbed {
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  std::vector<std::unique_ptr<EdgeAgent>> twins;
  SubscriptionManager manager;
  TransportHub hub;
  std::vector<HostId> hosts;
  std::vector<pid_t> pids;
  // TIB memory ceiling applied to the in-test twins.  The forked
  // workers read the same value from PATHDUMP_TIB_MAX_BYTES (set by the
  // eviction-interplay test before the testbed forks them), so both
  // sides retire the same epochs in lockstep.
  size_t tib_max_bytes = 0;

  static TransportOptions MakeOptions() {
    TransportOptions o;
    o.backend = TransportOptions::Backend::kSharedMemory;
    o.shm_prefix = TestShmPrefix();
    return o;
  }
  static SubscriptionManagerOptions MakeManagerOptions() {
    SubscriptionManagerOptions o;
    // Any buffered out-of-order epoch declares the stream stale
    // immediately: a loss that lands while a snapshot is already in
    // flight still re-triggers recovery instead of pending forever.
    o.gap_resync_threshold = 1;
    return o;
  }

  explicit ChaosTestbed(size_t num_agents, size_t max_bytes = 0)
      : topo(BuildFatTree(4)),
        labels(&topo),
        codec(&topo, &labels),
        manager(&controller, MakeManagerOptions()),
        hub(&controller, &manager, MakeOptions()) {
    tib_max_bytes = max_bytes;
    for (size_t a = 0; a < num_agents; ++a) {
      HostId h = topo.hosts()[a];
      hosts.push_back(h);
      twins.push_back(MakeTwin(h));
      controller.RegisterAgent(twins.back().get());
      const std::string name = hub.AddShmPeer(h);
      EXPECT_FALSE(name.empty());
      pids.push_back(ForkWorker(name, h, /*incarnation=*/0));
      EXPECT_GT(pids.back(), 0);
    }
  }

  ~ChaosTestbed() {
    hub.SendShutdown();
    for (pid_t pid : pids) {
      if (pid > 0) {
        ReapWithDeadline(pid, 10'000'000);
      }
    }
  }

  std::unique_ptr<EdgeAgent> MakeTwin(HostId h) {
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = kShards;
    cfg.tib_options.max_memory_bytes = tib_max_bytes;
    return std::make_unique<EdgeAgent>(h, &topo, &codec, cfg);
  }

  void Ingest(uint32_t count, uint32_t seed) {
    testutil::SyntheticRecordOptions opt;
    opt.ip_space = kIpSpace;
    opt.switch_space = kSwitchSpace;
    for (auto& twin : twins) {
      for (const TibRecord& rec : testutil::MakeSyntheticRecords(
               int(count), seed + uint32_t(twin->host()), opt)) {
        twin->tib().Insert(rec);
      }
    }
    hub.SendIngest(count, seed, kIpSpace, kSwitchSpace);
  }

  void Epoch() {
    const uint64_t token = hub.SendEpochTick();
    ASSERT_TRUE(hub.WaitForAcks(token, 60'000'000));
    // Twins seal in lockstep with the workers (the worker ring is FIFO,
    // so its Ingest precedes its EpochTick exactly as the twin's Insert
    // calls preceded this).  Under a memory ceiling both sides retire
    // the same epochs, keeping the poll reference byte-comparable.
    for (auto& twin : twins) {
      twin->EpochTick();
    }
    hub.Flush();
  }

  // Rebase every stream onto the retained window: stale-mark all
  // sub x host pairs and ship a ResyncRequest for each.  Every request
  // folds exactly one snapshot (snapshots unconditionally replace the
  // stream's baseline), so callers can account folds as
  // subs.size() * hosts.size() per sweep.
  void ForceResyncAll(const std::vector<uint64_t>& subs) {
    for (uint64_t id : subs) {
      for (HostId h : hosts) {
        manager.MarkStale(id, h);
        hub.RequestResync(id, h);
      }
    }
  }

  // Waits until every triggered resync has completed (no stale stream,
  // no buffered gap) — byte-identity is only meaningful afterwards.
  bool Quiesce(const std::vector<uint64_t>& subs, int64_t timeout_us) {
    const int64_t deadline_us = timeout_us;
    for (int64_t waited = 0;; waited += 1000) {
      hub.Flush();
      bool settled = manager.stale_streams() == 0;
      for (uint64_t id : subs) {
        settled = settled && manager.info(id).pending_gaps == 0;
      }
      if (settled) {
        return true;
      }
      if (waited >= deadline_us) {
        return false;
      }
      timespec ts{0, 1'000'000};
      nanosleep(&ts, nullptr);
    }
  }

  void ExpectPollIdentity(const std::vector<StandingQuerySpec>& specs,
                          const std::vector<uint64_t>& subs, const std::string& context) {
    for (size_t s = 0; s < specs.size(); ++s) {
      auto [poll, stats] = controller.Execute(hosts, testutil::PollOf(specs[s]));
      QueryResult standing = manager.Materialize(subs[s]);
      EXPECT_EQ(standing, poll) << context << ", kind " << s;
    }
  }

  // SIGKILL agent `v`, wait for the hub to notice, restart it with the
  // next incarnation, and reset its twin (the records died with it).
  void KillAndRestart(size_t v) {
    const HostId h = hosts[v];
    ASSERT_EQ(kill(pids[v], SIGKILL), 0);
    {
      int status = 0;
      ASSERT_EQ(waitpid(pids[v], &status, 0), pids[v]);
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
      pids[v] = -1;
    }
    // The reactor detects the dead pid on its next liveness pass.
    for (int64_t waited = 0; hub.peer_state(h) != PeerState::kDead; waited += 1000) {
      ASSERT_LT(waited, 30'000'000) << "hub never detected the death of host " << h;
      timespec ts{0, 1'000'000};
      nanosleep(&ts, nullptr);
    }
    // Fresh twin: the poll reference must model the restarted (empty)
    // agent, or identity post-recovery would be unachievable.
    twins[v] = MakeTwin(h);
    controller.RegisterAgent(twins[v].get());
    const std::string name = hub.RestartPeer(h);
    ASSERT_FALSE(name.empty());
    pids[v] = ForkWorker(name, h, hub.peer_incarnation(h));
    ASSERT_GT(pids[v], 0);
    ASSERT_TRUE(hub.WaitForPeerLive(h, 30'000'000)) << "host " << h << " never rejoined";
  }

  // WaitForPeerLive can return before the rejoin's resync requests are
  // even marked (the reactor flips the state first) — gate on the
  // end-to-end signal: every kill so far produced a full set of
  // snapshot folds.
  void AwaitSnapshotFolds(uint64_t expected_min) {
    for (int64_t waited = 0; manager.stats().snapshot_folds < expected_min;
         waited += 1000) {
      hub.Flush();
      ASSERT_LT(waited, 30'000'000)
          << "only " << manager.stats().snapshot_folds << " snapshot folds, want >= "
          << expected_min;
      timespec ts{0, 1'000'000};
      nanosleep(&ts, nullptr);
    }
  }
};

TEST(TransportChaos, KilledAndRestartedAgentsRecoverToByteIdentity) {
  const size_t kAgents = 3;
  const uint32_t kPerEpoch = 600;
  const int kRounds = 5;
  const uint64_t seed = ChaosSeed();

  ChaosTestbed tb(kAgents);
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000)) << "agents never mapped their segments";

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  std::vector<uint64_t> subs;
  for (const StandingQuerySpec& spec : specs) {
    subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
  }

  Rng rng(seed, /*stream=*/0xC4A05u);
  uint64_t kills = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string ctx = "round " + std::to_string(round);
    tb.Ingest(kPerEpoch, uint32_t(seed) + 0x1000u * uint32_t(round + 1));
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    ASSERT_TRUE(tb.Quiesce(subs, 30'000'000)) << ctx;
    tb.ExpectPollIdentity(specs, subs, ctx);

    // Kill rounds: every odd round loses one seeded victim (the same
    // host can die twice — incarnations keep counting up).
    if (round % 2 == 1) {
      const size_t victim = rng.UniformInt(uint32_t(kAgents));
      tb.KillAndRestart(victim);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      ++kills;
      // One rejoin fires one resync per covering subscription.
      tb.AwaitSnapshotFolds(kills * subs.size());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      ASSERT_TRUE(tb.Quiesce(subs, 30'000'000)) << ctx << " post-restart";
      tb.ExpectPollIdentity(specs, subs, ctx + " post-restart");
    }
  }
  ASSERT_GT(kills, 0u);

  // Full recovery, by the numbers: every kill produced exactly one
  // completed rejoin, nobody is dead or stuck rejoining at the end, the
  // recovery traffic itself was clean, and every submitted delta landed
  // in a terminal accounting bucket with none folded out of order.
  const TransportStats st = tb.hub.stats();
  EXPECT_EQ(st.peers_rejoined, kills);
  EXPECT_EQ(st.peers_dead, 0u);
  EXPECT_EQ(st.peers_rejoining, 0u);
  EXPECT_EQ(st.peers_gave_up, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
  EXPECT_GE(st.resync_requests, kills * subs.size());
  EXPECT_GE(st.snapshots, kills * subs.size());

  const SubscriptionManagerStats ss = tb.manager.stats();
  EXPECT_GE(ss.snapshot_folds, kills * subs.size());
  EXPECT_EQ(ss.deltas_orphaned, 0u);
  EXPECT_EQ(ss.deltas_submitted,
            ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);

  // Graceful teardown: the whole fleet — restarted incarnations
  // included — says Bye and exits 0.
  tb.hub.SendShutdown();
  for (pid_t& pid : tb.pids) {
    const int status = ReapWithDeadline(pid, 10'000'000);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << pid << " status " << status;
    pid = -1;
  }

  // CI artifact: the final process-wide registry (recovery counters
  // included) as JSON.
  if (const char* out = std::getenv("PATHDUMP_CHAOS_METRICS_OUT")) {
    if (out[0] != '\0') {
      std::ofstream f(out);
      f << MetricsRegistry::Global().Snapshot().ToJson() << "\n";
    }
  }
}

// Eviction interplay: the same kill/restart chaos, but every TIB —
// forked workers (via PATHDUMP_TIB_MAX_BYTES, inherited across fork)
// and their in-test twins — runs under a memory ceiling sized to ~2.5
// epochs of ingest.  Incremental standing folds stay exact since
// subscribe, but the poll reference forgets retired epochs, so after
// each epoch every stream is force-resynced onto the retained window;
// the materialized standing results must then be byte-identical to a
// fresh poll over the (equally windowed) twins.  Kill rounds prove the
// ISSUE's headline claim: a SIGKILL + restart rejoin still converges to
// byte identity even when the snapshot epoch's predecessors have been
// evicted on the surviving agents.
TEST(TransportChaos, ResyncAfterEvictionYieldsWindowedByteIdentity) {
  const size_t kAgents = 3;
  const uint32_t kPerEpoch = 600;
  const int kRounds = 6;
  const uint64_t seed = ChaosSeed() ^ 0xE71Cu;

  // Price one record with the exact twin/worker TIB options.  Resident
  // accounting is a deterministic count-based function of the build, so
  // a single probe insert yields the same per-record cost the workers
  // will see, and a ceiling derived from it evicts in lockstep on both
  // sides of the fork.
  size_t per_record = 0;
  {
    TibOptions opt;
    opt.num_shards = kShards;
    Tib probe(opt);
    testutil::SyntheticRecordOptions ropt;
    ropt.ip_space = kIpSpace;
    ropt.switch_space = kSwitchSpace;
    probe.Insert(testutil::MakeSyntheticRecords(1, 1, ropt)[0]);
    per_record = probe.bytes_resident();
  }
  ASSERT_GT(per_record, 0u);
  const size_t ceiling = per_record * size_t(kPerEpoch) * 5 / 2;

  // Workers read the ceiling from the environment at startup; set it
  // before the testbed forks them.  KillAndRestart forks replacements
  // later, so the guard clears it only when the test body unwinds.
  struct EnvGuard {
    ~EnvGuard() { unsetenv("PATHDUMP_TIB_MAX_BYTES"); }
  } env_guard;
  setenv("PATHDUMP_TIB_MAX_BYTES", std::to_string(ceiling).c_str(), 1);

  ChaosTestbed tb(kAgents, ceiling);
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000)) << "agents never mapped their segments";

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  std::vector<uint64_t> subs;
  for (const StandingQuerySpec& spec : specs) {
    subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
  }

  Rng rng(seed, /*stream=*/0xE71Cu);
  uint64_t kills = 0;
  uint64_t min_total_folds = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string ctx = "eviction round " + std::to_string(round);
    tb.Ingest(kPerEpoch, uint32_t(seed) + 0x2000u * uint32_t(round + 1));
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    // Kill early (rounds 1 and 2) so even the restarted agents outlive
    // the ~2.5-epoch ceiling and serve later snapshots from a partially
    // evicted TIB — by the final rounds EVERY resync baseline crosses a
    // retirement boundary.
    if (round == 1 || round == 2) {
      const size_t victim = rng.UniformInt(uint32_t(kAgents));
      tb.KillAndRestart(victim);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      ++kills;
    }

    // Baseline the fold counter at the sweep, not cumulatively: the
    // rejoin's own resync requests fold too, but only when the reactor
    // marks the victim's streams before this sweep stale-marks them
    // (already-stale streams are not re-requested by the rejoin pass) —
    // counting them as guaranteed would race.  The sweep's own
    // subs x hosts snapshots always fold.
    const uint64_t before = tb.manager.stats().snapshot_folds;
    tb.ForceResyncAll(subs);
    tb.AwaitSnapshotFolds(before + subs.size() * tb.hosts.size());
    min_total_folds += subs.size() * tb.hosts.size();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    ASSERT_TRUE(tb.Quiesce(subs, 30'000'000)) << ctx;
    tb.ExpectPollIdentity(specs, subs, ctx);
  }
  ASSERT_EQ(kills, 2u);

  // The interplay is only proven if eviction actually fired everywhere:
  // every twin — the kill victims' replacements included — must have
  // retired whole epochs while staying under the ceiling with exact
  // accounting.
  for (size_t a = 0; a < kAgents; ++a) {
    const TibMemoryStats ms = tb.twins[a]->tib().MemoryStats();
    EXPECT_GT(ms.evicted_records, 0u) << "twin " << a;
    EXPECT_GT(ms.segments_retired, 0u) << "twin " << a;
    EXPECT_LE(ms.resident_bytes, ceiling) << "twin " << a;
    EXPECT_EQ(ms.retained_records, ms.inserted_records - ms.evicted_records)
        << "twin " << a;
    EXPECT_GT(ms.oldest_retained_epoch, 1u) << "twin " << a;
  }

  // Recovery traffic stayed clean and every submitted delta landed in a
  // terminal accounting bucket.
  const TransportStats st = tb.hub.stats();
  EXPECT_EQ(st.peers_rejoined, kills);
  EXPECT_EQ(st.peers_dead, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
  const SubscriptionManagerStats ss = tb.manager.stats();
  EXPECT_GE(ss.snapshot_folds, min_total_folds);
  EXPECT_EQ(ss.deltas_submitted,
            ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);

  // Graceful teardown: the whole fleet exits 0 even though everything
  // they ever resynced was a truncated window.
  tb.hub.SendShutdown();
  for (pid_t& pid : tb.pids) {
    const int status = ReapWithDeadline(pid, 10'000'000);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << pid << " status " << status;
    pid = -1;
  }
}

}  // namespace
}  // namespace pathdump
