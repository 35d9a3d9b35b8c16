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

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/edge/tib.h"
#include "tests/shm_fleet.h"
#include "tests/test_util.h"

#ifndef AGENT_WORKER_PATH
#error "AGENT_WORKER_PATH must point at the agent_worker example binary"
#endif

namespace pathdump {
namespace {

using testutil::ShmFleet;
using transport::PeerState;
using transport::TransportStats;

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

testutil::FleetSetup ChaosSetup(size_t num_agents, size_t twin_tib_max_bytes) {
  testutil::FleetSetup s{.num_agents = num_agents,
                         .worker = AGENT_WORKER_PATH,
                         .twin_tib_max_bytes = twin_tib_max_bytes};
  // Any buffered out-of-order epoch declares the stream stale
  // immediately: a loss that lands while a snapshot is already in
  // flight still re-triggers recovery instead of pending forever.
  s.manager.gap_resync_threshold = 1;
  return s;
}

// The forked twin fleet (tests/shm_fleet.h) plus chaos's kill, restart
// and forced-resync steps.  Under a TIB ceiling the twins get it from
// the setup, and the forked workers read the same value from
// PATHDUMP_TIB_MAX_BYTES (set by the eviction-interplay test before the
// fleet forks them), so both sides retire the same epochs in lockstep.
struct ChaosTestbed : ShmFleet {
  explicit ChaosTestbed(size_t num_agents, size_t max_bytes = 0)
      : ShmFleet(ChaosSetup(num_agents, max_bytes)) {}

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
    ASSERT_TRUE(AwaitPeerState(h, PeerState::kDead))
        << "hub never detected the death of host " << h;
    // Fresh twin: the poll reference must model the restarted (empty)
    // agent, or identity post-recovery would be unachievable.
    twins[v] = MakeTwin(h);
    controller.RegisterAgent(twins[v].get());
    const std::string name = hub.RestartPeer(h);
    ASSERT_FALSE(name.empty());
    pids[v] = testutil::ForkWorker(setup.worker, name, h, setup.shards, hub.peer_incarnation(h));
    ASSERT_GT(pids[v], 0);
    ASSERT_TRUE(hub.WaitForPeerLive(h, 30'000'000)) << "host " << h << " never rejoined";
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
  const std::vector<uint64_t> subs = tb.SubscribeAll(specs);

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
  tb.ExpectWorkersExitCleanly();

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
    opt.num_shards = testutil::kFleetShards;
    Tib probe(opt);
    probe.Insert(MakeSyntheticRecords(1, 1, testutil::kFleetRecords)[0]);
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
  const std::vector<uint64_t> subs = tb.SubscribeAll(specs);

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
  tb.ExpectWorkersExitCleanly();
}

}  // namespace
}  // namespace pathdump
