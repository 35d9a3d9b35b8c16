// Cross-process transport harness: real forked agent processes
// (examples/agent_worker.cpp) speaking real frames over real POSIX
// shared memory to the in-test controller.
//
//  1. Poll identity — N forked agents ingest synthetic records (derived
//     from the broadcast seed + host), ship standing deltas over their
//     rings, and at every epoch boundary the materialized standing
//     result equals a fresh poll over an in-test twin fleet fed the
//     identical records.  All four standing kinds.
//  2. Crash semantics — SIGKILL one agent after it acked an epoch; the
//     controller detects the death (TransportStats::peers_dead, no Bye),
//     excuses it from acks, and keeps folding the survivors; the
//     materialized result equals a poll where the victim's twin is
//     frozen at its last acked epoch.  No deadlock, no corruption.
//
// Labeled `multiproc` in CTest: CI runs it in its own step, and the
// main test step excludes the label (forking under a parallel ctest run
// of every other suite would only add noise).  A global environment
// sweeps /dev/shm on teardown so no segment outlives a failed run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>

#include "src/transport/shm_ring.h"
#include "tests/shm_fleet.h"
#include "tests/test_util.h"

#ifndef AGENT_WORKER_PATH
#error "AGENT_WORKER_PATH must point at the agent_worker example binary"
#endif

namespace pathdump {
namespace {

using testutil::FleetSetup;
using testutil::ShmFleet;
using transport::ShmSegment;
using transport::TransportStats;

constexpr size_t kTopK = 300;
constexpr int64_t kBinWidth = 10000;
const LinkId kProbeLink{3, 7};

// Forked fleet + in-test twins (tests/shm_fleet.h).
FleetSetup Forked(size_t num_agents) {
  return {.num_agents = num_agents, .worker = AGENT_WORKER_PATH};
}

TEST(TransportMultiproc, ForkedAgentsMatchPollByteForByte) {
  const size_t kAgents = 3;
  const uint32_t kPerEpoch = 800;
  const int kEpochs = 3;

  ShmFleet tb(Forked(kAgents));
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000)) << "agents never mapped their segments";

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  const std::vector<uint64_t> subs = tb.SubscribeAll(specs);

  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    tb.Ingest(kPerEpoch, 0xC0DE0000u + uint32_t(epoch));
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    tb.ExpectPollIdentity(specs, subs, "epoch " + std::to_string(epoch));
  }

  // Graceful teardown: every worker says Bye and exits 0.
  tb.ExpectWorkersExitCleanly();

  const TransportStats st = tb.hub.stats();
  EXPECT_EQ(st.peers, kAgents);
  EXPECT_EQ(st.peers_hello, kAgents);
  EXPECT_EQ(st.peers_dead, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
  EXPECT_EQ(st.seq_gaps, 0u);
  EXPECT_GT(st.deltas, 0u);
  EXPECT_EQ(st.acks, uint64_t(kEpochs) * kAgents);

  // No segment outlives its hub... but the hub is still alive here;
  // the names exist exactly until it dies (checked by the cleanup
  // sweep + the leak assertion in the kill test below).
}

TEST(TransportMultiproc, SigkilledAgentSurfacesInStatsAndSurvivorsKeepFolding) {
  const size_t kAgents = 3;
  const size_t kVictim = 1;  // index into tb.hosts/tb.pids
  const uint32_t kPerEpoch = 600;

  ShmFleet tb(Forked(kAgents));
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000));

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  const std::vector<uint64_t> subs = tb.SubscribeAll(specs);

  // Epochs 1-2: the full fleet participates.
  for (int epoch = 1; epoch <= 2; ++epoch) {
    tb.Ingest(kPerEpoch, 0xDEAD0000u + uint32_t(epoch));
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  tb.ExpectPollIdentity(specs, subs, "pre-kill boundary");

  // SIGKILL the victim.  It acked epoch 2, so everything through epoch
  // 2 is already folded — its twin simply stops ingesting, making the
  // expected post-kill result deterministic.
  ASSERT_EQ(kill(tb.pids[kVictim], SIGKILL), 0);
  {
    int status = 0;
    ASSERT_EQ(waitpid(tb.pids[kVictim], &status, 0), tb.pids[kVictim]);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    tb.pids[kVictim] = -1;
  }

  // Epochs 3-4: survivors only.  The broadcast tick must not wedge on
  // the corpse — WaitForAcks excuses it once the reactor detects the
  // dead pid.
  std::vector<size_t> survivors;
  for (size_t a = 0; a < kAgents; ++a) {
    if (a != kVictim) {
      survivors.push_back(a);
    }
  }
  for (int epoch = 3; epoch <= 4; ++epoch) {
    tb.Ingest(kPerEpoch, 0xDEAD0000u + uint32_t(epoch), survivors);
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    tb.ExpectPollIdentity(specs, subs, "post-kill epoch " + std::to_string(epoch));
  }

  // The death is surfaced, counted, and attributed; the fold saw no
  // corruption and no sequence gap (SIGKILL can truncate a stream, not
  // tear a message).
  const TransportStats st = tb.hub.stats();
  EXPECT_EQ(st.peers_dead, 1u);
  EXPECT_EQ(st.peers_bye, 0u);
  EXPECT_EQ(st.decode_errors, 0u);
  ASSERT_EQ(tb.hub.dead_hosts().size(), 1u);
  EXPECT_EQ(tb.hub.dead_hosts()[0], tb.hosts[kVictim]);
  SubscriptionManagerStats mstats = tb.manager.stats();
  EXPECT_EQ(mstats.deltas_folded, mstats.deltas_submitted);

  // Survivors exit gracefully (the victim's pid is already reaped).
  tb.ExpectWorkersExitCleanly();
}

TEST(TransportMultiproc, SegmentsDoNotOutliveTheHub) {
  // Segment names are created by the hub and unlinked by its
  // destructor; after it dies, none of this suite's names resolve.
  std::vector<std::string> names;
  {
    ShmFleet tb(Forked(2));
    ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000));
    for (HostId h : tb.hosts) {
      names.push_back(testutil::FleetShmPrefix() + std::to_string(h));
      EXPECT_NE(ShmSegment::Open(names.back()), nullptr);
    }
  }
  for (const std::string& name : names) {
    EXPECT_EQ(ShmSegment::Open(name), nullptr) << name << " leaked";
  }
}

}  // namespace
}  // namespace pathdump
