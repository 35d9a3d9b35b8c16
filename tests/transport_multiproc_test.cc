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

#include <memory>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
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

using transport::ShmSegment;
using transport::TransportHub;
using transport::TransportOptions;
using transport::TransportStats;

std::string TestShmPrefix() { return "/pathdump.mp." + std::to_string(getpid()) + "."; }

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


pid_t ForkWorker(const std::string& shm_name, HostId host) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(AGENT_WORKER_PATH, "agent_worker", shm_name.c_str(),
          std::to_string(host).c_str(), std::to_string(kShards).c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

// Reaps `pid`, SIGKILLing it if it has not exited within `timeout_us`.
// Returns the waitpid status (or -1 on reap failure).
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

// Forked fleet + in-test twins.  The twins are the poll reference: both
// sides generate records from (seed + host), so byte-identity across the
// process boundary is checkable without shipping any records in-test.
struct MultiprocTestbed {
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  std::vector<std::unique_ptr<EdgeAgent>> twins;
  SubscriptionManager manager;
  TransportHub hub;
  std::vector<HostId> hosts;
  std::vector<pid_t> pids;

  static TransportOptions MakeOptions() {
    TransportOptions o;
    o.backend = TransportOptions::Backend::kSharedMemory;
    o.shm_prefix = TestShmPrefix();
    return o;
  }

  explicit MultiprocTestbed(size_t num_agents)
      : topo(BuildFatTree(4)),
        labels(&topo),
        codec(&topo, &labels),
        manager(&controller),
        hub(&controller, &manager, MakeOptions()) {
    for (size_t a = 0; a < num_agents; ++a) {
      HostId h = topo.hosts()[a];
      hosts.push_back(h);
      EdgeAgentConfig cfg;
      cfg.tib_options.num_shards = kShards;
      twins.push_back(std::make_unique<EdgeAgent>(h, &topo, &codec, cfg));
      controller.RegisterAgent(twins.back().get());
      const std::string name = hub.AddShmPeer(h);
      EXPECT_FALSE(name.empty());
      pids.push_back(ForkWorker(name, h));
      EXPECT_GT(pids.back(), 0);
    }
  }

  ~MultiprocTestbed() {
    hub.SendShutdown();
    for (pid_t pid : pids) {
      if (pid > 0) {
        ReapWithDeadline(pid, 10'000'000);
      }
    }
  }

  // Ingests one epoch of records into the twins listed in `into` and
  // broadcasts the matching Ingest frame to the forked fleet.
  void Ingest(uint32_t count, uint32_t seed, const std::vector<size_t>& into) {
    testutil::SyntheticRecordOptions opt;
    opt.ip_space = kIpSpace;
    opt.switch_space = kSwitchSpace;
    for (size_t a : into) {
      for (const TibRecord& rec : testutil::MakeSyntheticRecords(
               int(count), seed + uint32_t(twins[a]->host()), opt)) {
        twins[a]->tib().Insert(rec);
      }
    }
    hub.SendIngest(count, seed, kIpSpace, kSwitchSpace);
  }

  void Epoch() {
    const uint64_t token = hub.SendEpochTick();
    ASSERT_TRUE(hub.WaitForAcks(token, 60'000'000));
    hub.Flush();
  }

  void ExpectPollIdentity(const std::vector<StandingQuerySpec>& specs,
                          const std::vector<uint64_t>& subs, const std::string& context) {
    for (size_t s = 0; s < specs.size(); ++s) {
      auto [poll, stats] = controller.Execute(hosts, testutil::PollOf(specs[s]));
      QueryResult standing = manager.Materialize(subs[s]);
      EXPECT_EQ(standing, poll) << context << ", kind " << s;
    }
  }
};

std::vector<size_t> AllOf(size_t n) {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = i;
  }
  return out;
}

TEST(TransportMultiproc, ForkedAgentsMatchPollByteForByte) {
  const size_t kAgents = 3;
  const uint32_t kPerEpoch = 800;
  const int kEpochs = 3;

  MultiprocTestbed tb(kAgents);
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000)) << "agents never mapped their segments";

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  std::vector<uint64_t> subs;
  for (const StandingQuerySpec& spec : specs) {
    subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
  }

  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    tb.Ingest(kPerEpoch, 0xC0DE0000u + uint32_t(epoch), AllOf(kAgents));
    tb.Epoch();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    tb.ExpectPollIdentity(specs, subs, "epoch " + std::to_string(epoch));
  }

  // Graceful teardown: every worker says Bye and exits 0.
  tb.hub.SendShutdown();
  for (pid_t& pid : tb.pids) {
    const int status = ReapWithDeadline(pid, 10'000'000);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "worker " << pid << " status " << status;
    pid = -1;  // already reaped
  }

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

  MultiprocTestbed tb(kAgents);
  ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000));

  const std::vector<StandingQuerySpec> specs =
      testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);
  std::vector<uint64_t> subs;
  for (const StandingQuerySpec& spec : specs) {
    subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
  }

  // Epochs 1-2: the full fleet participates.
  for (int epoch = 1; epoch <= 2; ++epoch) {
    tb.Ingest(kPerEpoch, 0xDEAD0000u + uint32_t(epoch), AllOf(kAgents));
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

  // Survivors exit gracefully.
  tb.hub.SendShutdown();
  for (size_t a : survivors) {
    const int status = ReapWithDeadline(tb.pids[a], 10'000'000);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    tb.pids[a] = -1;
  }
}

TEST(TransportMultiproc, SegmentsDoNotOutliveTheHub) {
  // Segment names are created by the hub and unlinked by its
  // destructor; after it dies, none of this suite's names resolve.
  std::vector<std::string> names;
  {
    MultiprocTestbed tb(2);
    ASSERT_TRUE(tb.hub.WaitForHellos(30'000'000));
    for (HostId h : tb.hosts) {
      names.push_back(TestShmPrefix() + std::to_string(h));
      EXPECT_NE(ShmSegment::Open(names.back()), nullptr);
    }
  }
  for (const std::string& name : names) {
    EXPECT_EQ(ShmSegment::Open(name), nullptr) << name << " leaked";
  }
}

}  // namespace
}  // namespace pathdump
