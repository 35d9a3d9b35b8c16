// One twin-fleet testbed for the transport suites.
//
// A fleet is N standing-query agents plus N in-test "twins": EdgeAgents
// registered with the controller that ingest the same records, so a
// fresh poll over the twins is the reference every standing result is
// compared against.  Every agent sits behind its own segment and runs
// ShmAgentClient::Serve, either on a thread of this process
// (ShmAgentThread) or, given an agent_worker binary, as a forked process
// (ForkWorker).
//
// Both sides derive their records through IngestSynthetic's (seed + host)
// convention, so byte identity across the ring needs no records shipped
// in-test.  Segments carry a pid-scoped prefix that a global test
// environment sweeps on teardown, so no /dev/shm entry survives even a
// failed run.

#ifndef PATHDUMP_TESTS_SHM_FLEET_H_
#define PATHDUMP_TESTS_SHM_FLEET_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/cherrypick/codec.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/edge_agent.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"
#include "src/workload/synthetic_records.h"
#include "tests/test_util.h"

namespace pathdump {
namespace testutil {

inline constexpr SyntheticRecordOptions kFleetRecords{.ip_space = 2048, .switch_space = 24};
inline constexpr size_t kFleetShards = 4;

inline std::string FleetShmPrefix() {
  return "/pathdump.test." + std::to_string(getpid()) + ".";
}

class ShmCleanupEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { transport::CleanupShmByPrefix(FleetShmPrefix()); }
};
inline const auto* const kShmCleanupEnv =
    ::testing::AddGlobalTestEnvironment(new ShmCleanupEnvironment());

inline transport::TransportOptions FleetTransportOptions(
    int64_t rejoin_timeout_us = transport::TransportOptions{}.rejoin_timeout_us) {
  transport::TransportOptions o;
  o.shm_prefix = FleetShmPrefix();
  o.rejoin_timeout_us = rejoin_timeout_us;
  return o;
}

// A thread standing in for an agent_worker process: the same client,
// rings, frames and Serve loop.  `fault` (if any()) installs a seeded
// data-plane fault injector with the per-host seed offset; the Hello
// carries `incarnation` (nonzero for a RestartPeer segment).  The
// destructor stops and joins the thread whether or not a Shutdown frame
// was ever sent.
class ShmAgentThread {
 public:
  ShmAgentThread(std::string name, HostId host, size_t shards, const Topology* topo,
                 const CherryPickCodec* codec, transport::FaultInjectorConfig fault = {},
                 uint32_t incarnation = 0)
      : thread_([this, name = std::move(name), host, shards, topo, codec, fault, incarnation] {
          auto client = transport::ShmAgentClient::Open(name);
          if (client == nullptr) {
            ADD_FAILURE() << "cannot map " << name;
            return;
          }
          if (fault.any()) {
            transport::FaultInjectorConfig cfg = fault;
            cfg.seed += host;
            client->SetFaultInjector(cfg);
          }
          EdgeAgentConfig cfg;
          cfg.tib_options.num_shards = shards;
          EdgeAgent agent(host, topo, codec, cfg);
          client->SendHello(host, incarnation);
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

// Execs `worker` (an agent_worker binary) for one host.
inline pid_t ForkWorker(const char* worker, const std::string& shm_name, HostId host,
                        size_t shards, uint32_t incarnation = 0) {
  const pid_t pid = fork();
  if (pid == 0) {
    execl(worker, "agent_worker", shm_name.c_str(), std::to_string(host).c_str(),
          std::to_string(shards).c_str(), std::to_string(incarnation).c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

// Reaps `pid`, SIGKILLing it if it has not exited within `timeout_us`.
// Returns the waitpid status (or -1 on reap failure).
inline int ReapWithDeadline(pid_t pid, int64_t timeout_us) {
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
    std::this_thread::sleep_for(std::chrono::microseconds(step_us));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
  return status;
}

struct FleetSetup {
  size_t num_agents = 3;
  size_t shards = kFleetShards;
  // agent_worker binary to fork per agent; null serves each shm agent on
  // a thread of this process.
  const char* worker = nullptr;
  SubscriptionManagerOptions manager{};
  // Thread agents only; forked workers read PATHDUMP_FAULT_*.
  transport::FaultInjectorConfig fault{};
  // TIB ceiling of the twins; forked workers read PATHDUMP_TIB_MAX_BYTES.
  size_t twin_tib_max_bytes = 0;
  // How long a restarted peer may take to Hello before the hub gives up.
  int64_t rejoin_timeout_us = transport::TransportOptions{}.rejoin_timeout_us;
};

struct ShmFleet {
  const FleetSetup setup;
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  // Destruction order is load-bearing: agents exit first (the destructor
  // body sends Shutdown, joins threads and reaps workers), then the hub
  // joins its reactor (it flushes the manager on the way), then the
  // manager, then the twins.
  std::vector<std::unique_ptr<EdgeAgent>> twins;
  SubscriptionManager manager;
  transport::TransportHub hub;
  std::vector<std::unique_ptr<ShmAgentThread>> threads;
  std::vector<pid_t> pids;  // forked workers; -1 once reaped
  std::vector<HostId> hosts;

  explicit ShmFleet(const FleetSetup& s)
      : setup(s),
        topo(BuildFatTree(4)),
        labels(&topo),
        codec(&topo, &labels),
        manager(&controller, s.manager),
        hub(&controller, &manager, FleetTransportOptions(s.rejoin_timeout_us)) {
    for (size_t a = 0; a < s.num_agents; ++a) {
      const HostId h = topo.hosts()[a];
      hosts.push_back(h);
      twins.push_back(MakeTwin(h));
      controller.RegisterAgent(twins.back().get());
      const std::string name = hub.AddShmPeer(h);
      EXPECT_FALSE(name.empty());
      if (s.worker != nullptr) {
        pids.push_back(ForkWorker(s.worker, name, h, s.shards));
        EXPECT_GT(pids.back(), 0);
      } else {
        threads.push_back(
            std::make_unique<ShmAgentThread>(name, h, s.shards, &topo, &codec, s.fault));
      }
    }
    EXPECT_TRUE(hub.WaitForHellos(30'000'000)) << "agents never mapped their segments";
  }

  ShmFleet(const ShmFleet&) = delete;
  ShmFleet& operator=(const ShmFleet&) = delete;

  ~ShmFleet() {
    hub.SendShutdown();
    threads.clear();
    for (pid_t pid : pids) {
      if (pid > 0) {
        ReapWithDeadline(pid, 10'000'000);
      }
    }
  }

  std::unique_ptr<EdgeAgent> MakeTwin(HostId h) {
    EdgeAgentConfig cfg;
    cfg.tib_options.num_shards = setup.shards;
    cfg.tib_options.max_memory_bytes = setup.twin_tib_max_bytes;
    return std::make_unique<EdgeAgent>(h, &topo, &codec, cfg);
  }

  std::vector<uint64_t> SubscribeAll(const std::vector<StandingQuerySpec>& specs) {
    std::vector<uint64_t> subs;
    for (const StandingQuerySpec& spec : specs) {
      subs.push_back(hub.Subscribe(hosts, spec));
    }
    return subs;
  }

  // One epoch's records: the twins listed in `into` (all when empty)
  // ingest directly; the agents get the broadcast Ingest frame.
  void Ingest(uint32_t count, uint32_t seed, const std::vector<size_t>& into = {}) {
    for (size_t a = 0; a < twins.size(); ++a) {
      if (into.empty() || std::find(into.begin(), into.end(), a) != into.end()) {
        IngestSynthetic(twins[a]->tib(), twins[a]->host(), count, seed, kFleetRecords);
      }
    }
    hub.SendIngest(count, seed, kFleetRecords.ip_space, kFleetRecords.switch_space);
  }

  // Epoch boundary, synchronized: tick, wait for every agent's ack,
  // drain the rings, flush the fold.  Twins seal in lockstep with their
  // agents (each agent's ring is FIFO, so its Ingest precedes its
  // EpochTick exactly as the twin's inserts preceded this), so under a
  // memory ceiling both sides retire the same epochs.
  void Epoch() {
    const uint64_t token = hub.SendEpochTick();
    ASSERT_TRUE(hub.WaitForAcks(token, 60'000'000));
    for (auto& twin : twins) {
      twin->EpochTick();
    }
    hub.Flush();
  }

  // Recovery quiesce: flush, then wait until no stream is stale and no
  // gap is still buffered — every loss resynced, every reorder resolved.
  // Only then is byte identity meaningful.
  bool Quiesce(const std::vector<uint64_t>& subs, int64_t timeout_us) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
    for (;;) {
      hub.Flush();
      bool settled = manager.stale_streams() == 0;
      for (uint64_t id : subs) {
        settled = settled && manager.info(id).pending_gaps == 0;
      }
      if (settled) {
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // The reactor moves peers asynchronously: true once `h` is in `want`,
  // polled for up to 30 s.
  bool AwaitPeerState(HostId h, transport::PeerState want) {
    for (int64_t waited = 0; waited < 30'000'000; waited += 1000) {
      if (hub.peer_state(h) == want) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // WaitForPeerLive can return before the rejoin's resync requests are
  // even marked (the reactor flips the state first) — gate on the
  // end-to-end signal: every restart so far produced a full set of
  // snapshot folds.
  void AwaitSnapshotFolds(uint64_t expected_min) {
    for (int64_t waited = 0; manager.stats().snapshot_folds < expected_min;
         waited += 1000) {
      hub.Flush();
      ASSERT_LT(waited, 30'000'000)
          << "only " << manager.stats().snapshot_folds << " snapshot folds, want >= "
          << expected_min;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Every standing kind equals a fresh poll over the twins.
  void ExpectPollIdentity(const std::vector<StandingQuerySpec>& specs,
                          const std::vector<uint64_t>& subs, const std::string& context) {
    for (size_t s = 0; s < specs.size(); ++s) {
      auto [poll, stats] = controller.Execute(hosts, PollOf(specs[s]));
      QueryResult standing = manager.Materialize(subs[s]);
      EXPECT_EQ(standing, poll) << context << ", kind " << s;
    }
  }

  // Graceful teardown: Shutdown, then every forked worker still running
  // says Bye and exits 0.
  void ExpectWorkersExitCleanly() {
    hub.SendShutdown();
    for (pid_t& pid : pids) {
      if (pid <= 0) {
        continue;
      }
      const int status = ReapWithDeadline(pid, 10'000'000);
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "worker " << pid << " status " << status;
      pid = -1;
    }
  }
};

}  // namespace testutil
}  // namespace pathdump

#endif  // PATHDUMP_TESTS_SHM_FLEET_H_
