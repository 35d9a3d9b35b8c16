// Transport subsystem tests (PR 6 tentpole):
//
//  1. SPSC ring unit contract — wraparound round-trips, full-ring
//     backpressure (TryPush refusal + blocked Push accounting), forged
//     sequence numbers surfacing as counted gaps, structural corruption
//     poisoning the ring instead of desynchronizing it.
//  2. Threaded producer/consumer stress (the TSan target for the ring's
//     acquire/release protocol).
//  3. Segment lifecycle — create/open/unlink, plus the test-teardown
//     sweep that keeps /dev/shm clean.
//  4. Backend-parametrized determinism — the standing-query poll-identity
//     matrix (all four kinds, {1,4,16} shards x {1,4,16} workers) run
//     over BOTH TransportOptions backends: the in-process path unchanged,
//     and the shared-memory path with every agent behind a real ring
//     (threaded here; tests/transport_multiproc_test.cc forks processes).
//  5. Reactor resilience — malformed frames on a live ring are counted
//     by category and the stream recovers; sequence gaps surface in
//     TransportStats.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/topology/fat_tree.h"
#include "src/topology/link_labels.h"
#include "src/transport/shm_ring.h"
#include "src/transport/transport.h"
#include "src/transport/wire.h"
#include "tests/test_util.h"

namespace pathdump {
namespace {

using transport::DecodedFrame;
using transport::FrameType;
using transport::ShmAgentClient;
using transport::ShmSegment;
using transport::ShmSpscRing;
using transport::TransportHub;
using transport::TransportOptions;
using transport::TransportStats;

using Backend = TransportOptions::Backend;

// Every segment this suite creates carries this pid-scoped prefix; the
// environment teardown below sweeps it so no /dev/shm entry survives
// even a crashed or failed run.
std::string TestShmPrefix() { return "/pathdump.test." + std::to_string(getpid()) + "."; }

class ShmCleanupEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { transport::CleanupShmByPrefix(TestShmPrefix()); }
};
const auto* const kCleanupEnv =
    ::testing::AddGlobalTestEnvironment(new ShmCleanupEnvironment());

// 64-byte-aligned heap memory: the ring control block is cache-line
// aligned, so plain heap tests must honor the same alignment mmap gives.
struct AlignedBuf {
  explicit AlignedBuf(size_t n)
      : size((n + 63) & ~size_t(63)), mem(std::aligned_alloc(64, size)) {
    std::memset(mem, 0, size);
  }
  ~AlignedBuf() { std::free(mem); }
  size_t size;
  void* mem;
};

// --- 1. Ring unit contract ---

TEST(ShmRing, RoundTripAcrossWraparound) {
  // 8 slots of 64 bytes: multi-slot messages wrap the physical end of
  // the slot array every few pushes.
  AlignedBuf buf(ShmSpscRing::BytesFor(64, 8));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 64, 8);
  ASSERT_TRUE(ring.valid());
  EXPECT_EQ(ring.max_message_bytes(), 64u * 7 - 16);

  std::vector<uint8_t> out;
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> msg(size_t(1 + (i * 37) % 300), uint8_t(i));
    ASSERT_TRUE(ring.Push(msg.data(), msg.size(), 1'000'000)) << "push " << i;
    ASSERT_TRUE(ring.Pop(out)) << "pop " << i;
    EXPECT_EQ(out, msg) << "message " << i;
  }
  EXPECT_EQ(ring.messages_popped(), 500u);
  EXPECT_EQ(ring.seq_gaps(), 0u);
  EXPECT_TRUE(ring.empty());
}

TEST(ShmRing, QueuedMessagesKeepOrder) {
  AlignedBuf buf(ShmSpscRing::BytesFor(64, 32));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 64, 32);
  std::vector<std::vector<uint8_t>> expect;
  std::vector<uint8_t> out;
  for (int round = 0; round < 100; ++round) {
    for (int j = 0; j < 3; ++j) {
      std::vector<uint8_t> msg(size_t(5 + (round * 3 + j) % 90), uint8_t(round + j));
      ASSERT_TRUE(ring.Push(msg.data(), msg.size(), 1'000'000));
      expect.push_back(std::move(msg));
    }
    for (int j = 0; j < 3; ++j) {
      ASSERT_TRUE(ring.Pop(out));
      EXPECT_EQ(out, expect[size_t(round * 3 + j)]);
    }
  }
}

TEST(ShmRing, FullRingBackpressure) {
  AlignedBuf buf(ShmSpscRing::BytesFor(64, 8));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 64, 8);
  // 100-byte messages need ceil(116/64) = 2 slots; four of them fill
  // the 8-slot ring exactly.
  std::vector<uint8_t> msg(100, 0xAB);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(msg.data(), msg.size())) << i;
  }
  EXPECT_FALSE(ring.TryPush(msg.data(), msg.size()));
  // A blocking push against a full ring times out — and is counted.
  EXPECT_FALSE(ring.Push(msg.data(), msg.size(), 20'000));
  EXPECT_GE(ring.blocked_pushes(), 1u);
  // Space frees exactly at pop granularity.
  std::vector<uint8_t> out;
  ASSERT_TRUE(ring.Pop(out));
  EXPECT_TRUE(ring.TryPush(msg.data(), msg.size()));
  // Oversized messages are refused outright, full or not.
  std::vector<uint8_t> huge(ring.max_message_bytes() + 1, 0);
  EXPECT_FALSE(ring.Push(huge.data(), huge.size(), 1'000'000));
}

TEST(ShmRing, ForgedSequenceSurfacesAsCountedGap) {
  AlignedBuf buf(ShmSpscRing::BytesFor(64, 16));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 64, 16);
  std::vector<uint8_t> msg{1, 2, 3};
  std::vector<uint8_t> out;
  ASSERT_TRUE(ring.TryPush(msg.data(), msg.size()));  // seq 0
  ASSERT_TRUE(ring.Pop(out));                         // expected_seq -> 1
  ring.set_next_seq(10);                              // simulate lost 1..9
  ASSERT_TRUE(ring.TryPush(msg.data(), msg.size()));  // seq 10
  ASSERT_TRUE(ring.Pop(out));
  EXPECT_EQ(ring.seq_gaps(), 9u);
  // The gap is counted once; the stream then continues normally.
  ASSERT_TRUE(ring.TryPush(msg.data(), msg.size()));  // seq 11
  ASSERT_TRUE(ring.Pop(out));
  EXPECT_EQ(ring.seq_gaps(), 9u);
  EXPECT_FALSE(ring.corrupt());
}

TEST(ShmRing, StructuralCorruptionPoisonsInsteadOfDesyncing) {
  AlignedBuf buf(ShmSpscRing::BytesFor(64, 8));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 64, 8);
  std::vector<uint8_t> msg(40, 0x55);
  ASSERT_TRUE(ring.TryPush(msg.data(), msg.size()));
  // Stomp the message header's length field (bytes 8..11 of slot 0).
  // BytesFor = aligned control block + slot bytes, so the slot array
  // starts at BytesFor - slot_bytes * slot_count.
  uint8_t* slots = static_cast<uint8_t*>(buf.mem) + ShmSpscRing::BytesFor(64, 8) - 64 * 8;
  const uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(slots + 8, &bogus, 4);
  std::vector<uint8_t> out;
  EXPECT_FALSE(ring.Pop(out));
  EXPECT_TRUE(ring.corrupt());
  // Poisoned for good: even a fresh valid push is unreachable.
  ASSERT_TRUE(ring.TryPush(msg.data(), msg.size()));
  EXPECT_FALSE(ring.Pop(out));
}

// --- 2. Threaded SPSC stress (TSan target) ---

TEST(ShmRing, ThreadedProducerConsumerStress) {
  // A deliberately small ring so the producer hits backpressure and the
  // consumer hits empty, exercising both doorbells under race.
  AlignedBuf buf(ShmSpscRing::BytesFor(128, 64));
  ShmSpscRing ring = ShmSpscRing::CreateAt(buf.mem, 128, 64);
  const int kMessages = 4000;

  auto payload = [](int i) {
    std::vector<uint8_t> msg(size_t(1 + (i * 131) % 1000));
    for (size_t j = 0; j < msg.size(); ++j) {
      msg[j] = uint8_t(i + int(j));
    }
    return msg;
  };

  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      std::vector<uint8_t> msg = payload(i);
      ASSERT_TRUE(ring.Push(msg.data(), msg.size(), 30'000'000)) << i;
    }
    ring.CloseProducer();
  });

  std::vector<uint8_t> out;
  int received = 0;
  while (received < kMessages) {
    if (!ring.Pop(out)) {
      ring.WaitForData(1'000'000);
      continue;
    }
    ASSERT_EQ(out, payload(received)) << "message " << received;
    ++received;
  }
  producer.join();
  EXPECT_EQ(ring.messages_popped(), uint64_t(kMessages));
  EXPECT_EQ(ring.seq_gaps(), 0u);
  EXPECT_TRUE(ring.closed());
}

// --- 3. Segment lifecycle ---

TEST(ShmSegmentTest, CreateOpenRoundTripAndUnlink) {
  const std::string name = TestShmPrefix() + "seg";
  ShmSegment::Geometry geo;
  geo.data_slot_count = 1 << 6;
  geo.cmd_slot_count = 1 << 4;
  auto creator = ShmSegment::Create(name, geo);
  ASSERT_NE(creator, nullptr);
  // Exclusive creation: a second Create of the live name fails.
  EXPECT_EQ(ShmSegment::Create(name, geo), nullptr);

  auto opener = ShmSegment::Open(name);
  ASSERT_NE(opener, nullptr);
  // Opener produces into its own mapping; creator consumes from its own
  // — same physical ring.
  std::vector<uint8_t> msg{9, 8, 7, 6};
  ASSERT_TRUE(opener->data_ring().TryPush(msg.data(), msg.size()));
  std::vector<uint8_t> out;
  ASSERT_TRUE(creator->data_ring().Pop(out));
  EXPECT_EQ(out, msg);
  // And the reverse direction over the command ring.
  std::vector<uint8_t> cmd{1, 1, 2, 3, 5};
  ASSERT_TRUE(creator->cmd_ring().TryPush(cmd.data(), cmd.size()));
  ASSERT_TRUE(opener->cmd_ring().Pop(out));
  EXPECT_EQ(out, cmd);

  // The creator owns the name: once it dies, the name is gone even
  // though the opener's mapping stays valid.
  creator.reset();
  EXPECT_EQ(ShmSegment::Open(name), nullptr);
  ASSERT_TRUE(opener->cmd_ring().empty());
}

TEST(ShmSegmentTest, CleanupSweepRemovesLeftoverNames) {
  const std::string name = TestShmPrefix() + "leftover";
  auto creator = ShmSegment::Create(name, ShmSegment::Geometry{64, 1 << 4, 64, 1 << 4});
  ASSERT_NE(creator, nullptr);
  ASSERT_NE(ShmSegment::Open(name), nullptr);
  // The sweep a failed test run relies on: name removed while the
  // creator still holds its mapping.
  transport::CleanupShmByPrefix(TestShmPrefix());
  EXPECT_EQ(ShmSegment::Open(name), nullptr);
  creator->Unlink();  // idempotent after the sweep
}

// --- 4. Backend-parametrized standing-query determinism matrix ---

constexpr uint32_t kIpSpace = 2048;
constexpr uint32_t kSwitchSpace = 24;
constexpr size_t kTopK = 500;
constexpr int64_t kBinWidth = 10000;
const LinkId kProbeLink{3, 7};

const std::vector<StandingQuerySpec> kSpecs =
    testutil::FourKindSpecs(kTopK, kProbeLink, kBinWidth);

// In-process stand-in for examples/agent_worker.cpp: the same command
// loop, one thread per agent, speaking real frames over real rings.
// `fault` (if any()) installs a seeded data-plane fault injector on the
// client, with the usual per-host seed offset.
class ShmAgentThread {
 public:
  ShmAgentThread(std::string name, HostId host, size_t shards, const Topology* topo,
                 const CherryPickCodec* codec,
                 transport::FaultInjectorConfig fault = {}) {
    thread_ = std::thread([name = std::move(name), host, shards, topo, codec, fault] {
      auto client = ShmAgentClient::Open(name);
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
      agent.SetAlarmHandler(client->MakeAlarmSink());
      client->SendHello(host);
      for (;;) {
        DecodedFrame cmd;
        if (!client->PollCommand(&cmd, 100'000)) {
          continue;
        }
        switch (cmd.type) {
          case FrameType::kSubscribe:
            agent.RegisterStandingQuery(cmd.subscription_id, cmd.spec,
                                        client->MakeDeltaSink());
            break;
          case FrameType::kIngest: {
            testutil::SyntheticRecordOptions opt;
            opt.ip_space = cmd.ingest_ip_space;
            opt.switch_space = cmd.ingest_switch_space;
            for (const TibRecord& rec : testutil::MakeSyntheticRecords(
                     int(cmd.ingest_count), cmd.ingest_seed + uint32_t(host), opt)) {
              agent.tib().Insert(rec);
            }
            break;
          }
          case FrameType::kEpochTick:
            agent.EpochTick();
            client->SendAck(host, cmd.token);
            break;
          case FrameType::kResyncRequest:
            agent.ResyncStandingQuery(cmd.subscription_id);
            break;
          case FrameType::kShutdown:
            client->SendBye(host);
            return;
          default:
            break;
        }
      }
    });
  }
  ~ShmAgentThread() { thread_.join(); }

 private:
  std::thread thread_;
};

// One backend-selected testbed.  The controller's registered agents are
// the poll reference ("twins"); on the in-process backend they are also
// the standing-query agents, on the shm backend the standing agents live
// behind rings (ShmAgentThread) and ingest identical records derived
// from the shared (seed + host) convention.
struct TransportTestbed {
  Topology topo;
  LinkLabelMap labels;
  CherryPickCodec codec;
  Controller controller;
  // Destruction order is load-bearing: threads exit first (Shutdown is
  // sent in the destructor body), then the hub joins its reactor, then
  // the manager detaches its in-process accumulators while the twins
  // are still alive, then the twins die.
  std::vector<std::unique_ptr<EdgeAgent>> twins;
  SubscriptionManager manager;
  TransportHub hub;
  std::vector<std::unique_ptr<ShmAgentThread>> threads;
  std::vector<HostId> hosts;
  Backend backend;

  static TransportOptions MakeOptions(Backend b) {
    TransportOptions o;
    o.backend = b;
    o.shm_prefix = TestShmPrefix();
    return o;
  }

  TransportTestbed(Backend b, size_t num_agents, size_t shards,
                   SubscriptionManagerOptions mopts = {},
                   transport::FaultInjectorConfig fault = {})
      : topo(BuildFatTree(4)),
        labels(&topo),
        codec(&topo, &labels),
        manager(&controller, mopts),
        hub(&controller, &manager, MakeOptions(b)),
        backend(b) {
    for (size_t a = 0; a < num_agents; ++a) {
      HostId h = topo.hosts()[a];
      hosts.push_back(h);
      EdgeAgentConfig cfg;
      cfg.tib_options.num_shards = shards;
      twins.push_back(std::make_unique<EdgeAgent>(h, &topo, &codec, cfg));
      if (b == Backend::kInProcess) {
        hub.AddLocalAgent(twins.back().get());
      } else {
        controller.RegisterAgent(twins.back().get());
        std::string name = hub.AddShmPeer(h);
        EXPECT_FALSE(name.empty());
        threads.push_back(
            std::make_unique<ShmAgentThread>(name, h, shards, &topo, &codec, fault));
      }
    }
    if (b == Backend::kSharedMemory) {
      EXPECT_TRUE(hub.WaitForHellos(10'000'000));
    }
  }

  // Recovery quiesce: flush, then wait until no stream is stale and no
  // gap is still buffered — i.e. every loss has been resynced and every
  // reorder resolved.  Only then is byte-identity meaningful.
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

  ~TransportTestbed() {
    hub.SendShutdown();
    threads.clear();  // joins; workers exit on the Shutdown frame
  }

  // One epoch's records everywhere: the twins ingest directly; shm
  // agents get the broadcast Ingest and derive the identical stream.
  void Ingest(uint32_t count, uint32_t seed) {
    testutil::SyntheticRecordOptions opt;
    opt.ip_space = kIpSpace;
    opt.switch_space = kSwitchSpace;
    for (auto& twin : twins) {
      for (const TibRecord& rec :
           testutil::MakeSyntheticRecords(int(count), seed + uint32_t(twin->host()), opt)) {
        twin->tib().Insert(rec);
      }
    }
    if (backend == Backend::kSharedMemory) {
      hub.SendIngest(count, seed, kIpSpace, kSwitchSpace);
    }
  }

  // Epoch boundary, synchronized: tick, wait for every agent's ack,
  // drain the rings, flush the fold.
  void Epoch() {
    const uint64_t token = hub.SendEpochTick();
    ASSERT_TRUE(hub.WaitForAcks(token, 30'000'000));
    hub.Flush();
  }
};

class TransportBackendTest : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportBackendTest,
                         ::testing::Values(Backend::kInProcess, Backend::kSharedMemory),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kInProcess ? "InProcess"
                                                                    : "SharedMemory";
                         });

TEST_P(TransportBackendTest, StandingMatrixMatchesPollAcrossShardWorkerMatrix) {
  const int kPerEpoch = 1200;
  const int kEpochs = 3;
  const size_t kAgents = 3;

  for (size_t shards : {size_t(1), size_t(4), size_t(16)}) {
    TransportTestbed tb(GetParam(), kAgents, shards);
    std::vector<uint64_t> subs;
    for (const StandingQuerySpec& spec : kSpecs) {
      subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
    }
    const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      tb.Ingest(uint32_t(kPerEpoch), 0xA100u * uint32_t(epoch + 1) + uint32_t(shards));
      tb.Epoch();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }

      // At the boundary, every standing kind must equal a fresh poll
      // over the twins, at every worker count.
      for (size_t workers : {size_t(1), size_t(4), size_t(16)}) {
        tb.controller.SetWorkerThreads(workers);
        ThreadPool scan_pool(workers);
        for (auto& twin : tb.twins) {
          twin->SetQueryThreadPool(workers > 1 ? &scan_pool : nullptr);
        }
        for (size_t s = 0; s < kSpecs.size(); ++s) {
          auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[s]));
          QueryResult standing = tb.manager.Materialize(subs[s]);
          EXPECT_EQ(standing, poll)
              << "backend "
              << (GetParam() == Backend::kInProcess ? "inproc" : "shm") << ", kind " << s
              << ", " << shards << " shards, " << workers << " workers, epoch " << epoch;
        }
        for (auto& twin : tb.twins) {
          twin->SetQueryThreadPool(nullptr);
        }
      }
      tb.controller.SetWorkerThreads(1);
    }

    // Registry accounting holds on both backends (shm agents are threads
    // of this process, so both sides of the ring land in one registry):
    // every delta the agents produced was folded — none orphaned, none
    // lost in transit.  Diffed, not absolute: other tests in this binary
    // share the process-wide registry.
    {
      const MetricsSnapshot md = MetricsRegistry::Global().Snapshot().Diff(metrics_before);
      auto counter = [&md](const char* name) {
        auto it = md.counters.find(name);
        return it == md.counters.end() ? uint64_t(0) : it->second;
      };
      const uint64_t produced = counter("standing.deltas_produced");
      EXPECT_GT(produced, 0u);
      EXPECT_EQ(produced, counter("sub.deltas_folded") + counter("sub.deltas_orphaned"));
      EXPECT_EQ(counter("sub.deltas_orphaned"), 0u);
      if (GetParam() == Backend::kSharedMemory) {
        // Every produced delta was wire-encoded, pushed onto a ring, and
        // popped by the reactor exactly once.
        EXPECT_EQ(counter("wire.frames_encoded"), produced);
        EXPECT_EQ(counter("ring.delta_pushes"), produced);
        EXPECT_EQ(counter("transport.deltas"), produced);
        EXPECT_EQ(counter("transport.decode_errors"), 0u);
      }
    }

    if (GetParam() == Backend::kSharedMemory) {
      // Transport accounting: every frame decoded, nothing corrupted.
      TransportStats st = tb.hub.stats();
      EXPECT_EQ(st.peers, kAgents);
      EXPECT_EQ(st.peers_hello, kAgents);
      EXPECT_EQ(st.peers_dead, 0u);
      EXPECT_EQ(st.decode_errors, 0u);
      EXPECT_EQ(st.seq_gaps, 0u);
      EXPECT_GT(st.deltas, 0u);
      EXPECT_EQ(st.acks, uint64_t(kEpochs) * kAgents);
      // Folded deltas arrived via the rings, not via any in-process
      // attachment.
      EXPECT_GE(tb.manager.stats().deltas_folded, uint64_t(kEpochs));
    }
  }
}

// --- 5. Reactor resilience ---

TEST(TransportHubErrors, MalformedFramesAreCountedAndStreamRecovers) {
  Controller controller;
  SubscriptionManager manager(&controller);
  TransportHub hub(&controller, &manager, TransportTestbed::MakeOptions(Backend::kSharedMemory));
  const HostId kHost = 42;
  const std::string name = hub.AddShmPeer(kHost);
  ASSERT_FALSE(name.empty());
  auto client = ShmAgentClient::Open(name);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendHello(kHost));
  ASSERT_TRUE(hub.WaitForHellos(10'000'000));

  ShmSpscRing& ring = client->segment().data_ring();
  // Not a frame at all.
  std::vector<uint8_t> junk(32, 0xEE);
  ASSERT_TRUE(ring.Push(junk.data(), junk.size(), 1'000'000));
  // A well-formed frame with one payload bit flipped: CRC must catch it.
  std::vector<uint8_t> flipped;
  transport::EncodeAckFrame(kHost, 7, flipped);
  flipped[transport::kFrameHeaderBytes + 2] ^= 0x10;
  ASSERT_TRUE(ring.Push(flipped.data(), flipped.size(), 1'000'000));
  // A valid frame after the garbage: the stream must recover.
  ASSERT_TRUE(client->SendAck(kHost, 9));

  // The reactor acks tokens monotonically; once 9 lands, everything
  // before it has been classified.
  ASSERT_TRUE(hub.WaitForAcks(9, 10'000'000));
  TransportStats st = hub.stats();
  EXPECT_EQ(st.bad_magic, 1u);
  EXPECT_EQ(st.bad_checksum, 1u);
  EXPECT_EQ(st.decode_errors, 2u);
  EXPECT_EQ(st.acks, 1u);  // the corrupted ack never counted
  EXPECT_EQ(st.peers_dead, 0u);
}

// --- 6. Seeded fault-injection matrix ---
//
// One fault kind per run, seeded (deterministic), over the full
// standing-kind set.  Each run proves three things: (a) byte-identity
// with a fresh poll still holds at every epoch boundary once the
// recovery machinery quiesces, (b) every injected fault is visible in
// exactly the counter that fault kind must land in, and (c) no faulted
// frame is ever folded — submitted == folded + orphaned +
// stale_discarded stays exact.

struct FaultCase {
  const char* label;
  transport::FaultInjectorConfig cfg;
  size_t gap_resync_threshold;
  bool expect_resync;   // lost data -> stale streams + snapshot folds
  bool expect_orphans;  // duplicates surface as orphaned deltas
};

TEST(TransportFaultMatrix, EveryFaultKindIsCountedAndNeverFolded) {
  const int kPerEpoch = 600;
  const int kEpochs = 8;
  const size_t kAgents = 3;

  std::vector<FaultCase> cases;
  {
    // ~12% per data frame over 8 epochs x 4 subs x 3 agents = 96 draws
    // per run: enough injections to be meaningful, deterministic by
    // seed either way.
    transport::FaultInjectorConfig drop;
    drop.seed = 0x20260808;
    drop.drop_per_10k = 1200;
    // Threshold 1: the first buffered out-of-order epoch declares the
    // stream stale, so a loss landing in the shadow of an in-flight
    // snapshot still re-triggers recovery instead of pending forever.
    cases.push_back({"drop", drop, 1, /*expect_resync=*/true, /*expect_orphans=*/false});

    transport::FaultInjectorConfig corrupt;
    corrupt.seed = 0x20260808;
    corrupt.corrupt_per_10k = 1200;
    cases.push_back({"corrupt", corrupt, 1, /*expect_resync=*/true, /*expect_orphans=*/false});

    // Delay is pure reordering — at threshold 4 (a one-frame stash can
    // buffer at most one epoch per stream) recovery must NOT trigger;
    // the gap buffer alone absorbs it.
    transport::FaultInjectorConfig delay;
    delay.seed = 0x20260808;
    delay.delay_per_10k = 2000;
    cases.push_back({"delay", delay, 4, /*expect_resync=*/false, /*expect_orphans=*/false});

    transport::FaultInjectorConfig dup;
    dup.seed = 0x20260808;
    dup.dup_per_10k = 1200;
    cases.push_back({"dup", dup, 1, /*expect_resync=*/false, /*expect_orphans=*/true});
  }

  for (const FaultCase& fc : cases) {
    SCOPED_TRACE(fc.label);
    SubscriptionManagerOptions mopts;
    mopts.gap_resync_threshold = fc.gap_resync_threshold;
    TransportTestbed tb(Backend::kSharedMemory, kAgents, 4, mopts, fc.cfg);
    std::vector<uint64_t> subs;
    for (const StandingQuerySpec& spec : kSpecs) {
      subs.push_back(tb.hub.Subscribe(tb.hosts, spec));
    }
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      tb.Ingest(uint32_t(kPerEpoch), 0xFA00u * uint32_t(epoch + 1));
      tb.Epoch();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      // Let every triggered resync complete (request -> snapshot ->
      // fold) before comparing against the poll reference.
      ASSERT_TRUE(tb.Quiesce(subs, 20'000'000)) << "epoch " << epoch;
      for (size_t s = 0; s < kSpecs.size(); ++s) {
        auto [poll, stats] = tb.controller.Execute(tb.hosts, testutil::PollOf(kSpecs[s]));
        QueryResult standing = tb.manager.Materialize(subs[s]);
        EXPECT_EQ(standing, poll) << "kind " << s << ", epoch " << epoch;
      }
    }

    const MetricsSnapshot md = MetricsRegistry::Global().Snapshot().Diff(before);
    auto counter = [&md](const char* name) {
      auto it = md.counters.find(name);
      return it == md.counters.end() ? uint64_t(0) : it->second;
    };
    const uint64_t drops = counter("fault.injected_drop");
    const uint64_t corrupts = counter("fault.injected_corrupt");
    const uint64_t delays = counter("fault.injected_delay");
    const uint64_t dups = counter("fault.injected_dup");
    // Exactly the configured kind fired (seeded, so deterministically
    // nonzero at these rates).
    EXPECT_EQ(drops > 0, fc.cfg.drop_per_10k > 0);
    EXPECT_EQ(corrupts > 0, fc.cfg.corrupt_per_10k > 0);
    EXPECT_EQ(delays > 0, fc.cfg.delay_per_10k > 0);
    EXPECT_EQ(dups > 0, fc.cfg.dup_per_10k > 0);

    // Each fault kind lands in exactly its transport-level signature:
    // a drop consumes a sequence number (counted gap), a corruption
    // fails the CRC (bad_checksum), delay and dup do neither.
    const TransportStats st = tb.hub.stats();
    EXPECT_EQ(st.seq_gaps, drops);
    EXPECT_EQ(st.bad_checksum, corrupts);
    EXPECT_EQ(st.peers_dead, 0u);

    const SubscriptionManagerStats ss = tb.manager.stats();
    EXPECT_EQ(ss.deltas_submitted,
              ss.deltas_folded + ss.deltas_orphaned + ss.deltas_stale_discarded);
    if (fc.expect_resync) {
      EXPECT_GT(ss.resyncs, 0u);
      EXPECT_GT(ss.snapshot_folds, 0u);
      EXPECT_GT(st.resync_requests, 0u);
      EXPECT_GT(st.snapshots, 0u);
    } else {
      EXPECT_EQ(ss.resyncs, 0u);
      EXPECT_EQ(ss.snapshot_folds, 0u);
    }
    if (fc.expect_orphans) {
      // Both copies of a duplicated frame decode; the second fold is a
      // duplicate epoch — orphaned, never folded twice.
      EXPECT_EQ(ss.deltas_orphaned, dups);
    } else {
      EXPECT_EQ(ss.deltas_orphaned, 0u);
    }
  }
}

TEST(TransportHubErrors, SequenceGapsSurfaceInStats) {
  Controller controller;
  SubscriptionManager manager(&controller);
  TransportHub hub(&controller, &manager, TransportTestbed::MakeOptions(Backend::kSharedMemory));
  const HostId kHost = 7;
  const std::string name = hub.AddShmPeer(kHost);
  ASSERT_FALSE(name.empty());
  auto client = ShmAgentClient::Open(name);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendHello(kHost));  // seq 0
  ASSERT_TRUE(client->SendAck(kHost, 1));  // seq 1
  // Simulate upstream loss of 5 messages, then resume.
  client->segment().data_ring().set_next_seq(7);
  ASSERT_TRUE(client->SendAck(kHost, 2));  // seq 7; expected was 2
  ASSERT_TRUE(hub.WaitForAcks(2, 10'000'000));
  TransportStats st = hub.stats();
  EXPECT_EQ(st.seq_gaps, 5u);
  EXPECT_EQ(st.decode_errors, 0u);
}

}  // namespace
}  // namespace pathdump
