// Shared bounded-MPSC channel (src/common/mpsc_channel.h) — the one
// implementation behind AlarmPipeline and SubscriptionManager intake.
// This file is the channel's own adversarial matrix, so the subsystem
// tests no longer have to re-prove queue semantics independently:
//
//  * multi-producer sequence stamping is a gapless total order and the
//    consumer sees batches in that order;
//  * kBlock backpressure never drops under a producer storm that dwarfs
//    the queue bound;
//  * kDropNewest counts rejects exactly (accepted + dropped = attempts);
//  * Flush() from inside the drain (and from a consumer-side worker via
//    ReentrancyGuard) returns instead of deadlocking — per instance:
//    flushing channel A from inside channel B still waits;
//  * destruction drains everything already accepted.
//
// Runs under ThreadSanitizer in CI (ctest -L tsan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/mpsc_channel.h"

namespace pathdump {
namespace {

// A minimal stampable item: the channel requires a mutable `seq`.
struct Item {
  uint64_t seq = 0;
  int producer = 0;
  int value = 0;
};

TEST(MpscChannelTest, MultiProducerSeqIsGaplessAndConsumerSeesSeqOrder) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  std::vector<Item> consumed;
  {
    MpscChannel<Item> ch({.capacity = 64, .max_batch = 16},
                         [&consumed](std::vector<Item>& batch) {
                           for (Item& it : batch) {
                             consumed.push_back(it);
                           }
                         });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&ch, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          EXPECT_TRUE(ch.Submit(Item{0, p, i}));
        }
      });
    }
    for (std::thread& t : producers) {
      t.join();
    }
    ch.Flush();
    MpscChannelStats st = ch.stats();
    EXPECT_EQ(st.submitted, uint64_t(kProducers) * kPerProducer);
    EXPECT_EQ(st.processed, st.submitted);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_GE(st.batches, st.submitted / 16);  // max_batch respected
    EXPECT_LE(st.max_batch, 16u);
  }
  // seq is exactly the arrival total order, delivered gaplessly in order.
  ASSERT_EQ(consumed.size(), size_t(kProducers) * kPerProducer);
  for (size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i].seq, i);
  }
  // Per-producer FIFO: each producer's items keep their emission order.
  std::vector<int> last(kProducers, -1);
  for (const Item& it : consumed) {
    EXPECT_GT(it.value, last[size_t(it.producer)]);
    last[size_t(it.producer)] = it.value;
  }
}

TEST(MpscChannelTest, BlockPolicyStormNeverDrops) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  std::atomic<uint64_t> consumed{0};
  MpscChannel<Item> ch({.capacity = 8, .max_batch = 4},  // tiny bound, huge storm
                       [&consumed](std::vector<Item>& batch) { consumed += batch.size(); });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(ch.Submit(Item{0, p, i}));
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  ch.Flush();
  MpscChannelStats st = ch.stats();
  EXPECT_EQ(st.submitted, uint64_t(kProducers) * kPerProducer);
  EXPECT_EQ(consumed.load(), st.submitted);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_GT(st.blocked_enqueues, 0u);  // the storm did hit the bound
}

TEST(MpscChannelTest, DropNewestCountsRejectsExactly) {
  std::atomic<bool> release{false};
  std::atomic<uint64_t> consumed{0};
  MpscChannel<Item> ch({.capacity = 4, .max_batch = 4, .overflow = MpscOverflowPolicy::kDropNewest},
                       [&](std::vector<Item>& batch) {
                         // Park the drain so the queue stays full while we
                         // hammer Submit.
                         while (!release.load(std::memory_order_acquire)) {
                           std::this_thread::sleep_for(std::chrono::milliseconds(1));
                         }
                         consumed += batch.size();
                       });
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (int i = 0; i < 200; ++i) {
    if (ch.Submit(Item{0, 0, i})) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  release.store(true, std::memory_order_release);
  ch.Flush();
  MpscChannelStats st = ch.stats();
  EXPECT_EQ(st.submitted, accepted);
  EXPECT_EQ(st.dropped, rejected);
  EXPECT_EQ(consumed.load(), accepted);
  EXPECT_EQ(st.submitted + st.dropped, 200u);
}

TEST(MpscChannelTest, FlushFromInsideDrainReturnsImmediately) {
  std::atomic<uint64_t> reentrant_flushes{0};
  std::unique_ptr<MpscChannel<Item>> ch;
  ch = std::make_unique<MpscChannel<Item>>(
      MpscChannelOptions{.capacity = 8, .max_batch = 2}, [&](std::vector<Item>& batch) {
        // A consumer calling Flush() on its own channel must not
        // deadlock (AlarmPipeline subscribers read alarm_log, which
        // flushes).
        ch->Flush();
        reentrant_flushes += batch.size();
      });
  for (int i = 0; i < 50; ++i) {
    ch->Submit(Item{0, 0, i});
  }
  ch->Flush();
  EXPECT_EQ(reentrant_flushes.load(), 50u);
}

TEST(MpscChannelTest, ReentrancyIsPerInstanceAndGuardCoversWorkers) {
  // From inside channel B's drain, a Flush on channel A must still WAIT
  // (only A's own drain may skip) — per-instance reentrancy.
  std::atomic<uint64_t> a_consumed{0};
  MpscChannel<Item> a({.capacity = 8, .max_batch = 8},
                      [&](std::vector<Item>& batch) { a_consumed += batch.size(); });
  std::atomic<bool> b_saw_a_flushed{false};
  MpscChannel<Item> b({.capacity = 8, .max_batch = 8}, [&](std::vector<Item>& batch) {
    (void)batch;
    a.Flush();  // must block until A's queue is drained, then return
    b_saw_a_flushed.store(a_consumed.load() == 10, std::memory_order_release);
  });
  for (int i = 0; i < 10; ++i) {
    a.Submit(Item{0, 0, i});
  }
  b.Submit(Item{0, 0, 0});
  b.Flush();
  EXPECT_TRUE(b_saw_a_flushed.load());

  // A worker thread holding a ReentrancyGuard skips the wait — the
  // dispatch-pool pattern AlarmPipeline uses for subscriber fan-out.
  std::thread worker([&a] {
    MpscChannel<Item>::ReentrancyGuard inside(a);
    a.Flush();  // returns immediately even though it is not the drain
  });
  worker.join();
}

TEST(MpscChannelTest, DestructionDrainsEverythingAccepted) {
  std::vector<Item> consumed;
  {
    MpscChannel<Item> ch({.capacity = 1024, .max_batch = 7},
                         [&consumed](std::vector<Item>& batch) {
                           for (Item& it : batch) {
                             consumed.push_back(it);
                           }
                         });
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(ch.Submit(Item{0, 0, i}));
    }
    // No Flush: the destructor must deliver all 600.
  }
  ASSERT_EQ(consumed.size(), 600u);
  for (size_t i = 0; i < consumed.size(); ++i) {
    EXPECT_EQ(consumed[i].seq, i);
  }
}

}  // namespace
}  // namespace pathdump
