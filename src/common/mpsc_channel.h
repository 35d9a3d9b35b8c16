// Bounded multi-producer single-consumer channel with a dedicated drain
// worker — THE cross-thread hand-off primitive of the controller.
//
// Two subsystems grew this shape independently: the alarm intake pipeline
// (src/controller/alarm_pipeline.h) and the standing-query delta intake
// (src/controller/subscription.h).  Their queue/backpressure/shutdown
// logic was deliberately identical — which meant every fix had to land
// twice.  This template is the single implementation both now share.
//
//   producers ──Submit()──▶ bounded deque ──▶ drain worker ──▶ consumer
//               (seq stamp)  (backpressure)    (batches)        callback
//
// Contract:
//  * Sequence stamping.  Every accepted item gets `item.seq = n` for a
//    counter incremented under the queue lock, so "arrival order" is a
//    total order even with many producer threads.  T must expose a
//    mutable integral member named `seq`.
//  * Backpressure is explicit.  With kBlock (default) a full queue makes
//    Submit() wait until the drain worker makes room — an accepted item
//    is never lost.  With kDropNewest a full queue rejects the incoming
//    item and counts it in stats().dropped.
//  * Batched drain.  One dedicated worker pulls up to max_batch items at
//    a time and hands the batch to the consumer callback OUTSIDE the
//    queue lock, so producers and the consumer only contend on the
//    pull/push instants.  The consumer sees items in sequence order.
//  * Reentrant-safe Flush.  Flush() blocks until everything accepted
//    before the call has been consumed — unless the calling thread is
//    inside this channel's drain (or holds a ReentrancyGuard on it),
//    in which case it returns immediately instead of deadlocking.
//    Reentrancy is per channel instance: flushing channel A from inside
//    channel B's drain still waits, as it must.
//  * Drain-on-destruction.  The destructor rejects new submissions,
//    drains every item already accepted, then joins the worker.  Under
//    kBlock nothing submitted successfully is ever dropped, even across
//    shutdown.  Owners must declare the channel AFTER any state the
//    consumer callback touches, so that state outlives the final drain.
//
// Ownership: the channel owns its queue and drain thread, nothing else.
// The consumer callback is borrowed state — the owner guarantees it
// stays valid until the destructor returns.

#ifndef PATHDUMP_SRC_COMMON_MPSC_CHANNEL_H_
#define PATHDUMP_SRC_COMMON_MPSC_CHANNEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"

namespace pathdump {

// What Submit() does when the queue is full.
enum class MpscOverflowPolicy : uint8_t {
  kBlock,       // wait for the drain worker to make room (never drops)
  kDropNewest,  // reject the incoming item, count it in stats().dropped
};

struct MpscChannelOptions {
  // Bound of the queue (items buffered between Submit and drain).
  size_t capacity = 4096;
  // Largest batch the drain worker pulls in one go.
  size_t max_batch = 256;
  MpscOverflowPolicy overflow = MpscOverflowPolicy::kBlock;
};

// All counters are cumulative since construction.
struct MpscChannelStats {
  uint64_t submitted = 0;         // accepted into the queue
  uint64_t dropped = 0;           // rejected (kDropNewest full, or shutdown)
  uint64_t blocked_enqueues = 0;  // Submit() calls that had to wait (kBlock)
  uint64_t processed = 0;         // consumed (the consumer callback returned)
  uint64_t batches = 0;           // drain pulls
  uint64_t max_batch = 0;         // largest single pull
  uint64_t depth = 0;             // items queued right now (a level)

  // The owner's metrics-source report, as "<prefix>.<field>" names.
  void AddTo(MetricsSnapshot& snap, const std::string& prefix) const {
    snap.counters[prefix + ".submitted"] += submitted;
    snap.counters[prefix + ".dropped"] += dropped;
    snap.counters[prefix + ".blocked_enqueues"] += blocked_enqueues;
    snap.counters[prefix + ".processed"] += processed;
    snap.counters[prefix + ".batches"] += batches;
    snap.gauges[prefix + ".depth"] += int64_t(depth);
  }
};

namespace mpsc_internal {

// Channels the current thread is "inside" (drain worker or a consumer
// dispatch thread holding a ReentrancyGuard).  A tiny stack, never more
// than a couple of entries deep.
inline thread_local std::vector<const void*> tl_inside_channels;

inline bool InsideChannel(const void* channel) {
  const auto& v = tl_inside_channels;
  return std::find(v.begin(), v.end(), channel) != v.end();
}

}  // namespace mpsc_internal

template <typename T>
class MpscChannel {
 public:
  // Consumes one pulled batch; runs on the drain worker with no channel
  // lock held.  The batch is in sequence order; the vector is scratch
  // (reused across pulls) — move items out freely.
  using Consumer = std::function<void(std::vector<T>&)>;

  // Marks the current thread as inside `channel` for its lifetime, so a
  // Flush() on that channel from this thread returns immediately.  Owners
  // use this on worker threads that run consumer-side callbacks (e.g.
  // alarm subscriber dispatch), where waiting on the drain would deadlock.
  class ReentrancyGuard {
   public:
    explicit ReentrancyGuard(const MpscChannel& channel) : channel_(&channel) {
      mpsc_internal::tl_inside_channels.push_back(channel_);
    }
    ~ReentrancyGuard() {
      auto& v = mpsc_internal::tl_inside_channels;
      // Guards nest like a stack; erase the most recent matching entry.
      for (auto it = v.rbegin(); it != v.rend(); ++it) {
        if (*it == channel_) {
          v.erase(std::next(it).base());
          break;
        }
      }
    }
    ReentrancyGuard(const ReentrancyGuard&) = delete;
    ReentrancyGuard& operator=(const ReentrancyGuard&) = delete;

   private:
    const void* channel_;
  };

  MpscChannel(MpscChannelOptions options, Consumer consumer)
      : options_(options), consumer_(std::move(consumer)) {
    drain_ = std::thread([this] { DrainLoop(); });
  }

  // Rejects new submissions, drains everything already accepted (items
  // are never lost on shutdown under kBlock), then joins the worker.
  ~MpscChannel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
    drain_.join();  // DrainLoop empties the queue before exiting
  }

  MpscChannel(const MpscChannel&) = delete;
  MpscChannel& operator=(const MpscChannel&) = delete;

  // Thread-safe MPSC enqueue; stamps item.seq under the queue lock.
  // Returns false iff the item was rejected — by kDropNewest
  // backpressure, or (under either policy) because shutdown already
  // began; rejects count in stats().dropped.  Every accepted item is
  // delivered to the consumer, even across destruction.
  bool Submit(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    // Once shutdown has begun the drain worker may already be gone; an
    // enqueue now could sit in the queue forever.  Reject instead — the
    // drain-everything guarantee covers items accepted before ~MpscChannel.
    if (stop_) {
      ++stats_.dropped;
      return false;
    }
    if (queue_.size() >= options_.capacity) {
      if (options_.overflow == MpscOverflowPolicy::kDropNewest) {
        ++stats_.dropped;
        return false;
      }
      ++stats_.blocked_enqueues;
      space_cv_.wait(lock, [this] { return queue_.size() < options_.capacity || stop_; });
      if (stop_) {
        ++stats_.dropped;
        return false;
      }
    }
    item.seq = next_seq_++;
    queue_.push_back(std::move(item));
    ++stats_.submitted;
    work_cv_.notify_one();
    return true;
  }

  // Blocks until every item accepted so far has been consumed.  No-op
  // from inside this channel's drain (see ReentrancyGuard).
  void Flush() {
    if (mpsc_internal::InsideChannel(this)) {
      return;  // waiting would deadlock the drain
    }
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t target = stats_.submitted;
    flush_cv_.wait(lock, [this, target] { return stats_.processed >= target; });
  }

  MpscChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    MpscChannelStats out = stats_;
    out.depth = queue_.size();
    return out;
  }

 private:
  void DrainLoop() {
    ReentrancyGuard inside(*this);
    std::vector<T> batch;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) {
          return;
        }
        continue;
      }
      const size_t take = std::min(queue_.size(), options_.max_batch);
      batch.clear();
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      ++stats_.batches;
      stats_.max_batch = std::max<uint64_t>(stats_.max_batch, take);
      lock.unlock();
      space_cv_.notify_all();

      consumer_(batch);

      lock.lock();
      stats_.processed += take;
      flush_cv_.notify_all();
    }
  }

  mutable std::mutex mu_;             // queue + counters
  std::condition_variable work_cv_;   // queue non-empty / shutdown
  std::condition_variable space_cv_;  // queue has room (kBlock producers)
  std::condition_variable flush_cv_;  // progress for Flush() waiters
  const MpscChannelOptions options_;
  std::deque<T> queue_;
  bool stop_ = false;
  uint64_t next_seq_ = 0;
  MpscChannelStats stats_;  // depth is filled in by stats()

  const Consumer consumer_;
  std::thread drain_;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_COMMON_MPSC_CHANNEL_H_
