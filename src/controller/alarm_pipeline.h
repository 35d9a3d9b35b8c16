// Alarm intake pipeline: the controller side of the Alarm() channel
// (Table 1), built for alarm storms.
//
// The seed handled each alarm synchronously on the emitting agent's
// thread, which serializes the whole fleet under a silent-drop or incast
// storm.  This subsystem decouples producers from consumers:
//
//   agents ──Submit()──▶ bounded MPSC queue ──▶ drain worker ──▶ log
//            (seq stamp)   (backpressure)        (batches,      └▶ subscribers
//                                                 suppression)     (fan-out)
//
//  * Intake is a bounded MPSC queue — the shared channel template
//    (src/common/mpsc_channel.h): sequence stamping under the queue
//    lock, batched drain, kBlock/kDropNewest backpressure, reentrant
//    Flush, drain-on-destruction.  This file owns only what is alarm-
//    specific: the suppression window, the sequence-ordered log, and
//    subscriber fan-out.
//  * A dedicated drain worker pulls batches of up to `max_batch` alarms,
//    applies the suppression window, appends survivors to the log, and
//    dispatches them to subscribers.
//  * Suppression: repeat alarms for the same (host, flow, reason) within
//    `suppression_window` sim-time of the last admitted one are dropped
//    (counted in stats).  0 disables suppression (the default — the
//    debugging apps want every POOR_PERF repeat as a fresh signature).
//  * Backpressure is explicit: with kBlock (default) a full queue makes
//    Submit() wait — no alarm is ever lost; with kDropNewest a full queue
//    rejects the new alarm and counts it.  Both are observable via
//    AlarmPipelineStats.
//  * Dispatch fans out across subscribers on a ThreadPool
//    (src/common/thread_pool.h) when `dispatch_workers > 1`.  Each
//    subscriber processes a whole batch on one worker, so every
//    subscriber always sees alarms in sequence order.
//
// Determinism contract (mirrors the PR 1 query contract): the log is
// always sequence-ordered, and its bytes depend only on the submission
// order — never on the dispatch worker count or thread scheduling
// (tests/alarm_pipeline_test.cc enforces 1/4/16-worker identity).
//
// Reentrancy: Flush() called from inside a subscriber (or any pipeline
// worker) returns immediately instead of deadlocking, so subscribers may
// safely call Controller::alarm_log().

#ifndef PATHDUMP_SRC_CONTROLLER_ALARM_PIPELINE_H_
#define PATHDUMP_SRC_CONTROLLER_ALARM_PIPELINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/mpsc_channel.h"
#include "src/common/thread_pool.h"
#include "src/common/types.h"
#include "src/edge/alarm.h"

namespace pathdump {

struct AlarmPipelineOptions {
  // Bound of the intake queue (alarms buffered between Submit and drain).
  size_t queue_capacity = 4096;
  // Largest batch the drain worker pulls in one go.
  size_t max_batch = 256;
  // Sim-time dedup window per (host, flow, reason); 0 disables.
  SimTime suppression_window = 0;
  // What Submit() does when the intake queue is full.
  MpscOverflowPolicy overflow = MpscOverflowPolicy::kBlock;
  // Subscriber fan-out parallelism (1 = dispatch inline on the drain
  // worker).  Counts the drain worker itself, like ThreadPool.
  size_t dispatch_workers = 1;
};

// All counters are cumulative since construction.
struct AlarmPipelineStats {
  uint64_t submitted = 0;         // accepted into the queue
  uint64_t dropped = 0;           // rejected by kDropNewest backpressure
  uint64_t blocked_enqueues = 0;  // Submit() calls that had to wait (kBlock)
  uint64_t suppressed = 0;        // deduped by the suppression window
  uint64_t delivered = 0;         // appended to the log + dispatched
  uint64_t batches = 0;           // drain pulls
  uint64_t max_batch = 0;         // largest single pull
};

class AlarmPipeline {
 public:
  explicit AlarmPipeline(AlarmPipelineOptions options = {});
  // Drains everything already submitted (alarms are never lost on
  // shutdown under kBlock), then joins the drain worker.
  ~AlarmPipeline();

  AlarmPipeline(const AlarmPipeline&) = delete;
  AlarmPipeline& operator=(const AlarmPipeline&) = delete;

  // Thread-safe MPSC enqueue; stamps Alarm::seq.  Returns false iff the
  // alarm was rejected — by kDropNewest backpressure, or (under either
  // policy) because shutdown already began; rejects count in
  // stats().dropped.  Every accepted alarm is delivered, even across
  // destruction.  Traced 1-in-256 per thread (storms would flood the
  // span ring otherwise), which is why the body lives in the .cc.
  bool Submit(const Alarm& alarm);

  // Registers a handler; it will see every subsequently delivered alarm,
  // in sequence order.  Thread-safe.
  void Subscribe(AlarmHandler handler);

  // Blocks until every alarm accepted so far has been logged and
  // dispatched to all subscribers.  No-op from inside the pipeline.
  void Flush() { channel_.Flush(); }

  // The sequence-ordered intake log.  Stable only while the pipeline is
  // quiescent — call Flush() first (Controller::alarm_log does).
  const std::vector<Alarm>& log() const { return log_; }

  AlarmPipelineStats stats() const;
  const AlarmPipelineOptions& options() const { return options_; }
  size_t dispatch_workers() const {
    return dispatch_pool_ ? dispatch_pool_->worker_count() : 1;
  }
  size_t subscriber_count() const;

 private:
  struct SuppressKey {
    HostId host;
    FiveTuple flow;
    AlarmReason reason;
    friend bool operator==(const SuppressKey&, const SuppressKey&) = default;
  };
  struct SuppressKeyHash {
    size_t operator()(const SuppressKey& k) const {
      uint64_t h = FiveTupleHash{}(k.flow);
      h = HashCombine(h, k.host);
      h = HashCombine(h, uint64_t(k.reason));
      return size_t(h);
    }
  };

  // Suppression + log append + subscriber dispatch for one pulled batch.
  // Runs on the channel's drain worker.
  void ProcessBatch(std::vector<Alarm>& batch);

  const AlarmPipelineOptions options_;
  // Non-null iff options_.dispatch_workers > 1.
  std::unique_ptr<ThreadPool> dispatch_pool_;

  // Pipeline-owned counters (the rest come from the channel).
  std::atomic<uint64_t> suppressed_{0};
  std::atomic<uint64_t> delivered_{0};

  // Drain-worker-only state (no lock needed).  last_admitted_ is pruned
  // of expired entries whenever it outgrows this bound, so suppression
  // memory stays O(active keys), not O(keys ever seen).
  static constexpr size_t kSuppressPruneThreshold = 1 << 16;
  std::unordered_map<SuppressKey, SimTime, SuppressKeyHash> last_admitted_;
  SimTime newest_at_ = 0;

  // Appended by the drain worker only; see log().
  std::vector<Alarm> log_;

  mutable std::mutex subs_mu_;
  std::vector<AlarmHandler> subscribers_;

  // Declared after the state ProcessBatch touches: its destructor drains
  // the queue through ProcessBatch.
  MpscChannel<Alarm> channel_;
  MetricsSource metrics_;  // last: unregisters before the state it reads
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_CONTROLLER_ALARM_PIPELINE_H_
