#include "src/controller/alarm_pipeline.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

namespace {

// Alarm storms submit from many agent threads at once; tracing every
// Submit would dominate the span ring.  1-in-256 per thread keeps storm
// shape visible at negligible cost.
constexpr uint32_t kSubmitSampleMask = 255;

bool SampleThisSubmit() {
  thread_local uint32_t counter = 0;
  return (counter++ & kSubmitSampleMask) == 0;
}

}  // namespace

AlarmPipeline::AlarmPipeline(AlarmPipelineOptions options)
    : options_(options),
      channel_(MpscChannelOptions{options.queue_capacity, options.max_batch, options.overflow},
               [this](std::vector<Alarm>& batch) { ProcessBatch(batch); }),
      metrics_([this](MetricsSnapshot& snap) {
        snap.counters["alarm.suppressed"] += suppressed_.load(std::memory_order_acquire);
        snap.counters["alarm.delivered"] += delivered_.load(std::memory_order_acquire);
        channel_.stats().AddTo(snap, "alarm.channel");
      }) {
  if (options_.dispatch_workers > 1) {
    dispatch_pool_ = std::make_unique<ThreadPool>(options_.dispatch_workers);
  }
}

AlarmPipeline::~AlarmPipeline() {
  // Deliver what is queued while metrics_ can still count it.
  channel_.Flush();
}

bool AlarmPipeline::Submit(const Alarm& alarm) {
  if (MetricsRegistry::enabled() && SampleThisSubmit()) {
    TraceScope span("alarm.submit", TraceKeys{0, alarm.host, 0});
    return channel_.Submit(alarm);
  }
  return channel_.Submit(alarm);
}

void AlarmPipeline::Subscribe(AlarmHandler handler) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  subscribers_.push_back(std::move(handler));
}

size_t AlarmPipeline::subscriber_count() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  return subscribers_.size();
}

AlarmPipelineStats AlarmPipeline::stats() const {
  const MpscChannelStats ch = channel_.stats();
  AlarmPipelineStats out;
  out.submitted = ch.submitted;
  out.dropped = ch.dropped;
  out.blocked_enqueues = ch.blocked_enqueues;
  out.batches = ch.batches;
  out.max_batch = ch.max_batch;
  out.suppressed = suppressed_.load(std::memory_order_acquire);
  out.delivered = delivered_.load(std::memory_order_acquire);
  return out;
}

void AlarmPipeline::ProcessBatch(std::vector<Alarm>& batch) {
  TraceScope drain_span("alarm.drain", TraceKeys{});
  // Suppression runs on the drain worker in sequence order, so the set of
  // survivors depends only on submission order, never on dispatch timing.
  std::vector<Alarm> survivors;
  survivors.reserve(batch.size());
  uint64_t suppressed = 0;
  for (Alarm& a : batch) {
    if (options_.suppression_window > 0) {
      SuppressKey key{a.host, a.flow, a.reason};
      auto it = last_admitted_.find(key);
      if (it != last_admitted_.end() && a.at >= it->second &&
          a.at - it->second < options_.suppression_window) {
        ++suppressed;
        continue;
      }
      last_admitted_[key] = a.at;
      newest_at_ = std::max(newest_at_, a.at);
    }
    survivors.push_back(std::move(a));
  }
  // Keep the dedup table bounded: ephemeral flows (one alarm each) would
  // otherwise pin an entry forever.  Entries whose window has long since
  // expired can never suppress again, so dropping them is lossless.
  if (last_admitted_.size() > kSuppressPruneThreshold) {
    for (auto it = last_admitted_.begin(); it != last_admitted_.end();) {
      if (newest_at_ - it->second >= options_.suppression_window) {
        it = last_admitted_.erase(it);
      } else {
        ++it;
      }
    }
  }
  suppressed_.fetch_add(suppressed, std::memory_order_acq_rel);
  delivered_.fetch_add(survivors.size(), std::memory_order_acq_rel);
  if (survivors.empty()) {
    return;
  }
  for (const Alarm& a : survivors) {
    log_.push_back(a);
  }

  std::vector<AlarmHandler> subs;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs = subscribers_;
  }
  if (subs.empty()) {
    return;
  }
  // Fan out across subscribers: each subscriber consumes the whole batch
  // on one worker, preserving per-subscriber sequence order.  Exceptions
  // are swallowed per (subscriber, alarm) so a throwing subscriber costs
  // only its own alarm — never other subscribers' deliveries or the drain
  // worker — and the behavior is identical at every worker count.
  auto dispatch_one = [&](size_t si) {
    // Subscribers may call Flush() (e.g. via Controller::alarm_log);
    // mark this thread as inside the channel so that returns immediately
    // instead of deadlocking the drain.
    MpscChannel<Alarm>::ReentrancyGuard inside(channel_);
    for (const Alarm& a : survivors) {
      try {
        subs[si](a);
      } catch (const std::exception& e) {
        Logf(LogLevel::kWarn, "alarm subscriber %zu threw on seq %llu: %s", si,
             (unsigned long long)a.seq, e.what());
      } catch (...) {
        Logf(LogLevel::kWarn, "alarm subscriber %zu threw on seq %llu", si,
             (unsigned long long)a.seq);
      }
    }
  };
  TraceScope dispatch_span("alarm.dispatch", TraceKeys{});
  if (dispatch_pool_ != nullptr && subs.size() > 1) {
    dispatch_pool_->ParallelFor(subs.size(), dispatch_one);
  } else {
    for (size_t i = 0; i < subs.size(); ++i) {
      dispatch_one(i);
    }
  }
}

}  // namespace pathdump
