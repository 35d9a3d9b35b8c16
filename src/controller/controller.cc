#include "src/controller/controller.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace pathdump {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

}  // namespace

void Controller::RegisterAgent(EdgeAgent* agent) {
  // Overwrite on re-registration: a restarted agent (chaos harness, real
  // crash recovery) replaces its predecessor's pointer but keeps the
  // host's original position in the merge order.
  auto [it, inserted] = agents_.insert_or_assign(agent->host(), agent);
  if (inserted) {
    host_order_.push_back(agent->host());
  }
}

EdgeAgent* Controller::agent(HostId host) const {
  auto it = agents_.find(host);
  return it == agents_.end() ? nullptr : it->second;
}

std::vector<HostId> Controller::registered_hosts() const { return host_order_; }

void Controller::SetWorkerThreads(size_t n) {
  if (n <= 1) {
    pool_.reset();
  } else {
    pool_ = std::make_unique<ThreadPool>(n);
  }
}

Controller::TimedResult Controller::RunOn(EdgeAgent& agent, const QueryFn& query) const {
  TraceScope span("query.scan", TraceKeys{0, uint32_t(agent.host()), 0});
  auto t0 = std::chrono::steady_clock::now();
  TimedResult out;
  out.result = query(agent);
  // Measured in-memory execution plus the modeled Flask/MongoDB service
  // stack of the paper's agents (see RpcModel).
  out.compute_seconds = SecondsSince(t0) + rpc_.per_query_service_seconds;
  return out;
}

void Controller::RunAll(const std::vector<EdgeAgent*>& agents, const QueryFn& query,
                        std::vector<TimedResult>& results) const {
  results.resize(agents.size());
  auto run_one = [&](size_t i) {
    if (agents[i] != nullptr) {
      results[i] = RunOn(*agents[i], query);
    }
  };
  if (pool_ != nullptr && agents.size() > 1) {
    pool_->ParallelFor(agents.size(), run_one);
  } else {
    for (size_t i = 0; i < agents.size(); ++i) {
      run_one(i);
    }
  }
}

std::pair<QueryResult, QueryExecStats> Controller::Execute(const std::vector<HostId>& hosts,
                                                           const QueryFn& query) const {
  static Counter* executes = MetricsRegistry::Global().GetCounter("query.executes");
  executes->Add();
  TraceScope span("query.execute", TraceKeys{});
  QueryExecStats stats;
  stats.hosts = hosts.size();

  // Phase 1 — fan-out: every host executes the query independently (on the
  // worker pool when configured).  Results land in per-host slots, so the
  // execution schedule cannot influence anything downstream.
  std::vector<EdgeAgent*> targets;
  targets.reserve(hosts.size());
  for (HostId h : hosts) {
    targets.push_back(agent(h));
  }
  std::vector<TimedResult> results;
  RunAll(targets, query, results);

  // Phase 2 — deterministic reduce, sequential in host order; each modeled
  // response arrives after request transfer + execution + response
  // transfer.  Controller-side aggregation is sequential: measure the real
  // merge.
  TraceScope reduce_span("query.reduce", TraceKeys{});
  QueryResult merged;
  double latest_arrival = 0;
  double merge_seconds = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == nullptr) {
      continue;
    }
    TimedResult& r = results[i];
    size_t resp_bytes = SerializedBytes(r.result);
    stats.network_bytes += rpc_.request_bytes + resp_bytes;
    stats.response_bytes += resp_bytes;
    double arrival = rpc_.rtt_seconds + rpc_.TransferSeconds(resp_bytes) + r.compute_seconds;
    latest_arrival = std::max(latest_arrival, arrival);
    stats.max_host_compute_seconds = std::max(stats.max_host_compute_seconds, r.compute_seconds);

    auto t0 = std::chrono::steady_clock::now();
    MergeQueryResult(merged, std::move(r.result));
    merge_seconds += SecondsSince(t0);
  }
  stats.controller_compute_seconds = merge_seconds;
  stats.response_time_seconds = latest_arrival + merge_seconds;
  return {std::move(merged), stats};
}

std::pair<QueryResult, QueryExecStats> Controller::ExecuteMultiLevel(
    const std::vector<HostId>& hosts, const QueryFn& query, int top_fanout, int fanout) const {
  static Counter* executes = MetricsRegistry::Global().GetCounter("query.executes");
  executes->Add();
  TraceScope span("query.multilevel", TraceKeys{});
  QueryExecStats stats;
  stats.hosts = hosts.size();
  AggregationTree tree = BuildAggregationTree(hosts, top_fanout, fanout);
  const size_t n = tree.nodes.size();

  std::vector<EdgeAgent*> node_agents(n, nullptr);
  std::vector<int> parent(n, -1);
  for (size_t i = 0; i < n; ++i) {
    node_agents[i] = agent(tree.nodes[i].host);
    for (int child : tree.nodes[i].children) {
      parent[size_t(child)] = int(i);
    }
  }

  // Phase 1 — pipelined fan-out + reduce.  Every tree node's own query
  // execution is an independent work item, and a node's subtree merge
  // runs as soon as its own execution AND all of its children's subtree
  // merges have finished — on whichever worker completed the last
  // dependency.  Subtree reduction therefore overlaps still-running
  // executions elsewhere in the tree instead of waiting for a full
  // fan-out barrier.  Determinism is untouched: each node's merge
  // happens exactly once, in fixed child order, over children that are
  // already final — so the payload bytes cannot depend on scheduling.
  std::vector<TimedResult> own(n);
  std::vector<QueryResult> merged_subtree(n);   // final subtree result per node
  std::vector<double> merge_seconds(n, 0.0);    // measured per-node merge work
  std::vector<size_t> subtree_bytes(n, 0);      // SerializedBytes(merged_subtree)
  // Dependencies outstanding per node: own execution + each child's
  // completed subtree merge.  The release/acquire decrement chain also
  // publishes the children's merged results to the merging worker.
  std::vector<std::atomic<int>> pending(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i].store(int(tree.nodes[i].children.size()) + 1, std::memory_order_relaxed);
  }

  auto merge_node = [&](size_t i) {
    auto t0 = std::chrono::steady_clock::now();
    merged_subtree[i] = std::move(own[i].result);
    for (int child : tree.nodes[i].children) {
      // The child's size was recorded when it merged; its payload moves
      // into the parent — otherwise a deep tree over list-shaped results
      // holds every level's concatenation live at once.
      MergeQueryResult(merged_subtree[i], std::move(merged_subtree[size_t(child)]));
    }
    merge_seconds[i] = SecondsSince(t0);
    // A pure function of the (deterministic) result — safe to compute on
    // whichever worker merged; charged during the sequential pass below.
    subtree_bytes[i] = SerializedBytes(merged_subtree[i]);
  };
  // Completes one dependency of node `cur` and, if it was the last,
  // merges and climbs: the finished subtree is itself a dependency of
  // the parent.  The worker that closes the final dependency of the
  // whole tree carries the reduction all the way to the roots.
  auto complete = [&](size_t i) {
    int cur = int(i);
    while (cur >= 0 && pending[size_t(cur)].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      merge_node(size_t(cur));
      cur = parent[size_t(cur)];
    }
  };
  auto run_item = [&](size_t i) {
    if (node_agents[i] != nullptr) {
      own[i] = RunOn(*node_agents[i], query);
    }
    complete(i);
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(n, run_item);
  } else {
    for (size_t i = 0; i < n; ++i) {
      run_item(i);
    }
  }

  // Phase 2 — deterministic modeled accounting, sequential.  Byte
  // charges and the response-time recurrence depend only on the tree
  // shape and the (deterministic) per-subtree payload sizes; the merge
  // and execution wall-times were measured above.
  std::function<double(int)> ready_at = [&](int idx) -> double {
    const AggregationNode& node = tree.nodes[size_t(idx)];
    double own_exec = 0;
    if (node_agents[size_t(idx)] != nullptr) {
      own_exec = own[size_t(idx)].compute_seconds;
      stats.max_host_compute_seconds = std::max(stats.max_host_compute_seconds, own_exec);
      stats.network_bytes += rpc_.request_bytes;
    }
    double children_ready = 0;
    for (int child : node.children) {
      double child_ready = ready_at(child);
      size_t bytes = subtree_bytes[size_t(child)];
      stats.network_bytes += bytes;
      stats.response_bytes += bytes;
      children_ready = std::max(children_ready,
                                child_ready + rpc_.rtt_seconds / 2 + rpc_.TransferSeconds(bytes));
    }
    return std::max(own_exec, children_ready) + merge_seconds[size_t(idx)];
  };

  QueryResult merged;
  double latest = 0;
  double controller_merge = 0;
  for (int root : tree.roots) {
    double root_ready = ready_at(root);
    size_t bytes = subtree_bytes[size_t(root)];
    stats.network_bytes += bytes;
    stats.response_bytes += bytes;
    latest = std::max(latest,
                      root_ready + rpc_.rtt_seconds / 2 + rpc_.TransferSeconds(bytes));
    auto t0 = std::chrono::steady_clock::now();
    MergeQueryResult(merged, std::move(merged_subtree[size_t(root)]));
    controller_merge += SecondsSince(t0);
  }
  stats.controller_compute_seconds = controller_merge;
  // Dispatch down the tree costs half-RTT per level on the way in.
  double dispatch = rpc_.rtt_seconds / 2 * double(std::max(tree.depth(), 1));
  stats.response_time_seconds = dispatch + latest + controller_merge;
  return {std::move(merged), stats};
}

std::vector<int> Controller::Install(const std::vector<HostId>& hosts, SimTime period,
                                     EdgeAgent::PeriodicQuery body) const {
  std::vector<int> ids;
  ids.reserve(hosts.size());
  for (HostId h : hosts) {
    EdgeAgent* a = agent(h);
    ids.push_back(a == nullptr ? -1 : a->InstallQuery(period, body));
  }
  return ids;
}

void Controller::Uninstall(const std::vector<HostId>& hosts, const std::vector<int>& ids) const {
  for (size_t i = 0; i < hosts.size() && i < ids.size(); ++i) {
    EdgeAgent* a = agent(hosts[i]);
    if (a != nullptr && ids[i] >= 0) {
      a->UninstallQuery(ids[i]);
    }
  }
}

AlarmHandler Controller::MakeAlarmSink() {
  // Capture the controller, not the pipeline, so sinks handed to agents
  // before ConfigureAlarmPipeline keep feeding the replacement.
  return [this](const Alarm& alarm) { alarm_pipeline_->Submit(alarm); };
}

void Controller::SubscribeAlarms(AlarmHandler handler) {
  subscribers_.push_back(handler);
  alarm_pipeline_->Subscribe(std::move(handler));
}

void Controller::ConfigureAlarmPipeline(AlarmPipelineOptions options) {
  // The old pipeline's destructor drains it first, so nothing already
  // submitted is lost to subscribers — only the log is reset.
  alarm_pipeline_ = std::make_unique<AlarmPipeline>(options);
  for (const AlarmHandler& sub : subscribers_) {
    alarm_pipeline_->Subscribe(sub);
  }
}

const std::vector<Alarm>& Controller::alarm_log() const {
  alarm_pipeline_->Flush();
  return alarm_pipeline_->log();
}

}  // namespace pathdump
