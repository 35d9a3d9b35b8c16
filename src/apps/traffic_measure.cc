#include "src/apps/traffic_measure.h"

#include <algorithm>
#include <unordered_map>

namespace pathdump {

TopKFlows TopKAcrossHosts(Controller& controller, const std::vector<HostId>& hosts, size_t k,
                          TimeRange range, bool multi_level) {
  Controller::QueryFn query = [k, range](EdgeAgent& agent) -> QueryResult {
    return agent.TopK(k, range);
  };
  auto [result, stats] = multi_level ? controller.ExecuteMultiLevel(hosts, query)
                                     : controller.Execute(hosts, query);
  if (auto* t = std::get_if<TopKFlows>(&result)) {
    return std::move(*t);
  }
  return TopKFlows{k, {}};
}

uint64_t SubscribeTopK(SubscriptionManager& manager, const std::vector<HostId>& hosts, size_t k,
                       TimeRange range, SimTime epoch_period) {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kTopK;
  spec.k = k;
  spec.range = range;
  return manager.Subscribe(hosts, spec, epoch_period);
}

TopKFlows TopKStanding(SubscriptionManager& manager, uint64_t subscription_id) {
  QueryResult result = manager.Materialize(subscription_id);
  if (auto* t = std::get_if<TopKFlows>(&result)) {
    return std::move(*t);
  }
  // No host has shipped anything yet (or the id is unknown): an empty
  // result shaped by the subscription's own spec.
  return TopKFlows{manager.info(subscription_id).spec.k, {}};
}

FlowList FlowsOnLinkAcrossHosts(Controller& controller, const std::vector<HostId>& hosts,
                                LinkId link, TimeRange range, bool multi_level) {
  Controller::QueryFn query = [link, range](EdgeAgent& agent) -> QueryResult {
    return FlowList{agent.GetFlows(link, range)};
  };
  auto [result, stats] = multi_level ? controller.ExecuteMultiLevel(hosts, query)
                                     : controller.Execute(hosts, query);
  if (auto* f = std::get_if<FlowList>(&result)) {
    return std::move(*f);
  }
  return FlowList{};
}

uint64_t SubscribeFlowList(SubscriptionManager& manager, const std::vector<HostId>& hosts,
                           LinkId link, TimeRange range, SimTime epoch_period) {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kFlowList;
  spec.link = link;
  spec.range = range;
  return manager.Subscribe(hosts, spec, epoch_period);
}

FlowList FlowListStanding(SubscriptionManager& manager, uint64_t subscription_id) {
  QueryResult result = manager.Materialize(subscription_id);
  if (auto* f = std::get_if<FlowList>(&result)) {
    return std::move(*f);
  }
  // No host has shipped anything yet (or the id is unknown).
  return FlowList{};
}

CountSummary CountOnLinkAcrossHosts(Controller& controller, const std::vector<HostId>& hosts,
                                    LinkId link, TimeRange range, bool multi_level) {
  Controller::QueryFn query = [link, range](EdgeAgent& agent) -> QueryResult {
    return agent.CountOnLink(link, range);
  };
  auto [result, stats] = multi_level ? controller.ExecuteMultiLevel(hosts, query)
                                     : controller.Execute(hosts, query);
  if (auto* c = std::get_if<CountSummary>(&result)) {
    return *c;
  }
  return CountSummary{};
}

uint64_t SubscribeCountSummary(SubscriptionManager& manager, const std::vector<HostId>& hosts,
                               LinkId link, TimeRange range, SimTime epoch_period) {
  StandingQuerySpec spec;
  spec.kind = StandingQuerySpec::Kind::kCountSummary;
  spec.link = link;
  spec.range = range;
  return manager.Subscribe(hosts, spec, epoch_period);
}

CountSummary CountSummaryStanding(SubscriptionManager& manager, uint64_t subscription_id) {
  QueryResult result = manager.Materialize(subscription_id);
  if (auto* c = std::get_if<CountSummary>(&result)) {
    return *c;
  }
  return CountSummary{};
}

std::map<std::pair<SwitchId, SwitchId>, uint64_t> TrafficMatrix(AgentFleet& fleet,
                                                                TimeRange range) {
  std::map<std::pair<SwitchId, SwitchId>, uint64_t> matrix;
  for (EdgeAgent* agent : fleet.all()) {
    agent->tib().ForEachRecordUnordered([&](const TibRecord& rec) {
      if (!rec.Overlaps(range) || rec.path.len == 0) {
        return;
      }
      SwitchId src_tor = rec.path.sw[0];
      SwitchId dst_tor = rec.path.sw[size_t(rec.path.len) - 1];
      matrix[{src_tor, dst_tor}] += rec.bytes;
    });
  }
  return matrix;
}

std::vector<std::pair<uint64_t, FiveTuple>> HeavyHitters(Controller& controller,
                                                         const std::vector<HostId>& hosts,
                                                         uint64_t threshold_bytes,
                                                         TimeRange range) {
  // Reuse the top-k machinery with a generous k, then threshold.
  TopKFlows top = TopKAcrossHosts(controller, hosts, 100000, range, /*multi_level=*/false);
  std::vector<std::pair<uint64_t, FiveTuple>> out;
  for (const auto& [bytes, flow] : top.items) {
    if (bytes >= threshold_bytes) {
      out.emplace_back(bytes, flow);
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, Flow>> CongestedLinkFlows(Controller& controller,
                                                          const std::vector<HostId>& hosts,
                                                          LinkId link, TimeRange range) {
  std::vector<std::pair<uint64_t, Flow>> out;
  for (HostId h : hosts) {
    EdgeAgent* agent = controller.agent(h);
    if (agent == nullptr) {
      continue;
    }
    for (const Flow& f : agent->GetFlows(link, range)) {
      CountSummary c = agent->GetCount(f, range);
      out.emplace_back(c.bytes, f);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return b.first < a.first; });
  return out;
}

std::vector<std::pair<uint64_t, IpAddr>> DdosSources(EdgeAgent& victim_agent, TimeRange range) {
  std::unordered_map<IpAddr, uint64_t> per_source;
  victim_agent.tib().ForEachRecordUnordered([&](const TibRecord& rec) {
    if (rec.Overlaps(range)) {
      per_source[rec.flow.src_ip] += rec.bytes;
    }
  });
  std::vector<std::pair<uint64_t, IpAddr>> out;
  out.reserve(per_source.size());
  for (const auto& [ip, bytes] : per_source) {
    out.emplace_back(bytes, ip);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) { return b.first < a.first; });
  return out;
}

}  // namespace pathdump
