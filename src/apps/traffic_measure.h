// Traffic measurement applications (§2.3 "Traffic measurement", Table 2):
// top-k flows, traffic matrix, heavy hitters, congested-link diagnosis,
// and DDoS source accounting — all expressed over the host API / TIBs.

#ifndef PATHDUMP_SRC_APPS_TRAFFIC_MEASURE_H_
#define PATHDUMP_SRC_APPS_TRAFFIC_MEASURE_H_

#include <map>
#include <utility>
#include <vector>

#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/edge/fleet.h"

namespace pathdump {

// Top-k flows by bytes across the given hosts (Fig. 12's query).
TopKFlows TopKAcrossHosts(Controller& controller, const std::vector<HostId>& hosts, size_t k,
                          TimeRange range, bool multi_level = true);

// Standing variant of the same measurement: installs a top-k standing
// query on `hosts` and returns the subscription id.  Agents then
// evaluate incrementally at insert time; each epoch tick ships only the
// per-flow byte increments.  At any epoch boundary TopKStanding is
// byte-identical to a direct-poll TopKAcrossHosts over the same TIB
// contents.  The poll path above keeps working — both consume the TIB.
uint64_t SubscribeTopK(SubscriptionManager& manager, const std::vector<HostId>& hosts, size_t k,
                       TimeRange range = TimeRange::All(), SimTime epoch_period = 0);

// Materializes the standing top-k (flushes in-flight deltas first).
// The k (like every query parameter) is the subscription's own spec.
TopKFlows TopKStanding(SubscriptionManager& manager, uint64_t subscription_id);

// getFlows across hosts: distinct (flow, path) pairs traversing `link`,
// per-host first-appearance order, hosts concatenated in host order —
// the poll of a standing FlowList subscription's spec.
FlowList FlowsOnLinkAcrossHosts(Controller& controller, const std::vector<HostId>& hosts,
                                LinkId link, TimeRange range, bool multi_level = false);

// Standing variant: agents ship every filtered record (with its TIB
// insertion id) per epoch; the controller replays the getFlows dedup
// incrementally.  At any epoch boundary FlowListStanding is
// byte-identical to FlowsOnLinkAcrossHosts over the same TIB contents.
uint64_t SubscribeFlowList(SubscriptionManager& manager, const std::vector<HostId>& hosts,
                           LinkId link, TimeRange range = TimeRange::All(),
                           SimTime epoch_period = 0);

// Materializes the standing flow list (flushes in-flight deltas first).
FlowList FlowListStanding(SubscriptionManager& manager, uint64_t subscription_id);

// getCount across hosts: byte/packet totals of records traversing
// `link`, summed over hosts — the poll of a standing CountSummary
// subscription's spec.
CountSummary CountOnLinkAcrossHosts(Controller& controller, const std::vector<HostId>& hosts,
                                    LinkId link, TimeRange range, bool multi_level = false);

// Standing variant of the link count; byte-identical to
// CountOnLinkAcrossHosts at any epoch boundary.
uint64_t SubscribeCountSummary(SubscriptionManager& manager, const std::vector<HostId>& hosts,
                               LinkId link, TimeRange range = TimeRange::All(),
                               SimTime epoch_period = 0);

// Materializes the standing count (flushes in-flight deltas first).
CountSummary CountSummaryStanding(SubscriptionManager& manager, uint64_t subscription_id);

// Traffic matrix between ToR pairs: (src ToR, dst ToR) -> bytes, assembled
// from every destination TIB (Table 2 "Traffic matrix").
std::map<std::pair<SwitchId, SwitchId>, uint64_t> TrafficMatrix(AgentFleet& fleet,
                                                                TimeRange range);

// Flows exceeding `threshold_bytes` at any queried host (heavy hitters).
std::vector<std::pair<uint64_t, FiveTuple>> HeavyHitters(Controller& controller,
                                                         const std::vector<HostId>& hosts,
                                                         uint64_t threshold_bytes,
                                                         TimeRange range);

// Flows using a congested link with their byte contributions, descending —
// tells the operator what to reroute (Table 2 "Congested link diagnosis").
std::vector<std::pair<uint64_t, Flow>> CongestedLinkFlows(Controller& controller,
                                                          const std::vector<HostId>& hosts,
                                                          LinkId link, TimeRange range);

// DDoS diagnosis: distinct sources sending to `victim_ip` with per-source
// byte totals, descending (Table 2 "DDoS diagnosis").
std::vector<std::pair<uint64_t, IpAddr>> DdosSources(EdgeAgent& victim_agent, TimeRange range);

}  // namespace pathdump

#endif  // PATHDUMP_SRC_APPS_TRAFFIC_MEASURE_H_
