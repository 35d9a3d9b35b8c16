// Query result payloads exchanged between end-host agents and the
// controller, with explicit serialized-size accounting.
//
// The paper's controller and agents exchange JSON over a Flask REST channel
// (§3.3); response time and network traffic of the two query mechanisms
// (direct vs multi-level) are first-class evaluation metrics (Figs. 11/12).
// We therefore give every result type a deterministic wire size (compact
// binary framing: fixed-width fields, length-prefixed lists) and a merge
// operation — the aggregation-tree reduce step.

#ifndef PATHDUMP_SRC_EDGE_QUERY_H_
#define PATHDUMP_SRC_EDGE_QUERY_H_

#include <cstdint>
#include <map>
#include <variant>
#include <vector>

#include "src/common/types.h"

namespace pathdump {

// Flow-size distribution for a link (§2.3 "Load imbalance"): bin -> count.
struct FlowSizeHistogram {
  int64_t bin_width = 10000;
  std::map<int64_t, int64_t> bins;

  friend bool operator==(const FlowSizeHistogram&, const FlowSizeHistogram&) = default;
};

// Top-k flows by byte count (§2.3 "Traffic measurement").
struct TopKFlows {
  size_t k = 0;
  // (bytes, flow) pairs; Finalize() trims to the k best and sorts them
  // descending.
  std::vector<std::pair<uint64_t, FiveTuple>> items;

  void Finalize();

  friend bool operator==(const TopKFlows&, const TopKFlows&) = default;
};

// getFlows result: flows (with their paths) traversing a link.
struct FlowList {
  std::vector<Flow> flows;

  friend bool operator==(const FlowList&, const FlowList&) = default;
};

// getPaths result.
struct PathList {
  std::vector<Path> paths;

  friend bool operator==(const PathList&, const PathList&) = default;
};

// getCount result.
struct CountSummary {
  uint64_t bytes = 0;
  uint64_t pkts = 0;

  friend bool operator==(const CountSummary&, const CountSummary&) = default;
};

using QueryResult =
    std::variant<std::monostate, FlowSizeHistogram, TopKFlows, FlowList, PathList, CountSummary>;

// Bytes this result occupies on the wire (compact binary framing).
size_t SerializedBytes(const QueryResult& r);

// Merges `in` into `acc` (both must hold the same alternative, or acc may
// be monostate).  TopKFlows keeps only the k best entries — this is the
// data reduction that makes the multi-level tree win in Fig. 12.  `in` is
// taken by value: pass std::move(result) to move its lists (FlowList
// paths included) into `acc`; an lvalue argument is copied and left
// unchanged.
void MergeQueryResult(QueryResult& acc, QueryResult in);

}  // namespace pathdump

#endif  // PATHDUMP_SRC_EDGE_QUERY_H_
