#include "src/common/flow_delta.h"

#include <algorithm>

namespace pathdump {

namespace {

// Framing constants, matching src/edge/query.cc: 16-byte message header;
// 13-byte packed 5-tuple + 8-byte count per item.
constexpr size_t kDeltaHeader = 16;
constexpr size_t kPerFlowItem = 21;

}  // namespace

size_t FlowBytesDelta::SerializedSize() const {
  return kDeltaHeader + items.size() * kPerFlowItem;
}

FlowBytesDelta FlowBytesDelta::FromShardMaps(std::vector<FlowBytesMap>& shard_maps) {
  FlowBytesDelta out;
  size_t total = 0;
  for (const FlowBytesMap& m : shard_maps) {
    total += m.size();
  }
  out.items.reserve(total);
  for (FlowBytesMap& m : shard_maps) {
    for (const auto& [flow, bytes] : m) {
      out.items.emplace_back(flow, bytes);
    }
    m.clear();
  }
  // Shard maps are key-disjoint (a flow hashes to exactly one shard), so
  // concatenation loses nothing; the sort canonicalizes.
  std::sort(out.items.begin(), out.items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void FlowBytesDelta::ApplyTo(FlowBytesMap& acc) const {
  for (const auto& [flow, bytes] : items) {
    acc[flow] += bytes;
  }
}

}  // namespace pathdump
