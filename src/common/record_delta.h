// Per-record deltas — the epoch increments standing FlowList/CountSummary
// queries ship.
//
// The per-flow byte deltas of flow_delta.h suffice for aggregates that
// reduce to per-flow sums (top-k, flow-size histogram), but PathDump's
// debugging value also comes from queries that return *records and
// counts*: getFlows (distinct (flow, path) pairs in first-appearance
// order) and getCount (byte/packet totals).  Those need the records
// themselves: each epoch the agent ships every TIB record admitted by the
// subscription's filter since the previous boundary, tagged with its
// global insertion id.
//
// The id is the determinism anchor.  getFlows dedups (flow, path) pairs
// and orders them by ascending first insertion id; a controller folding
// record deltas through the poll's own fold (RecordFoldState in
// src/edge/standing_query.h) reproduces that exactly.  Items within a
// delta are kept sorted ascending by id so a delta's wire bytes are a
// pure function of its contents.
//
// Wire framing follows src/edge/query.cc: a 16-byte message header plus,
// per item, the 8-byte id, packed 5-tuple (13), byte/packet counts
// (8 + 4), and the path (1-byte length prefix + 4 bytes per switch).

#ifndef PATHDUMP_SRC_COMMON_RECORD_DELTA_H_
#define PATHDUMP_SRC_COMMON_RECORD_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace pathdump {

// One filtered TIB record as shipped in an epoch delta.
struct RecordDeltaItem {
  // Global insertion id at the producing host's TIB — unique per host,
  // ascending in insertion order (the poll path's ordering key).
  uint64_t id = 0;
  FiveTuple flow;
  Path path;
  uint64_t bytes = 0;
  uint32_t pkts = 0;

  friend bool operator==(const RecordDeltaItem&, const RecordDeltaItem&) = default;
};

struct RecordDelta {
  // Items sorted ascending by id — the canonical order, so equal
  // contents always serialize identically.
  std::vector<RecordDeltaItem> items;

  bool empty() const { return items.empty(); }

  // Bytes this delta occupies on the wire (header + per-item framing).
  size_t SerializedSize() const;

  // Canonicalizes per-shard append buffers into one id-sorted delta (the
  // epoch-tick merge).  Buffers are consumed.  Each buffer is already
  // ascending (appended under its shard lock in insertion order), so
  // this is a k-way merge of k sorted runs, O(n log k).
  static RecordDelta FromShardBuffers(std::vector<std::vector<RecordDeltaItem>>& buffers);

  friend bool operator==(const RecordDelta&, const RecordDelta&) = default;
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_COMMON_RECORD_DELTA_H_
