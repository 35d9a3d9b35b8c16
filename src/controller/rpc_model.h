// Cost model for the controller <-> agent management channel.
//
// The paper's testbed exchanges query/response messages over a dedicated
// 1 GbE management network via Flask REST (§3.3, §5.1).  Agents here live
// in-process, so per-host query execution and controller-side aggregation
// are *measured* (real work on real data) while the wire is *modeled* with
// the testbed's constants: per-message RTT plus size/bandwidth transfer
// time.  DESIGN.md documents this substitution.
//
// The shared-memory transport (src/transport/) narrows the substitution
// for the standing-query and alarm paths: over its shared-memory hub
// those frames are really encoded (src/transport/wire.h — a QueryDelta
// frame is exactly QueryDelta::SerializedSize() bytes) and really cross
// a process boundary, so their byte counts are measured on the wire.
// This model still prices the poll RPCs, whose agents remain in-process.

#ifndef PATHDUMP_SRC_CONTROLLER_RPC_MODEL_H_
#define PATHDUMP_SRC_CONTROLLER_RPC_MODEL_H_

#include <cstddef>

namespace pathdump {

struct RpcModel {
  // One round trip on the management network (switching + kernel + HTTP).
  double rtt_seconds = 500e-6;
  // Management-link bandwidth (1 GbE).
  double bandwidth_bytes_per_sec = 125e6;
  // Request message size (query text + tree description).
  size_t request_bytes = 512;
  // Fixed per-message software overhead (serialization, framing).
  double per_message_overhead_seconds = 150e-6;
  // Fixed per-host query service time: the paper's agents serve queries
  // through Flask (HTTP parse/dispatch) backed by MongoDB; our in-memory
  // execution is measured for real and this constant stands in for that
  // service stack (calibrated to the paper's ~0.1s floor in Fig. 11).
  double per_query_service_seconds = 0.08;

  // Seconds to move `bytes` across the management network, including the
  // fixed per-message cost.
  double TransferSeconds(size_t bytes) const {
    return per_message_overhead_seconds + double(bytes) / bandwidth_bytes_per_sec;
  }
};

}  // namespace pathdump

#endif  // PATHDUMP_SRC_CONTROLLER_RPC_MODEL_H_
