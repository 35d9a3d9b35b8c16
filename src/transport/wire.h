// Real byte framing for the agent ↔ controller transport.
//
// Invariant that keeps the repo's byte accounting honest: an encoded
// QueryDelta frame is exactly QueryDelta::SerializedSize() bytes.  The
// 16-byte frame header below IS the 16-byte message header the size
// model charges, and the delta payload layout matches FoldState's wire
// framing (src/edge/standing_query.h) field for field, so the modeled
// wire cost is the measured wire cost.
//
// A kQueryDelta / kSnapshot payload is 24 bytes of framing — u64
// subscription id, u32 host, u8 kind, 3 zero bytes, u64 epoch —
// followed by the FoldState of that kind:
//
//   kTopK, kFlowSizeHistogram  per flow: 13-byte packed 5-tuple, u64
//                              byte sum; strictly ascending by flow
//   kFlowList                  per distinct (flow, path): u64 insertion
//                              id, 13-byte 5-tuple, u8 path length
//                              (<= CompactPath::kMaxSwitches), u32 per
//                              switch; strictly ascending by id
//   kCountSummary              exactly one (u64 bytes, u64 pkts) pair
//
// A kQueryDelta payload is never empty (no flows, no items, or an
// all-zero count); a kSnapshot payload may be.
//
// A kSubscribe payload (version 3) carries one StandingQuerySpec:
//
//   u64 subscription id, u8 kind, u8 flags, 2 zero bytes,
//   u32 link src, u32 link dst, u64 k, i64 bin width,
//   i64 range begin, i64 range end,
//   [flags bit 0] the flow key as a 13-byte packed 5-tuple,
//   [flags bit 1] the exact path: u8 length (<= kMaxSwitches), u32 per
//                 switch
//
// Other flag bits are rejected, so a keyed spec is never silently
// widened to every flow.
//
// Pad rule: the header's reserved u16, the delta framing's 3 pad bytes,
// the subscribe pad and the ack's u32 pad are zero, and a nonzero one is
// kBadPayload — every accepted frame is byte for byte what the encoder
// writes for the decoded object.
//
// Versions: v1 shipped raw records for the FlowList and CountSummary
// kinds; v2 had no spec flags (three subscribe pad bytes).  Frames of
// either are rejected as kBadVersion rather than misparsed.
//
// Frame layout (little-endian, fixed offsets):
//
//   0  u32  magic       'PDTP'
//   4  u8   version
//   5  u8   type        FrameType
//   6  u16  reserved    (zero, else kBadPayload; covered by the checksum)
//   8  u32  payload_len bytes after the 16-byte header
//   12 u32  crc32       IEEE CRC-32 over the header (crc field zeroed)
//                       and the payload — any single bit flip anywhere
//                       in the frame is detected
//   16 ...  payload     per-type layout (see wire.cc)
//
// Decoding is total: any truncated, oversized, bit-flipped, or
// semantically invalid frame yields a WireError (never a crash, never a
// silently wrong object; items out of canonical order are rejected, not
// merged).  The transport reactor counts each category
// (TransportStats); tests/query_serialization_test.cc fuzzes random
// corruption offsets against this contract.

#ifndef PATHDUMP_SRC_TRANSPORT_WIRE_H_
#define PATHDUMP_SRC_TRANSPORT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/edge/alarm.h"
#include "src/edge/standing_query.h"

namespace pathdump {
namespace transport {

inline constexpr uint32_t kFrameMagic = 0x50445450u;  // 'PDTP'
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 16;
// Upper bound on a frame payload: larger declared lengths are rejected
// before any allocation, so a corrupt length can never OOM the reactor.
inline constexpr size_t kMaxFramePayload = 64u << 20;

// Everything that crosses a ring.  Data plane: kQueryDelta / kAlarm
// (agent → controller).  Control plane (controller → agent) plus the
// handshake frames the multi-process harness uses.
enum class FrameType : uint8_t {
  kHello = 1,       // agent announces (host, pid) after mapping its rings
  kQueryDelta = 2,  // one epoch increment (a FoldState of the subscription's kind)
  kAlarm = 3,       // one Alarm
  kSubscribe = 4,   // install a standing query: (subscription id, spec)
  kEpochTick = 5,   // tick every standing query, then ack with the token
  kAck = 6,         // agent acked (host, token)
  kIngest = 7,      // test harness: run IngestSynthetic
                    // (src/workload/synthetic_records.h)

  kShutdown = 8,    // drain and exit
  kBye = 9,         // agent's graceful goodbye

  // Crash-recovery pair.  kResyncRequest (controller → agent) asks one
  // subscription for a full re-baseline; the agent answers with a
  // kSnapshot (agent → controller): a QueryDelta-shaped frame carrying
  // the FULL standing state at an epoch boundary.  Unlike kQueryDelta an
  // empty kSnapshot payload is legal — "nothing yet" is a valid
  // baseline after a restart.
  kResyncRequest = 10,
  kSnapshot = 11,
};

enum class WireError : uint8_t {
  kOk = 0,
  kTruncated,    // buffer ends before the declared frame does
  kBadMagic,     // not a frame at all
  kBadVersion,   // incompatible framing
  kBadType,      // unknown FrameType
  kOversized,    // declared length exceeds the cap, or trailing junk
  kBadChecksum,  // CRC mismatch (bit corruption)
  kBadPayload,   // per-type layout violated (counts, path lengths, ...)
};

const char* WireErrorName(WireError err);

// IEEE CRC-32 (the zlib polynomial), table-driven.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

// --- Encoders ---
//
// Each appends exactly one complete frame to `out` and returns the
// frame's total size in bytes.  EncodeQueryDeltaFrame's return value
// equals delta.SerializedSize() by construction (asserted in tests).

size_t EncodeQueryDeltaFrame(const QueryDelta& delta, std::vector<uint8_t>& out);
// The kSnapshot twin of EncodeQueryDeltaFrame: same payload layout, the
// frame type alone marks it as a full baseline.  delta.snapshot should
// be true; the decoder sets it from the frame type.
size_t EncodeSnapshotFrame(const QueryDelta& delta, std::vector<uint8_t>& out);
size_t EncodeAlarmFrame(const Alarm& alarm, std::vector<uint8_t>& out);
// `incarnation` counts the agent's restarts on this host (0 for the
// first launch).  A hub that sees a Hello with a new incarnation on a
// known peer treats it as a rejoin and triggers subscription resync.
size_t EncodeHelloFrame(HostId host, uint32_t pid, uint32_t incarnation,
                        std::vector<uint8_t>& out);
size_t EncodeSubscribeFrame(uint64_t subscription_id, const StandingQuerySpec& spec,
                            std::vector<uint8_t>& out);
size_t EncodeEpochTickFrame(uint64_t token, std::vector<uint8_t>& out);
size_t EncodeAckFrame(HostId host, uint64_t token, std::vector<uint8_t>& out);
size_t EncodeIngestFrame(uint32_t count, uint32_t seed, uint32_t ip_space, uint32_t switch_space,
                         std::vector<uint8_t>& out);
size_t EncodeShutdownFrame(std::vector<uint8_t>& out);
size_t EncodeByeFrame(HostId host, std::vector<uint8_t>& out);
size_t EncodeResyncRequestFrame(uint64_t subscription_id, std::vector<uint8_t>& out);

// Wire bytes of an alarm frame (header + payload) — the alarm twin of
// QueryDelta::SerializedSize, used by benches for byte accounting.
size_t AlarmWireBytes(const Alarm& alarm);

// --- Decoder ---

// One decoded frame, discriminated by `type`.  Only the fields of the
// decoded type are meaningful.
struct DecodedFrame {
  FrameType type = FrameType::kHello;
  // kHello / kAck / kBye
  HostId host = kInvalidNode;
  uint32_t pid = 0;
  // kHello: the agent's restart count (0 on first launch).
  uint32_t incarnation = 0;
  // kQueryDelta / kSnapshot (seq is transport-local, left 0 — the
  // controller's channel stamps its own intake seq; delta.snapshot is
  // set from the frame type)
  QueryDelta delta;
  // kAlarm (seq likewise left 0 for the alarm pipeline to stamp)
  Alarm alarm;
  // kSubscribe / kResyncRequest
  uint64_t subscription_id = 0;
  StandingQuerySpec spec;
  // kEpochTick / kAck
  uint64_t token = 0;
  // kIngest
  uint32_t ingest_count = 0;
  uint32_t ingest_seed = 0;
  uint32_t ingest_ip_space = 0;
  uint32_t ingest_switch_space = 0;
};

// Decodes exactly one frame occupying exactly [data, data+size).  A
// frame shorter than `size` (trailing bytes) is rejected as kOversized:
// ring messages carry one frame each, so trailing bytes mean corruption.
WireError DecodeFrame(const uint8_t* data, size_t size, DecodedFrame* out);

}  // namespace transport
}  // namespace pathdump

#endif  // PATHDUMP_SRC_TRANSPORT_WIRE_H_
