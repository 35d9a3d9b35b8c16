#include "src/transport/wire.h"

#include <array>
#include <cstring>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/edge/tib.h"

namespace pathdump {
namespace transport {

namespace {

// --- Little-endian primitives (fixed layout on every host) ---

void PutU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(uint8_t(v));
  out.push_back(uint8_t(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(uint8_t(v));
  out.push_back(uint8_t(v >> 8));
  out.push_back(uint8_t(v >> 16));
  out.push_back(uint8_t(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, uint32_t(v));
  PutU32(out, uint32_t(v >> 32));
}

void PutI64(std::vector<uint8_t>& out, int64_t v) { PutU64(out, uint64_t(v)); }

// The 13-byte packed 5-tuple every size model in the repo charges.
void PutTuple(std::vector<uint8_t>& out, const FiveTuple& t) {
  PutU32(out, t.src_ip);
  PutU32(out, t.dst_ip);
  PutU16(out, t.src_port);
  PutU16(out, t.dst_port);
  PutU8(out, t.protocol);
}

// Bounds-checked read cursor over a frame payload.  Every Get returns
// false on underrun; the caller maps that to kBadPayload (the outer
// length checks already rejected truncated *frames*, so an underrun
// here means the payload's internal structure lies about itself).
struct Cursor {
  const uint8_t* p;
  size_t left;

  bool GetU8(uint8_t* v) {
    if (left < 1) return false;
    *v = p[0];
    p += 1;
    left -= 1;
    return true;
  }
  bool GetU16(uint16_t* v) {
    if (left < 2) return false;
    *v = uint16_t(p[0]) | uint16_t(p[1]) << 8;
    p += 2;
    left -= 2;
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (left < 4) return false;
    *v = uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 | uint32_t(p[3]) << 24;
    p += 4;
    left -= 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = uint64_t(lo) | uint64_t(hi) << 32;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!GetU64(&u)) return false;
    *v = int64_t(u);
    return true;
  }
  bool GetTuple(FiveTuple* t) {
    return GetU32(&t->src_ip) && GetU32(&t->dst_ip) && GetU16(&t->src_port) &&
           GetU16(&t->dst_port) && GetU8(&t->protocol);
  }
};

// Appends the 16-byte header with a zeroed crc field; FinishFrame
// patches the crc once the payload is in place.
size_t BeginFrame(std::vector<uint8_t>& out, FrameType type) {
  size_t start = out.size();
  PutU32(out, kFrameMagic);
  PutU8(out, kWireVersion);
  PutU8(out, uint8_t(type));
  PutU16(out, 0);  // reserved
  PutU32(out, 0);  // payload_len, patched below
  PutU32(out, 0);  // crc32, patched below
  return start;
}

size_t FinishFrame(std::vector<uint8_t>& out, size_t start) {
  const size_t total = out.size() - start;
  const uint32_t payload_len = uint32_t(total - kFrameHeaderBytes);
  uint8_t* hdr = out.data() + start;
  hdr[8] = uint8_t(payload_len);
  hdr[9] = uint8_t(payload_len >> 8);
  hdr[10] = uint8_t(payload_len >> 16);
  hdr[11] = uint8_t(payload_len >> 24);
  // CRC over the whole frame with the crc field still zero — so a flip
  // of ANY frame bit (header fields, reserved bytes, payload, or the
  // stored crc itself) fails verification.
  const uint32_t crc = Crc32(hdr, total);
  hdr[12] = uint8_t(crc);
  hdr[13] = uint8_t(crc >> 8);
  hdr[14] = uint8_t(crc >> 16);
  hdr[15] = uint8_t(crc >> 24);
  return total;
}

bool ValidKind(uint8_t kind) { return kind <= uint8_t(StandingQuerySpec::Kind::kCountSummary); }

// `allow_empty` is true for kSnapshot frames: a snapshot of "nothing
// yet" is a legal baseline, while an ordinary delta of nothing is a
// protocol violation (empty epochs never ship).
WireError DecodeQueryDeltaPayload(Cursor c, DecodedFrame* out, bool allow_empty) {
  QueryDelta& d = out->delta;
  uint8_t kind, pad;
  if (!c.GetU64(&d.subscription_id) || !c.GetU32(&d.host) || !c.GetU8(&kind)) {
    return WireError::kBadPayload;
  }
  for (int i = 0; i < 3; ++i) {
    if (!c.GetU8(&pad)) return WireError::kBadPayload;
  }
  if (!c.GetU64(&d.epoch)) return WireError::kBadPayload;
  if (!ValidKind(kind)) return WireError::kBadPayload;
  d.kind = StandingQuerySpec::Kind(kind);
  if (StandingQuerySpec::IsRecordKind(d.kind)) {
    // Record items: 8 id + 13 tuple + 8 bytes + 4 pkts + 1 len + 4·len.
    while (c.left > 0) {
      RecordDeltaItem item;
      uint8_t len;
      if (!c.GetU64(&item.id) || !c.GetTuple(&item.flow) || !c.GetU64(&item.bytes) ||
          !c.GetU32(&item.pkts) || !c.GetU8(&len)) {
        return WireError::kBadPayload;
      }
      if (len > CompactPath::kMaxSwitches) return WireError::kBadPayload;
      item.path.resize(len);
      for (uint8_t i = 0; i < len; ++i) {
        if (!c.GetU32(&item.path[i])) return WireError::kBadPayload;
      }
      d.records.items.push_back(std::move(item));
    }
    if (d.records.items.empty() && !allow_empty) {
      return WireError::kBadPayload;  // empty epochs never ship
    }
  } else {
    // Flow items: fixed 21 bytes each, so the remainder must divide.
    if ((c.left == 0 && !allow_empty) || c.left % 21 != 0) return WireError::kBadPayload;
    d.payload.items.reserve(c.left / 21);
    while (c.left > 0) {
      FiveTuple flow;
      uint64_t bytes;
      if (!c.GetTuple(&flow) || !c.GetU64(&bytes)) return WireError::kBadPayload;
      d.payload.items.emplace_back(flow, bytes);
    }
  }
  return WireError::kOk;
}

WireError DecodeAlarmPayload(Cursor c, DecodedFrame* out) {
  Alarm& a = out->alarm;
  uint8_t reason;
  uint16_t path_count;
  if (!c.GetU32(&a.host) || !c.GetTuple(&a.flow) || !c.GetU8(&reason) ||
      !c.GetU16(&path_count) || !c.GetI64(&a.at)) {
    return WireError::kBadPayload;
  }
  if (reason > uint8_t(AlarmReason::kNoProgress)) return WireError::kBadPayload;
  a.reason = AlarmReason(reason);
  a.paths.resize(path_count);
  for (uint16_t i = 0; i < path_count; ++i) {
    uint8_t len;
    if (!c.GetU8(&len)) return WireError::kBadPayload;
    if (len > CompactPath::kMaxSwitches) return WireError::kBadPayload;
    a.paths[i].resize(len);
    for (uint8_t j = 0; j < len; ++j) {
      if (!c.GetU32(&a.paths[i][j])) return WireError::kBadPayload;
    }
  }
  if (c.left != 0) return WireError::kBadPayload;
  return WireError::kOk;
}

WireError DecodeSubscribePayload(Cursor c, DecodedFrame* out) {
  uint8_t kind, pad;
  uint64_t k;
  if (!c.GetU64(&out->subscription_id) || !c.GetU8(&kind)) return WireError::kBadPayload;
  for (int i = 0; i < 3; ++i) {
    if (!c.GetU8(&pad)) return WireError::kBadPayload;
  }
  if (!ValidKind(kind)) return WireError::kBadPayload;
  out->spec.kind = StandingQuerySpec::Kind(kind);
  if (!c.GetU32(&out->spec.link.src) || !c.GetU32(&out->spec.link.dst) || !c.GetU64(&k) ||
      !c.GetI64(&out->spec.bin_width) || !c.GetI64(&out->spec.range.begin) ||
      !c.GetI64(&out->spec.range.end)) {
    return WireError::kBadPayload;
  }
  out->spec.k = size_t(k);
  if (c.left != 0) return WireError::kBadPayload;
  return WireError::kOk;
}

}  // namespace

const char* WireErrorName(WireError err) {
  switch (err) {
    case WireError::kOk:
      return "ok";
    case WireError::kTruncated:
      return "truncated";
    case WireError::kBadMagic:
      return "bad-magic";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kBadType:
      return "bad-type";
    case WireError::kOversized:
      return "oversized";
    case WireError::kBadChecksum:
      return "bad-checksum";
    case WireError::kBadPayload:
      return "bad-payload";
  }
  return "unknown";
}

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  // IEEE CRC-32, reflected, table-driven.  `seed` is a previous return
  // value, so checksums compose by continuation.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

namespace {

// Shared payload body of kQueryDelta and kSnapshot — the frame type
// alone distinguishes an increment from a full baseline.
size_t EncodeDeltaShapedFrame(FrameType type, const QueryDelta& delta,
                              std::vector<uint8_t>& out) {
  static Counter* frames = MetricsRegistry::Global().GetCounter("wire.frames_encoded");
  static Counter* bytes = MetricsRegistry::Global().GetCounter("wire.bytes_encoded");
  TraceScope span("wire.encode",
                  TraceKeys{delta.subscription_id, delta.host, delta.epoch});
  const size_t start = BeginFrame(out, type);
  // The 24-byte framing QueryDelta::SerializedSize charges: 8 + 4 + 8
  // padded to 24 — the pad carries the payload kind, so a decoder never
  // guesses the shape from content.
  PutU64(out, delta.subscription_id);
  PutU32(out, delta.host);
  PutU8(out, uint8_t(delta.kind));
  PutU8(out, 0);
  PutU8(out, 0);
  PutU8(out, 0);
  PutU64(out, delta.epoch);
  if (StandingQuerySpec::IsRecordKind(delta.kind)) {
    for (const RecordDeltaItem& item : delta.records.items) {
      PutU64(out, item.id);
      PutTuple(out, item.flow);
      PutU64(out, item.bytes);
      PutU32(out, item.pkts);
      PutU8(out, uint8_t(item.path.size()));
      for (SwitchId sw : item.path) {
        PutU32(out, sw);
      }
    }
  } else {
    for (const auto& [flow, flow_bytes] : delta.payload.items) {
      PutTuple(out, flow);
      PutU64(out, flow_bytes);
    }
  }
  const size_t total = FinishFrame(out, start);
  frames->Add();
  bytes->Add(total);
  return total;
}

}  // namespace

size_t EncodeQueryDeltaFrame(const QueryDelta& delta, std::vector<uint8_t>& out) {
  return EncodeDeltaShapedFrame(FrameType::kQueryDelta, delta, out);
}

size_t EncodeSnapshotFrame(const QueryDelta& delta, std::vector<uint8_t>& out) {
  return EncodeDeltaShapedFrame(FrameType::kSnapshot, delta, out);
}

size_t EncodeAlarmFrame(const Alarm& alarm, std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kAlarm);
  PutU32(out, alarm.host);
  PutTuple(out, alarm.flow);
  PutU8(out, uint8_t(alarm.reason));
  PutU16(out, uint16_t(alarm.paths.size()));
  PutI64(out, alarm.at);
  for (const Path& p : alarm.paths) {
    PutU8(out, uint8_t(p.size()));
    for (SwitchId sw : p) {
      PutU32(out, sw);
    }
  }
  return FinishFrame(out, start);
}

size_t AlarmWireBytes(const Alarm& alarm) {
  size_t n = kFrameHeaderBytes + 4 + 13 + 1 + 2 + 8;
  for (const Path& p : alarm.paths) {
    n += 1 + 4 * p.size();
  }
  return n;
}

size_t EncodeHelloFrame(HostId host, uint32_t pid, uint32_t incarnation,
                        std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kHello);
  PutU32(out, host);
  PutU32(out, pid);
  PutU32(out, incarnation);
  return FinishFrame(out, start);
}

size_t EncodeSubscribeFrame(uint64_t subscription_id, const StandingQuerySpec& spec,
                            std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kSubscribe);
  PutU64(out, subscription_id);
  PutU8(out, uint8_t(spec.kind));
  PutU8(out, 0);
  PutU8(out, 0);
  PutU8(out, 0);
  PutU32(out, spec.link.src);
  PutU32(out, spec.link.dst);
  PutU64(out, uint64_t(spec.k));
  PutI64(out, spec.bin_width);
  PutI64(out, spec.range.begin);
  PutI64(out, spec.range.end);
  return FinishFrame(out, start);
}

size_t EncodeEpochTickFrame(uint64_t token, std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kEpochTick);
  PutU64(out, token);
  return FinishFrame(out, start);
}

size_t EncodeAckFrame(HostId host, uint64_t token, std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kAck);
  PutU32(out, host);
  PutU32(out, 0);
  PutU64(out, token);
  return FinishFrame(out, start);
}

size_t EncodeIngestFrame(uint32_t count, uint32_t seed, uint32_t ip_space, uint32_t switch_space,
                         std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kIngest);
  PutU32(out, count);
  PutU32(out, seed);
  PutU32(out, ip_space);
  PutU32(out, switch_space);
  return FinishFrame(out, start);
}

size_t EncodeShutdownFrame(std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kShutdown);
  return FinishFrame(out, start);
}

size_t EncodeByeFrame(HostId host, std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kBye);
  PutU32(out, host);
  return FinishFrame(out, start);
}

size_t EncodeResyncRequestFrame(uint64_t subscription_id, std::vector<uint8_t>& out) {
  const size_t start = BeginFrame(out, FrameType::kResyncRequest);
  PutU64(out, subscription_id);
  return FinishFrame(out, start);
}

WireError DecodeFrame(const uint8_t* data, size_t size, DecodedFrame* out) {
  if (size < kFrameHeaderBytes) return WireError::kTruncated;
  Cursor h{data, kFrameHeaderBytes};
  uint32_t magic, payload_len, stored_crc;
  uint8_t version, type;
  uint16_t reserved;
  h.GetU32(&magic);
  h.GetU8(&version);
  h.GetU8(&type);
  h.GetU16(&reserved);
  h.GetU32(&payload_len);
  h.GetU32(&stored_crc);
  if (magic != kFrameMagic) return WireError::kBadMagic;
  if (version != kWireVersion) return WireError::kBadVersion;
  if (payload_len > kMaxFramePayload) return WireError::kOversized;
  if (kFrameHeaderBytes + payload_len > size) return WireError::kTruncated;
  if (kFrameHeaderBytes + payload_len < size) return WireError::kOversized;
  // Recompute over a zero-crc copy of the header, continued over the
  // payload in place.
  uint8_t hdr[kFrameHeaderBytes];
  std::memcpy(hdr, data, kFrameHeaderBytes);
  hdr[12] = hdr[13] = hdr[14] = hdr[15] = 0;
  uint32_t crc = Crc32(hdr, kFrameHeaderBytes);
  crc = Crc32(data + kFrameHeaderBytes, payload_len, crc);
  if (crc != stored_crc) return WireError::kBadChecksum;
  if (type < uint8_t(FrameType::kHello) || type > uint8_t(FrameType::kSnapshot)) {
    return WireError::kBadType;
  }
  *out = DecodedFrame{};
  out->type = FrameType(type);
  Cursor c{data + kFrameHeaderBytes, payload_len};
  switch (out->type) {
    case FrameType::kQueryDelta:
      return DecodeQueryDeltaPayload(c, out, /*allow_empty=*/false);
    case FrameType::kSnapshot: {
      const WireError err = DecodeQueryDeltaPayload(c, out, /*allow_empty=*/true);
      out->delta.snapshot = true;
      return err;
    }
    case FrameType::kAlarm:
      return DecodeAlarmPayload(c, out);
    case FrameType::kSubscribe:
      return DecodeSubscribePayload(c, out);
    case FrameType::kResyncRequest:
      if (!c.GetU64(&out->subscription_id) || c.left != 0) return WireError::kBadPayload;
      return WireError::kOk;
    case FrameType::kHello:
      if (!c.GetU32(&out->host) || !c.GetU32(&out->pid) || !c.GetU32(&out->incarnation) ||
          c.left != 0) {
        return WireError::kBadPayload;
      }
      return WireError::kOk;
    case FrameType::kEpochTick:
      if (!c.GetU64(&out->token) || c.left != 0) return WireError::kBadPayload;
      return WireError::kOk;
    case FrameType::kAck: {
      uint32_t pad;
      if (!c.GetU32(&out->host) || !c.GetU32(&pad) || !c.GetU64(&out->token) || c.left != 0) {
        return WireError::kBadPayload;
      }
      return WireError::kOk;
    }
    case FrameType::kIngest:
      if (!c.GetU32(&out->ingest_count) || !c.GetU32(&out->ingest_seed) ||
          !c.GetU32(&out->ingest_ip_space) || !c.GetU32(&out->ingest_switch_space) ||
          c.left != 0) {
        return WireError::kBadPayload;
      }
      return WireError::kOk;
    case FrameType::kShutdown:
      if (c.left != 0) return WireError::kBadPayload;
      return WireError::kOk;
    case FrameType::kBye:
      if (!c.GetU32(&out->host) || c.left != 0) return WireError::kBadPayload;
      return WireError::kOk;
  }
  return WireError::kBadType;
}

}  // namespace transport
}  // namespace pathdump
