// Deterministic transport fault injection.
//
// Installed in ShmAgentClient's send path (transport.cc), a FaultInjector
// perturbs DATA-PLANE frames (kQueryDelta / kAlarm) before they reach the
// ring, exercising exactly the recovery machinery the crash/resync
// protocol exists for:
//
//   drop    — the frame is not pushed but its ring sequence number IS
//             consumed, so the consumer sees a seq gap (the signature of
//             real upstream loss) and the hub triggers a resync.
//   corrupt — one payload bit is flipped post-encode; the frame CRC
//             catches it at the reactor (bad_checksum) with no seq gap,
//             exercising the manager's epoch-gap resync threshold.
//   delay   — the frame is stashed and released after the NEXT data
//             frame, producing genuine reordering (and, at stream end,
//             lateness past a snapshot — a pre-snapshot straggler).
//   dup     — the frame is pushed twice; the second fold is a duplicate
//             epoch the manager counts orphaned.
//
// Faults never touch control/handshake frames (Hello/Ack/Bye) or
// kSnapshot recovery traffic: the injector models a lossy data path, and
// exempting the recovery channel keeps every chaos run convergent — a
// dropped snapshot would wedge a stream with no further signal to
// re-trigger it.  Each fault increments counts(), which the owning
// ShmAgentClient reports to the metrics registry as fault.injected_{drop,
// corrupt,delay,dup}; the seeded PCG32 stream makes a run exactly
// reproducible.
//
// Configuration: explicit (tests) or from the environment (agent_worker):
//   PATHDUMP_FAULT_SEED     u64 seed (default 1)
//   PATHDUMP_FAULT_DROP     per-10,000 data frames dropped
//   PATHDUMP_FAULT_CORRUPT  per-10,000 corrupted
//   PATHDUMP_FAULT_DELAY    per-10,000 delayed one frame
//   PATHDUMP_FAULT_DUP      per-10,000 duplicated
// Rates are cumulative thresholds over one draw per frame, so a frame
// suffers at most one fault and the rates must sum to <= 10,000.

#ifndef PATHDUMP_SRC_TRANSPORT_FAULT_INJECTOR_H_
#define PATHDUMP_SRC_TRANSPORT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace pathdump {
namespace transport {

struct FaultInjectorConfig {
  uint64_t seed = 1;
  // Per-10,000 rates, mutually exclusive per frame (one draw decides).
  uint32_t drop_per_10k = 0;
  uint32_t corrupt_per_10k = 0;
  uint32_t delay_per_10k = 0;
  uint32_t dup_per_10k = 0;

  bool any() const {
    return drop_per_10k + corrupt_per_10k + delay_per_10k + dup_per_10k > 0;
  }

  // Reads the PATHDUMP_FAULT_* variables; all-zero when unset.
  static FaultInjectorConfig FromEnv();
};

class FaultInjector {
 public:
  enum class Action : uint8_t { kNone = 0, kDrop, kCorrupt, kDelay, kDup };

  explicit FaultInjector(const FaultInjectorConfig& config);

  // One draw for one data-plane frame.  Counts the chosen fault in
  // counts().
  Action Next();

  // Flips one pseudo-random bit of the frame's payload (never the first
  // 16 header bytes' magic word — any payload flip already fails the
  // CRC, and keeping the magic intact lands the error in the
  // bad_checksum category deterministically).
  void Corrupt(std::vector<uint8_t>& frame);

  struct Counts {
    uint64_t dropped = 0;
    uint64_t corrupted = 0;
    uint64_t delayed = 0;
    uint64_t duplicated = 0;
    uint64_t total() const { return dropped + corrupted + delayed + duplicated; }
  };
  const Counts& counts() const { return counts_; }

 private:
  const FaultInjectorConfig config_;
  Rng rng_;
  Counts counts_;
};

}  // namespace transport
}  // namespace pathdump

#endif  // PATHDUMP_SRC_TRANSPORT_FAULT_INJECTOR_H_
