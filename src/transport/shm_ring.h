// Single-producer single-consumer message ring over POSIX shared memory.
//
// One ring is one direction of one agent ↔ controller channel: the agent
// process produces encoded frames into the data ring, the controller's
// reactor consumes them (and the reverse for the command ring).  The
// design is the classic fixed-slot sequence ring:
//
//   [RingControl | slot 0 | slot 1 | ... | slot N-1]      (N power of 2)
//
//   head — slots produced (monotonic u64, producer-written, release)
//   tail — slots consumed (monotonic u64, consumer-written, release)
//
// A message occupies ceil((16 + len) / slot_bytes) *consecutive* slots:
// a 16-byte message header {seq u64, len u32, reserved u32} followed by
// the payload, copied contiguously through the slot array (slots are
// contiguous in memory, so only the N-1 → 0 wrap splits a copy in two).
// The producer copies the whole message first and publishes it with one
// release store of head — a producer killed mid-copy (SIGKILL chaos in
// tests/transport_multiproc_test.cc) leaves head unadvanced, so the
// consumer can never observe a torn message; whatever was fully
// published before death remains drainable.
//
// Sequence protocol: every message carries the producer's message
// counter (RingControl::next_seq, also visible to the consumer for gap
// accounting).  The consumer tracks the expected value; a jump means
// messages were lost somewhere upstream (fault injection uses
// set_next_seq; a crashed-and-restarted producer would jump too) and is
// counted, never deadlocked on.
//
// Wakeup: producers block on ring-full and consumers on ring-empty via
// doorbell words — futex wait/wake on Linux (process-shared, bounded
// waits so a lost wake costs one timeout, never a hang), nanosleep
// polling elsewhere.  All waits take explicit timeouts; nothing in this
// file can block forever on a dead peer.
//
// Memory note: the control block uses std::atomic over mmap'd MAP_SHARED
// memory — lock-free at these widths on every supported target (asserted
// at creation), the standard C++ idiom for process-shared rings.

#ifndef PATHDUMP_SRC_TRANSPORT_SHM_RING_H_
#define PATHDUMP_SRC_TRANSPORT_SHM_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pathdump {
namespace transport {

inline constexpr uint32_t kRingMagic = 0x50445251u;  // 'PDRQ'
inline constexpr size_t kMessageHeaderBytes = 16;

// Shared-memory resident control block.  Cache-line separation keeps the
// producer's head store from false-sharing the consumer's tail store.
struct RingControl {
  uint32_t magic = 0;
  uint32_t slot_bytes = 0;
  uint32_t slot_count = 0;  // power of two
  uint32_t reserved = 0;
  alignas(64) std::atomic<uint64_t> head{0};      // slots produced
  alignas(64) std::atomic<uint64_t> tail{0};      // slots consumed
  alignas(64) std::atomic<uint64_t> next_seq{0};  // next message seq to stamp
  std::atomic<uint64_t> blocked_pushes{0};        // producer waited on full
  std::atomic<uint32_t> closed{0};                // producer's graceful close
  alignas(64) std::atomic<uint32_t> data_doorbell{0};   // bumped on push
  alignas(64) std::atomic<uint32_t> space_doorbell{0};  // bumped on pop
};

// A standalone value with one writer thread and any number of reader
// threads: a relaxed atomic that still copies like a plain value, so a
// class holding one keeps its default copy operations.  Copies are made
// before the value is shared with other threads.
template <typename T>
class RelaxedValue {
 public:
  RelaxedValue() = default;
  RelaxedValue(const RelaxedValue& other) : v_(other.load()) {}
  RelaxedValue& operator=(const RelaxedValue& other) {
    store(other.load());
    return *this;
  }
  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<T> v_{};
};

// Non-owning producer/consumer view over a ring in (shared) memory.
// Exactly one producer and one consumer may use a given ring at a time;
// they may be different processes.
class ShmSpscRing {
 public:

  // Bytes a ring with this geometry occupies (control block + slots).
  static size_t BytesFor(size_t slot_bytes, size_t slot_count);
  // Initializes a fresh ring in caller-provided memory (zeroed or not).
  static ShmSpscRing CreateAt(void* mem, size_t slot_bytes, size_t slot_count);
  // Attaches to an already-initialized ring; invalid view on bad magic.
  static ShmSpscRing ViewAt(void* mem);

  bool valid() const { return ctl_ != nullptr; }
  size_t slot_bytes() const { return ctl_->slot_bytes; }
  size_t slot_count() const { return ctl_->slot_count; }
  // Largest payload a single message may carry on this ring.
  size_t max_message_bytes() const {
    return size_t(ctl_->slot_bytes) * (ctl_->slot_count - 1) - kMessageHeaderBytes;
  }

  // --- Producer side ---

  // Non-blocking: false if the message does not fit right now (ring
  // full) or can never fit (larger than the ring).
  bool TryPush(const uint8_t* data, size_t len);
  // Blocking push with a deadline: waits for space (futex/poll) up to
  // `timeout_us`; false on timeout or oversize.  This is the
  // backpressure edge — a stalled controller stalls the agent's epoch
  // tick here rather than dropping a delta.
  bool Push(const uint8_t* data, size_t len, int64_t timeout_us);
  // Marks the producer side closed (consumer drains what remains).
  void CloseProducer() { ctl_->closed.store(1, std::memory_order_release); }
  // Fault injection for tests: forge the next message sequence number,
  // simulating upstream loss for the consumer's gap accounting.
  void set_next_seq(uint64_t seq) { ctl_->next_seq.store(seq, std::memory_order_relaxed); }
  // Producer-side view of the next sequence to stamp.  Paired with
  // set_next_seq this is how FaultInjector "drops" a frame: consuming
  // the number without pushing makes the loss visible to the consumer's
  // gap accounting, exactly like real upstream loss.
  uint64_t next_seq() const { return ctl_->next_seq.load(std::memory_order_relaxed); }

  // --- Consumer side ---

  // Pops one whole message into `out` (replaced).  Returns false when
  // the ring is empty.  `seq` (optional) receives the message's stamped
  // sequence number.  A structurally corrupt message header (impossible
  // length) poisons the ring: Pop returns false forever after and
  // corrupt() turns true — the reactor treats that peer as lost rather
  // than chasing a desynchronized tail.
  bool Pop(std::vector<uint8_t>& out, uint64_t* seq = nullptr);
  // Blocks (futex/poll) until a message is available, the producer
  // closed, or the timeout elapses.  True if data is available.
  bool WaitForData(int64_t timeout_us);

  bool empty() const {
    return ctl_->tail.load(std::memory_order_acquire) ==
           ctl_->head.load(std::memory_order_acquire);
  }
  bool closed() const { return ctl_->closed.load(std::memory_order_acquire) != 0; }
  // Safe from any thread (see seq_gaps_).
  bool corrupt() const { return corrupt_.load(); }

  // Consumer-side sequence accounting (valid on the consuming view).
  uint64_t messages_popped() const { return popped_; }
  // Messages missing, cumulative.  Safe from any thread.
  uint64_t seq_gaps() const { return seq_gaps_.load(); }
  uint64_t blocked_pushes() const { return ctl_->blocked_pushes.load(std::memory_order_relaxed); }
  // Messages published but not yet consumed (snapshot).
  uint64_t backlog_slots() const {
    return ctl_->head.load(std::memory_order_acquire) -
           ctl_->tail.load(std::memory_order_acquire);
  }

 private:
  RingControl* ctl_ = nullptr;
  uint8_t* slots_ = nullptr;

  // Copies len bytes to/from slot space starting at slot index
  // (pos % slot_count), splitting at the physical wrap.
  void CopyIn(uint64_t slot_pos, size_t offset, const uint8_t* src, size_t len);
  void CopyOut(uint64_t slot_pos, size_t offset, uint8_t* dst, size_t len) const;

  // Consumer-local state (single consumer; no sharing) ...
  uint64_t expected_seq_ = 0;
  uint64_t popped_ = 0;
  bool seq_primed_ = false;
  // ... except these two, which only the consumer writes (in Pop) but
  // any thread may read (the hub's stats(), RestartPeer and Flush run on
  // API threads while the reactor pops): relaxed atomics, since each is
  // a standalone counter or flag that orders nothing else.
  RelaxedValue<uint64_t> seq_gaps_;
  RelaxedValue<bool> corrupt_;
};

// A named POSIX shared-memory segment holding one agent's channel pair:
//
//   [SegmentHeader | data ring (agent → controller) | cmd ring (→ agent)]
//
// The creator (controller side) shm_opens with O_CREAT|O_EXCL, sizes and
// initializes the rings, and unlinks the name in its destructor (or
// Unlink()), so a normally-exiting process leaves no /dev/shm entry even
// when tests fail; openers just map.  Names follow shm_open rules
// ("/pathdump.<pid>.<host>" in practice — pid-scoped so a crashed
// earlier run can never collide with a new one).
struct SegmentHeader {
  uint32_t magic = 0;  // 'PDSG'
  uint32_t version = 0;
  uint64_t total_bytes = 0;
  uint64_t data_ring_offset = 0;
  uint64_t cmd_ring_offset = 0;
  std::atomic<uint32_t> agent_pid{0};  // set by the agent's Hello path
  std::atomic<uint32_t> controller_pid{0};
};

inline constexpr uint32_t kSegmentMagic = 0x50445347u;  // 'PDSG'

class ShmSegment {
 public:
  struct Geometry {
    size_t data_slot_bytes = 256;
    size_t data_slot_count = 1 << 14;  // 4 MiB of delta headroom
    size_t cmd_slot_bytes = 256;
    size_t cmd_slot_count = 1 << 8;
  };

  // Creates (exclusively) and initializes the segment; null on failure.
  static std::unique_ptr<ShmSegment> Create(const std::string& name, const Geometry& geo);
  // Maps an existing segment; null if absent or malformed.
  static std::unique_ptr<ShmSegment> Open(const std::string& name);
  ~ShmSegment();

  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  const std::string& name() const { return name_; }
  SegmentHeader* header() { return header_; }
  ShmSpscRing& data_ring() { return data_ring_; }
  ShmSpscRing& cmd_ring() { return cmd_ring_; }

  // Removes the name from /dev/shm (idempotent; mappings stay valid).
  void Unlink();

 private:
  ShmSegment() = default;

  std::string name_;
  void* mem_ = nullptr;
  size_t size_ = 0;
  bool owner_ = false;
  SegmentHeader* header_ = nullptr;
  ShmSpscRing data_ring_;
  ShmSpscRing cmd_ring_;
};

// Best-effort sweep: unlinks every /dev/shm entry whose name starts with
// `prefix` (no leading slash in the directory listing) and returns how
// many were unlinked.  Used by test teardown so no segment outlives a
// failed or crashed suite, and by TransportHub startup to reclaim
// segments a SIGKILLed fleet left behind.  With `only_dead_owners` set,
// an entry is unlinked only when it is a valid PathDump segment whose
// recorded controller pid is provably gone (ESRCH) — the safe mode for
// startup sweeps that must not touch a concurrently-running suite.
size_t CleanupShmByPrefix(const std::string& prefix, bool only_dead_owners = false);

}  // namespace transport
}  // namespace pathdump

#endif  // PATHDUMP_SRC_TRANSPORT_SHM_RING_H_
