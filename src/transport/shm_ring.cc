#include "src/transport/shm_ring.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <ctime>
#endif

namespace pathdump {
namespace transport {

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "process-shared ring counters must be lock-free");
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "process-shared doorbells must be lock-free");

namespace {

constexpr size_t kCacheLine = 64;

size_t AlignUp(size_t n) { return (n + kCacheLine - 1) & ~(kCacheLine - 1); }

// Waits until `word` changes away from `expected` or `timeout_us`
// elapses.  Process-shared futex on Linux (the wake side bumps the word
// *before* FUTEX_WAKE, so a concurrent bump makes FUTEX_WAIT return
// EAGAIN immediately — no lost-wake window); bounded nanosleep poll
// elsewhere.
void WaitOnWord(std::atomic<uint32_t>& word, uint32_t expected, int64_t timeout_us) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = timeout_us / 1000000;
  ts.tv_nsec = (timeout_us % 1000000) * 1000;
  // Not FUTEX_PRIVATE: the word lives in MAP_SHARED memory crossing
  // process boundaries.
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAIT, expected, &ts, nullptr, 0);
#else
  (void)word;
  (void)expected;
  timespec ts;
  const int64_t nap_us = timeout_us < 200 ? timeout_us : 200;
  ts.tv_sec = 0;
  ts.tv_nsec = nap_us * 1000;
  nanosleep(&ts, nullptr);
#endif
}

void WakeWord(std::atomic<uint32_t>& word) {
  word.fetch_add(1, std::memory_order_release);
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAKE, INT32_MAX, nullptr, nullptr,
          0);
#endif
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

size_t ShmSpscRing::BytesFor(size_t slot_bytes, size_t slot_count) {
  return AlignUp(sizeof(RingControl)) + slot_bytes * slot_count;
}

ShmSpscRing ShmSpscRing::CreateAt(void* mem, size_t slot_bytes, size_t slot_count) {
  ShmSpscRing ring;
  auto* ctl = new (mem) RingControl{};
  ctl->slot_bytes = uint32_t(slot_bytes);
  ctl->slot_count = uint32_t(slot_count);
  ring.ctl_ = ctl;
  ring.slots_ = static_cast<uint8_t*>(mem) + AlignUp(sizeof(RingControl));
  // Publish the magic last: a concurrent ViewAt only attaches once the
  // geometry above is in place.
  std::atomic_thread_fence(std::memory_order_release);
  ctl->magic = kRingMagic;
  return ring;
}

ShmSpscRing ShmSpscRing::ViewAt(void* mem) {
  ShmSpscRing ring;
  auto* ctl = static_cast<RingControl*>(mem);
  if (ctl->magic != kRingMagic || ctl->slot_count == 0 ||
      (ctl->slot_count & (ctl->slot_count - 1)) != 0) {
    return ring;  // invalid
  }
  ring.ctl_ = ctl;
  ring.slots_ = static_cast<uint8_t*>(mem) + AlignUp(sizeof(RingControl));
  return ring;
}

void ShmSpscRing::CopyIn(uint64_t slot_pos, size_t offset, const uint8_t* src, size_t len) {
  const size_t cap = size_t(ctl_->slot_bytes) * ctl_->slot_count;
  const size_t at = (size_t(slot_pos & (ctl_->slot_count - 1)) * ctl_->slot_bytes + offset) % cap;
  const size_t first = len < cap - at ? len : cap - at;
  std::memcpy(slots_ + at, src, first);
  std::memcpy(slots_, src + first, len - first);
}

void ShmSpscRing::CopyOut(uint64_t slot_pos, size_t offset, uint8_t* dst, size_t len) const {
  const size_t cap = size_t(ctl_->slot_bytes) * ctl_->slot_count;
  const size_t at = (size_t(slot_pos & (ctl_->slot_count - 1)) * ctl_->slot_bytes + offset) % cap;
  const size_t first = len < cap - at ? len : cap - at;
  std::memcpy(dst, slots_ + at, first);
  if (len > first) {
    std::memcpy(dst + first, slots_, len - first);
  }
}

bool ShmSpscRing::TryPush(const uint8_t* data, size_t len) { return Push(data, len, 0); }

bool ShmSpscRing::Push(const uint8_t* data, size_t len, int64_t timeout_us) {
  if (len > max_message_bytes()) {
    return false;
  }
  const uint64_t k =
      (kMessageHeaderBytes + len + ctl_->slot_bytes - 1) / ctl_->slot_bytes;  // slots needed
  const uint64_t head = ctl_->head.load(std::memory_order_relaxed);  // producer-owned
  const int64_t deadline = NowUs() + timeout_us;
  bool counted_block = false;
  for (;;) {
    const uint32_t doorbell = ctl_->space_doorbell.load(std::memory_order_acquire);
    const uint64_t used = head - ctl_->tail.load(std::memory_order_acquire);
    if (ctl_->slot_count - used >= k) {
      break;
    }
    const int64_t left = deadline - NowUs();
    if (left <= 0) {
      return false;  // TryPush, or a blocking push that timed out
    }
    if (!counted_block) {
      ctl_->blocked_pushes.fetch_add(1, std::memory_order_relaxed);
      counted_block = true;
    }
    WaitOnWord(ctl_->space_doorbell, doorbell, left < 1000 ? left : 1000);
  }
  const uint64_t seq = ctl_->next_seq.load(std::memory_order_relaxed);
  uint8_t hdr[kMessageHeaderBytes];
  std::memcpy(hdr, &seq, 8);
  const uint32_t len32 = uint32_t(len);
  std::memcpy(hdr + 8, &len32, 4);
  std::memset(hdr + 12, 0, 4);
  CopyIn(head, 0, hdr, kMessageHeaderBytes);
  CopyIn(head, kMessageHeaderBytes, data, len);
  ctl_->next_seq.store(seq + 1, std::memory_order_relaxed);
  // The one publishing store: everything copied above happens-before a
  // consumer that observes the new head.
  ctl_->head.store(head + k, std::memory_order_release);
  WakeWord(ctl_->data_doorbell);
  return true;
}

bool ShmSpscRing::Pop(std::vector<uint8_t>& out, uint64_t* seq_out) {
  if (corrupt()) {
    return false;
  }
  const uint64_t tail = ctl_->tail.load(std::memory_order_relaxed);  // consumer-owned
  const uint64_t head = ctl_->head.load(std::memory_order_acquire);
  if (head == tail) {
    return false;
  }
  uint8_t hdr[kMessageHeaderBytes];
  CopyOut(tail, 0, hdr, kMessageHeaderBytes);
  uint64_t seq;
  uint32_t len;
  std::memcpy(&seq, hdr, 8);
  std::memcpy(&len, hdr + 8, 4);
  const uint64_t k = (kMessageHeaderBytes + uint64_t(len) + ctl_->slot_bytes - 1) /
                     ctl_->slot_bytes;
  if (len > max_message_bytes() || k > head - tail) {
    // A length no valid producer can have written: the ring is
    // desynchronized (shm corruption).  Poison rather than guess.
    corrupt_.store(true);
    return false;
  }
  out.resize(len);
  CopyOut(tail, kMessageHeaderBytes, out.data(), len);
  ctl_->tail.store(tail + k, std::memory_order_release);
  WakeWord(ctl_->space_doorbell);
  if (seq_primed_ && seq > expected_seq_) {
    // Single writer: a load and a store, no read-modify-write needed.
    seq_gaps_.store(seq_gaps() + seq - expected_seq_);
  }
  expected_seq_ = seq + 1;
  seq_primed_ = true;
  ++popped_;
  if (seq_out != nullptr) {
    *seq_out = seq;
  }
  return true;
}

bool ShmSpscRing::WaitForData(int64_t timeout_us) {
  const int64_t deadline = NowUs() + timeout_us;
  for (;;) {
    const uint32_t doorbell = ctl_->data_doorbell.load(std::memory_order_acquire);
    if (!empty()) {
      return true;
    }
    if (closed()) {
      return false;
    }
    const int64_t left = deadline - NowUs();
    if (left <= 0) {
      return false;
    }
    WaitOnWord(ctl_->data_doorbell, doorbell, left < 1000 ? left : 1000);
  }
}

// --- ShmSegment ---

std::unique_ptr<ShmSegment> ShmSegment::Create(const std::string& name, const Geometry& geo) {
  const size_t header_bytes = AlignUp(sizeof(SegmentHeader));
  const size_t data_bytes = ShmSpscRing::BytesFor(geo.data_slot_bytes, geo.data_slot_count);
  const size_t total = header_bytes + AlignUp(data_bytes) +
                       ShmSpscRing::BytesFor(geo.cmd_slot_bytes, geo.cmd_slot_count);
  int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    return nullptr;
  }
  if (ftruncate(fd, off_t(total)) != 0) {
    close(fd);
    shm_unlink(name.c_str());
    return nullptr;
  }
  void* mem = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mem == MAP_FAILED) {
    shm_unlink(name.c_str());
    return nullptr;
  }
  auto seg = std::unique_ptr<ShmSegment>(new ShmSegment());
  seg->name_ = name;
  seg->mem_ = mem;
  seg->size_ = total;
  seg->owner_ = true;
  auto* header = new (mem) SegmentHeader{};
  header->version = 1;
  header->total_bytes = total;
  header->data_ring_offset = header_bytes;
  header->cmd_ring_offset = header_bytes + AlignUp(data_bytes);
  header->controller_pid.store(uint32_t(getpid()), std::memory_order_relaxed);
  seg->header_ = header;
  seg->data_ring_ = ShmSpscRing::CreateAt(static_cast<uint8_t*>(mem) + header->data_ring_offset,
                                          geo.data_slot_bytes, geo.data_slot_count);
  seg->cmd_ring_ = ShmSpscRing::CreateAt(static_cast<uint8_t*>(mem) + header->cmd_ring_offset,
                                         geo.cmd_slot_bytes, geo.cmd_slot_count);
  std::atomic_thread_fence(std::memory_order_release);
  header->magic = kSegmentMagic;
  return seg;
}

std::unique_ptr<ShmSegment> ShmSegment::Open(const std::string& name) {
  int fd = shm_open(name.c_str(), O_RDWR, 0);
  if (fd < 0) {
    return nullptr;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(SegmentHeader))) {
    close(fd);
    return nullptr;
  }
  const size_t total = size_t(st.st_size);
  void* mem = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mem == MAP_FAILED) {
    return nullptr;
  }
  auto* header = static_cast<SegmentHeader*>(mem);
  if (header->magic != kSegmentMagic || header->total_bytes != total ||
      header->data_ring_offset >= total || header->cmd_ring_offset >= total) {
    munmap(mem, total);
    return nullptr;
  }
  auto seg = std::unique_ptr<ShmSegment>(new ShmSegment());
  seg->name_ = name;
  seg->mem_ = mem;
  seg->size_ = total;
  seg->owner_ = false;
  seg->header_ = header;
  seg->data_ring_ = ShmSpscRing::ViewAt(static_cast<uint8_t*>(mem) + header->data_ring_offset);
  seg->cmd_ring_ = ShmSpscRing::ViewAt(static_cast<uint8_t*>(mem) + header->cmd_ring_offset);
  if (!seg->data_ring_.valid() || !seg->cmd_ring_.valid()) {
    return nullptr;  // destructor munmaps
  }
  return seg;
}

ShmSegment::~ShmSegment() {
  if (owner_) {
    Unlink();
  }
  if (mem_ != nullptr) {
    munmap(mem_, size_);
  }
}

void ShmSegment::Unlink() {
  if (owner_ && !name_.empty()) {
    shm_unlink(name_.c_str());
    owner_ = false;
  }
}

namespace {

// True when `name` ("/..." form) is a valid PathDump segment whose
// recorded controller pid no longer exists.  Unknown or mid-creation
// segments (bad magic) are conservatively treated as live.
bool SegmentOwnerDead(const std::string& name) {
  int fd = shm_open(name.c_str(), O_RDONLY, 0);
  if (fd < 0) {
    return false;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(SegmentHeader))) {
    close(fd);
    return false;
  }
  // Map just the header page — enough for magic + controller_pid.
  void* mem = mmap(nullptr, sizeof(SegmentHeader), PROT_READ, MAP_SHARED, fd, 0);
  close(fd);
  if (mem == MAP_FAILED) {
    return false;
  }
  const auto* header = static_cast<const SegmentHeader*>(mem);
  bool dead = false;
  if (header->magic == kSegmentMagic) {
    const uint32_t pid = header->controller_pid.load(std::memory_order_acquire);
    dead = pid != 0 && kill(pid_t(pid), 0) != 0 && errno == ESRCH;
  }
  munmap(mem, sizeof(SegmentHeader));
  return dead;
}

}  // namespace

size_t CleanupShmByPrefix(const std::string& prefix, bool only_dead_owners) {
  // /dev/shm entries drop shm_open's leading slash.
  const std::string bare = prefix.empty() || prefix[0] != '/' ? prefix : prefix.substr(1);
  DIR* dir = opendir("/dev/shm");
  if (dir == nullptr) {
    return 0;
  }
  size_t reclaimed = 0;
  while (dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.rfind(bare, 0) != 0) {
      continue;
    }
    const std::string full = "/" + name;
    if (only_dead_owners && !SegmentOwnerDead(full)) {
      continue;
    }
    if (shm_unlink(full.c_str()) == 0) {
      ++reclaimed;
    }
  }
  closedir(dir);
  return reclaimed;
}

}  // namespace transport
}  // namespace pathdump
