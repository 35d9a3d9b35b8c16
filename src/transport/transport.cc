#include "src/transport/transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <utility>

#include <unistd.h>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/controller/controller.h"
#include "src/controller/subscription.h"
#include "src/workload/synthetic_records.h"

namespace pathdump {
namespace transport {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NapUs(int64_t us) {
  timespec ts;
  ts.tv_sec = us / 1000000;
  ts.tv_nsec = (us % 1000000) * 1000;
  nanosleep(&ts, nullptr);
}

bool PidAlive(uint32_t pid) {
  if (pid == 0) {
    return true;  // unknown yet — assume alive until Hello names it
  }
  return kill(pid_t(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

const char* PeerStateName(PeerState s) {
  switch (s) {
    case PeerState::kConnecting:
      return "connecting";
    case PeerState::kLive:
      return "live";
    case PeerState::kDead:
      return "dead";
    case PeerState::kRejoining:
      return "rejoining";
    case PeerState::kGaveUp:
      return "gave-up";
  }
  return "?";
}

TransportHub::TransportHub(Controller* controller, SubscriptionManager* manager,
                           TransportOptions options)
    : controller_(controller),
      manager_(manager),
      options_(std::move(options)),
      prefix_(options_.shm_prefix.empty()
                  ? "/pathdump." + std::to_string(getpid()) + "."
                  : options_.shm_prefix),
      alarm_sink_(controller->MakeAlarmSink()),
      metrics_([this](MetricsSnapshot& snap) {
        const TransportStats s = stats();
        snap.counters["transport.frames"] += s.frames;
        snap.counters["transport.bytes"] += s.bytes;
        snap.counters["transport.deltas"] += s.deltas;
        snap.counters["transport.alarms"] += s.alarms;
        snap.counters["transport.acks"] += s.acks;
        snap.counters["transport.snapshots"] += s.snapshots;
        snap.counters["transport.decode_errors"] += s.decode_errors;
        snap.counters["transport.peers_rejoined"] += s.peers_rejoined;
        snap.counters["transport.peers_gave_up"] += s.peers_gave_up;
        snap.counters["transport.resync_requests"] += s.resync_requests;
        snap.counters["transport.stale_shm_reclaimed"] += s.stale_shm_reclaimed;
        snap.gauges["transport.peers_dead"] += int64_t(s.peers_dead);
      }) {
  if (options_.backend == TransportOptions::Backend::kSharedMemory) {
    if (options_.sweep_stale_shm_on_start) {
      // Reclaim segments a SIGKILLed earlier fleet left in /dev/shm.
      // Dead-owner mode only: a parallel suite's live segments (their
      // controller pid answers kill(pid, 0)) are never touched.
      const size_t n = CleanupShmByPrefix("/pathdump.", /*only_dead_owners=*/true);
      if (n > 0) {
        stale_shm_reclaimed_.store(n, std::memory_order_release);
        std::fprintf(stderr, "[transport] startup sweep reclaimed %zu stale shm segment(s)\n",
                     n);
      }
    }
    // Gap-threshold staleness self-heals: when the manager declares a
    // stream stale it asks us to ship the ResyncRequest.
    manager_->SetResyncRequester(
        [this](uint64_t id, HostId host) { RequestResync(id, host); });
    reactor_ = std::thread([this] { ReactorLoop(); });
  }
}

TransportHub::~TransportHub() {
  if (options_.backend == TransportOptions::Backend::kSharedMemory) {
    // Unhook the requester, then drain any fold batch that already
    // copied it — after Flush returns no callback can still reach us.
    manager_->SetResyncRequester(nullptr);
    manager_->Flush();
  }
  stop_.store(true, std::memory_order_release);
  if (reactor_.joinable()) {
    reactor_.join();
  }
  // Segments unlink themselves (owner destructor), but be explicit so a
  // throwing member destructor can never leak a /dev/shm entry.
  for (Peer& peer : peers_) {
    if (peer.segment != nullptr) {
      peer.segment->Unlink();
    }
  }
}

std::string TransportHub::AddShmPeer(HostId host) {
  if (options_.backend != TransportOptions::Backend::kSharedMemory) {
    return "";
  }
  const std::string name = prefix_ + std::to_string(host);
  auto segment = ShmSegment::Create(name, options_.geometry);
  if (segment == nullptr) {
    return "";
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  peers_.emplace_back();
  Peer& peer = peers_.back();
  peer.host = host;
  peer.segment = std::move(segment);
  return name;
}

const TransportHub::Peer* TransportHub::FindPeer(HostId host) const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (const Peer& peer : peers_) {
    if (peer.host == host) {
      return &peer;  // deque: address stable across growth
    }
  }
  return nullptr;
}

std::shared_ptr<ShmSegment> TransportHub::SegmentOf(const Peer& peer) const {
  std::lock_guard<std::mutex> lock(peers_mu_);
  return peer.segment;
}

void TransportHub::AddLocalAgent(EdgeAgent* agent) {
  controller_->RegisterAgent(agent);
  std::lock_guard<std::mutex> lock(peers_mu_);
  peers_.emplace_back();
  Peer& peer = peers_.back();
  peer.host = agent->host();
  peer.hello.store(true, std::memory_order_release);
}

std::vector<HostId> TransportHub::hosts() const {
  std::vector<HostId> out;
  std::lock_guard<std::mutex> lock(peers_mu_);
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    out.push_back(peer.host);
  }
  return out;
}

std::vector<TransportHub::Peer*> TransportHub::SnapshotPeers() const {
  std::vector<Peer*> out;
  std::lock_guard<std::mutex> lock(peers_mu_);
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    out.push_back(const_cast<Peer*>(&peer));
  }
  return out;
}

bool TransportHub::PushCommand(ShmSegment& segment, const std::vector<uint8_t>& frame) {
  // The cmd ring is SPSC; the reactor (rejoin/resync sends) and API
  // threads (broadcasts) share the producer side, so serialize here.  A
  // dead-but-undetected peer never pops its command ring; the bounded
  // push keeps callers from hanging on it.
  std::lock_guard<std::mutex> lock(cmd_mu_);
  return segment.cmd_ring().Push(frame.data(), frame.size(), options_.push_timeout_us);
}

void TransportHub::BroadcastCommand(const std::vector<uint8_t>& frame) {
  for (Peer* peer : SnapshotPeers()) {
    if (peer->dead.load(std::memory_order_acquire) ||
        peer->bye.load(std::memory_order_acquire)) {
      continue;
    }
    auto segment = SegmentOf(*peer);
    if (segment == nullptr) {
      continue;
    }
    PushCommand(*segment, frame);
  }
}

uint64_t TransportHub::Subscribe(const std::vector<HostId>& hosts,
                                 const StandingQuerySpec& spec) {
  if (options_.backend == TransportOptions::Backend::kInProcess) {
    return manager_->Subscribe(hosts, spec);
  }
  const uint64_t id = manager_->SubscribeRemote(hosts, spec);
  {
    // Remembered so a rejoining peer can be re-subscribed and resynced.
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_.push_back(SubRecord{id, spec, hosts});
  }
  std::vector<uint8_t> frame;
  EncodeSubscribeFrame(id, spec, frame);
  BroadcastCommand(frame);
  return id;
}

uint64_t TransportHub::SendEpochTick() {
  const uint64_t token = next_token_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (options_.backend == TransportOptions::Backend::kInProcess) {
    manager_->TickEpoch();
    return token;  // synchronous: already "acked"
  }
  std::vector<uint8_t> frame;
  EncodeEpochTickFrame(token, frame);
  BroadcastCommand(frame);
  return token;
}

void TransportHub::SendIngest(uint32_t count, uint32_t seed, uint32_t ip_space,
                              uint32_t switch_space) {
  if (options_.backend == TransportOptions::Backend::kInProcess) {
    return;
  }
  std::vector<uint8_t> frame;
  EncodeIngestFrame(count, seed, ip_space, switch_space, frame);
  BroadcastCommand(frame);
}

void TransportHub::SendShutdown() {
  if (options_.backend == TransportOptions::Backend::kInProcess) {
    return;
  }
  std::vector<uint8_t> frame;
  EncodeShutdownFrame(frame);
  BroadcastCommand(frame);
}

bool TransportHub::WaitForHellos(int64_t timeout_us) {
  const int64_t deadline = NowUs() + timeout_us;
  for (;;) {
    bool all = true;
    for (Peer* peer : SnapshotPeers()) {
      if (!peer->hello.load(std::memory_order_acquire) &&
          !peer->dead.load(std::memory_order_acquire)) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
    if (NowUs() >= deadline) {
      return false;
    }
    NapUs(500);
  }
}

bool TransportHub::WaitForAcks(uint64_t token, int64_t timeout_us) {
  if (options_.backend == TransportOptions::Backend::kInProcess) {
    return true;
  }
  const int64_t deadline = NowUs() + timeout_us;
  for (;;) {
    bool all = true;
    for (Peer* peer : SnapshotPeers()) {
      if (peer->dead.load(std::memory_order_acquire) ||
          peer->bye.load(std::memory_order_acquire)) {
        continue;  // excused — a killed agent never wedges the epoch
      }
      if (peer->last_ack.load(std::memory_order_acquire) < token) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
    if (NowUs() >= deadline) {
      return false;
    }
    NapUs(500);
  }
}

void TransportHub::Flush() {
  if (options_.backend == TransportOptions::Backend::kSharedMemory) {
    // Rings empty AND the reactor not mid-dispatch ⇒ every published
    // frame has reached its downstream consumer (or, lost, marked its
    // streams stale).  Rings first: the reactor raises dispatching_
    // before it pops, so a ring seen empty by a pop is covered by the
    // flag read after it.
    for (;;) {
      bool quiescent = true;
      for (Peer* peer : SnapshotPeers()) {
        if (peer->dead.load(std::memory_order_acquire)) {
          continue;
        }
        auto segment = SegmentOf(*peer);
        if (segment != nullptr && !segment->data_ring().empty() &&
            !segment->data_ring().corrupt()) {
          quiescent = false;
          break;
        }
      }
      if (quiescent && !dispatching_.load(std::memory_order_acquire)) {
        break;
      }
      NapUs(200);
    }
  }
  manager_->Flush();
}

TransportStats TransportHub::stats() const {
  TransportStats out;
  out.frames = frames_.load(std::memory_order_acquire);
  out.bytes = bytes_.load(std::memory_order_acquire);
  out.deltas = deltas_.load(std::memory_order_acquire);
  out.alarms = alarms_.load(std::memory_order_acquire);
  out.acks = acks_.load(std::memory_order_acquire);
  out.truncated = err_by_kind_[size_t(WireError::kTruncated)].load(std::memory_order_acquire);
  out.bad_magic = err_by_kind_[size_t(WireError::kBadMagic)].load(std::memory_order_acquire);
  out.bad_version = err_by_kind_[size_t(WireError::kBadVersion)].load(std::memory_order_acquire);
  out.bad_type = err_by_kind_[size_t(WireError::kBadType)].load(std::memory_order_acquire);
  out.oversized = err_by_kind_[size_t(WireError::kOversized)].load(std::memory_order_acquire);
  out.bad_checksum =
      err_by_kind_[size_t(WireError::kBadChecksum)].load(std::memory_order_acquire);
  out.bad_payload = err_by_kind_[size_t(WireError::kBadPayload)].load(std::memory_order_acquire);
  out.decode_errors = out.truncated + out.bad_magic + out.bad_version + out.bad_type +
                      out.oversized + out.bad_checksum + out.bad_payload;
  out.peers_rejoined = peers_rejoined_.load(std::memory_order_acquire);
  out.peers_gave_up = peers_gave_up_.load(std::memory_order_acquire);
  out.resync_requests = resync_requests_.load(std::memory_order_acquire);
  out.snapshots = snapshots_.load(std::memory_order_acquire);
  out.stale_shm_reclaimed = stale_shm_reclaimed_.load(std::memory_order_acquire);
  // Retired segments' consumer counters fold in so totals stay
  // cumulative across incarnations.
  out.seq_gaps = retired_seq_gaps_.load(std::memory_order_acquire);
  out.blocked_pushes = retired_blocked_pushes_.load(std::memory_order_acquire);
  for (Peer* peer : SnapshotPeers()) {
    ++out.peers;
    if (peer->hello.load(std::memory_order_acquire)) {
      ++out.peers_hello;
    }
    if (peer->bye.load(std::memory_order_acquire)) {
      ++out.peers_bye;
    }
    if (peer->dead.load(std::memory_order_acquire)) {
      ++out.peers_dead;
    }
    if (peer->state.load(std::memory_order_acquire) == PeerState::kRejoining) {
      ++out.peers_rejoining;
    }
    auto segment = SegmentOf(*peer);
    if (segment != nullptr) {
      out.seq_gaps += segment->data_ring().seq_gaps();
      out.blocked_pushes += segment->data_ring().blocked_pushes();
    }
  }
  return out;
}

PeerState TransportHub::peer_state(HostId host) const {
  const Peer* peer = FindPeer(host);
  return peer == nullptr ? PeerState::kConnecting
                         : peer->state.load(std::memory_order_acquire);
}

uint32_t TransportHub::peer_incarnation(HostId host) const {
  const Peer* peer = FindPeer(host);
  return peer == nullptr ? 0 : peer->incarnation.load(std::memory_order_acquire);
}

std::vector<HostId> TransportHub::dead_hosts() const {
  std::vector<HostId> out;
  for (Peer* peer : SnapshotPeers()) {
    if (peer->dead.load(std::memory_order_acquire)) {
      out.push_back(peer->host);
    }
  }
  return out;
}

std::string TransportHub::RestartPeer(HostId host) {
  if (options_.backend != TransportOptions::Backend::kSharedMemory) {
    return "";
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  Peer* peer = nullptr;
  for (Peer& p : peers_) {
    if (p.host == host) {
      peer = &p;
      break;
    }
  }
  if (peer == nullptr) {
    return "";
  }
  const PeerState state = peer->state.load(std::memory_order_acquire);
  if (state == PeerState::kLive && !peer->dead.load(std::memory_order_acquire)) {
    return "";  // refuse to retire a live peer
  }
  if (peer->segment != nullptr) {
    // Fold the retiring segment's consumer counters into hub totals so
    // stats() stays cumulative, then drop the /dev/shm name.  The
    // mapping itself lives until the last SegmentRef holder (reactor
    // mid-pass) releases it.
    retired_seq_gaps_.fetch_add(peer->segment->data_ring().seq_gaps(),
                                std::memory_order_acq_rel);
    retired_blocked_pushes_.fetch_add(peer->segment->data_ring().blocked_pushes(),
                                      std::memory_order_acq_rel);
    peer->segment->Unlink();
  }
  const uint32_t incarnation = peer->incarnation.load(std::memory_order_acquire) + 1;
  const std::string name =
      prefix_ + std::to_string(host) + ".i" + std::to_string(incarnation);
  auto segment = ShmSegment::Create(name, options_.geometry);
  if (segment == nullptr) {
    return "";
  }
  peer->segment = std::move(segment);
  peer->pid.store(0, std::memory_order_release);
  peer->incarnation.store(incarnation, std::memory_order_release);
  peer->seen_seq_gaps = 0;
  peer->rejoin_deadline_us.store(NowUs() + options_.rejoin_timeout_us,
                                 std::memory_order_release);
  // dead stays true until the new incarnation's Hello — the peer keeps
  // being excused from acks through the whole rejoin window.
  peer->state.store(PeerState::kRejoining, std::memory_order_release);
  return name;
}

bool TransportHub::WaitForPeerLive(HostId host, int64_t timeout_us) {
  const Peer* peer = FindPeer(host);
  if (peer == nullptr) {
    return false;
  }
  const int64_t deadline = NowUs() + timeout_us;
  while (peer->state.load(std::memory_order_acquire) != PeerState::kLive ||
         peer->dead.load(std::memory_order_acquire)) {
    if (NowUs() >= deadline) {
      return false;
    }
    NapUs(500);
  }
  return true;
}

void TransportHub::RequestResync(uint64_t id, HostId host) {
  const Peer* peer = FindPeer(host);
  if (peer == nullptr) {
    return;
  }
  auto segment = SegmentOf(*peer);
  if (segment == nullptr) {
    return;
  }
  std::vector<uint8_t> frame;
  EncodeResyncRequestFrame(id, frame);
  if (PushCommand(*segment, frame)) {
    resync_requests_.fetch_add(1, std::memory_order_acq_rel);
    Tracer::Global().Record("resync.request", Tracer::Global().NowUs(), 0,
                            TraceKeys{id, host, 0});
  }
}

void TransportHub::RequestResyncAll(Peer& peer) {
  std::vector<uint64_t> covering;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const SubRecord& sub : subs_) {
      if (std::find(sub.hosts.begin(), sub.hosts.end(), peer.host) != sub.hosts.end()) {
        covering.push_back(sub.id);
      }
    }
  }
  for (uint64_t id : covering) {
    // One request per stale episode: only newly-stale streams ask.
    if (manager_->MarkStale(id, peer.host)) {
      RequestResync(id, peer.host);
    }
  }
}

void TransportHub::OnPeerRejoined(Peer& peer) {
  auto segment = SegmentOf(peer);
  if (segment == nullptr) {
    return;
  }
  std::vector<SubRecord> covering;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (const SubRecord& sub : subs_) {
      if (std::find(sub.hosts.begin(), sub.hosts.end(), peer.host) != sub.hosts.end()) {
        covering.push_back(sub);
      }
    }
  }
  // Subscribe first, resync second — the cmd ring is FIFO, so the agent
  // re-registers every accumulator before any snapshot is taken, and the
  // snapshot's epoch numbering starts from the fresh accumulator.
  std::vector<uint8_t> frame;
  for (const SubRecord& sub : covering) {
    frame.clear();
    EncodeSubscribeFrame(sub.id, sub.spec, frame);
    PushCommand(*segment, frame);
  }
  for (const SubRecord& sub : covering) {
    // Unconditional: even a stream already stale from the death episode
    // must be re-baselined from the NEW incarnation's accumulator.
    manager_->MarkStale(sub.id, peer.host);
    RequestResync(sub.id, peer.host);
  }
}

void TransportHub::CountError(WireError err) {
  const size_t idx = size_t(err);
  if (idx < 8) {
    err_by_kind_[idx].fetch_add(1, std::memory_order_acq_rel);
  }
}

void TransportHub::Dispatch(Peer& peer, DecodedFrame&& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      // A rejoin is a Hello from a peer we already knew: either we
      // restarted its segment (kRejoining) or a new incarnation showed
      // up on the existing one (agent restarted in place).
      const bool returning =
          peer.hello.load(std::memory_order_acquire) &&
          (peer.state.load(std::memory_order_acquire) == PeerState::kRejoining ||
           frame.incarnation != peer.incarnation.load(std::memory_order_acquire));
      peer.pid.store(frame.pid, std::memory_order_release);
      peer.incarnation.store(frame.incarnation, std::memory_order_release);
      peer.hello.store(true, std::memory_order_release);
      if (returning) {
        peer.bye.store(false, std::memory_order_release);
        peer.dead.store(false, std::memory_order_release);
        // Excuse every tick the peer missed while down — it acks again
        // from the next one.
        peer.last_ack.store(next_token_.load(std::memory_order_acquire),
                            std::memory_order_release);
        peer.state.store(PeerState::kLive, std::memory_order_release);
        peers_rejoined_.fetch_add(1, std::memory_order_acq_rel);
        OnPeerRejoined(peer);
      } else {
        peer.state.store(PeerState::kLive, std::memory_order_release);
      }
      break;
    }
    case FrameType::kSnapshot: {
      snapshots_.fetch_add(1, std::memory_order_acq_rel);
      TraceScope span("reactor.snapshot", TraceKeys{frame.delta.subscription_id,
                                                    frame.delta.host, frame.delta.epoch});
      manager_->SubmitDelta(std::move(frame.delta));
      break;
    }
    case FrameType::kQueryDelta: {
      deltas_.fetch_add(1, std::memory_order_acq_rel);
      // Keys must be captured before the delta is moved into the manager.
      TraceScope span("reactor.pop", TraceKeys{frame.delta.subscription_id,
                                              frame.delta.host, frame.delta.epoch});
      manager_->SubmitDelta(std::move(frame.delta));
      break;
    }
    case FrameType::kAlarm:
      alarms_.fetch_add(1, std::memory_order_acq_rel);
      alarm_sink_(frame.alarm);
      break;
    case FrameType::kAck: {
      acks_.fetch_add(1, std::memory_order_acq_rel);
      // Tokens ascend; keep the max in case acks arrive reordered
      // across a restart.
      uint64_t prev = peer.last_ack.load(std::memory_order_relaxed);
      while (frame.token > prev &&
             !peer.last_ack.compare_exchange_weak(prev, frame.token,
                                                  std::memory_order_acq_rel)) {
      }
      break;
    }
    case FrameType::kBye:
      peer.bye.store(true, std::memory_order_release);
      break;
    default:
      // Control-plane frame types never appear on a data ring; a decoded
      // one means an agent bug, counted as a payload-level violation.
      CountError(WireError::kBadPayload);
      break;
  }
}

size_t TransportHub::DrainPeer(Peer& peer, ShmSegment& segment, std::vector<uint8_t>& buf) {
  ShmSpscRing& ring = segment.data_ring();
  size_t dispatched = 0;
  while (ring.Pop(buf)) {
    bytes_.fetch_add(buf.size(), std::memory_order_acq_rel);
    DecodedFrame frame;
    const WireError err = DecodeFrame(buf.data(), buf.size(), &frame);
    if (err != WireError::kOk) {
      CountError(err);
      // A frame this peer published is lost to us — its streams may
      // have a hole; the caller triggers a resync on the new count.
      ++peer.data_decode_errors;
      continue;
    }
    frames_.fetch_add(1, std::memory_order_acq_rel);
    Dispatch(peer, std::move(frame));
    ++dispatched;
  }
  return dispatched;
}

void TransportHub::ReactorLoop() {
  std::vector<uint8_t> buf;
  while (!stop_.load(std::memory_order_acquire)) {
    size_t dispatched = 0;
    for (Peer* peer : SnapshotPeers()) {
      auto segment = SegmentOf(*peer);
      if (segment == nullptr) {
        continue;
      }
      const uint64_t errors_before = peer->data_decode_errors;
      dispatching_.store(true, std::memory_order_release);
      dispatched += DrainPeer(*peer, *segment, buf);
      // Loss-without-death resync triggers: a sequence jump on the data
      // ring (producer consumed numbers we never saw) or a frame that
      // failed decode.  Rate-limited inside RequestResyncAll — only
      // streams newly marked stale get a request.
      const uint64_t gaps = segment->data_ring().seq_gaps();
      const bool lost_frames =
          gaps > peer->seen_seq_gaps || peer->data_decode_errors > errors_before;
      peer->seen_seq_gaps = gaps;
      if (lost_frames &&
          peer->state.load(std::memory_order_acquire) == PeerState::kLive) {
        RequestResyncAll(*peer);
      }
      // Still dispatching until a lost frame's streams are marked stale:
      // a Flush that returned in between would see an empty ring and no
      // stale stream, although a stream is missing an epoch.
      dispatching_.store(false, std::memory_order_release);
      // Death check only after a full drain: everything the agent
      // published before dying is dispatched first, then the gap is
      // recorded — ordering the multiproc test relies on.
      const PeerState state = peer->state.load(std::memory_order_acquire);
      if (!peer->dead.load(std::memory_order_acquire) &&
          !peer->bye.load(std::memory_order_acquire) &&
          (state == PeerState::kConnecting || state == PeerState::kLive)) {
        const uint32_t pid = peer->pid.load(std::memory_order_acquire);
        const bool corrupt = segment->data_ring().corrupt();
        if (corrupt || (pid != 0 && !PidAlive(pid) && segment->data_ring().empty())) {
          peer->dead.store(true, std::memory_order_release);
          peer->state.store(PeerState::kDead, std::memory_order_release);
        }
      }
      // A restarted peer whose new incarnation never said Hello is
      // eventually given up on rather than watched forever.
      if (state == PeerState::kRejoining &&
          NowUs() > peer->rejoin_deadline_us.load(std::memory_order_acquire)) {
        peer->state.store(PeerState::kGaveUp, std::memory_order_release);
        peers_gave_up_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    if (dispatched == 0) {
      // Idle: park briefly.  Bounded sleep rather than a multi-ring
      // futex wait — one wakeup per millisecond is noise, and no peer
      // can be starved by another's doorbell.
      NapUs(500);
    }
  }
  // Final sweep so frames published just before stop are not lost.
  for (Peer* peer : SnapshotPeers()) {
    auto segment = SegmentOf(*peer);
    if (segment != nullptr) {
      DrainPeer(*peer, *segment, buf);
    }
  }
}

// --- ShmAgentClient ---

ShmAgentClient::ShmAgentClient(std::unique_ptr<ShmSegment> segment, int64_t push_timeout_us)
    : segment_(std::move(segment)),
      push_timeout_us_(push_timeout_us),
      metrics_([this](MetricsSnapshot& snap) {
        // Takes send_mu_: a snapshot waits out a push in progress.
        const FaultInjector::Counts c = fault_counts();
        snap.counters["fault.injected_drop"] += c.dropped;
        snap.counters["fault.injected_corrupt"] += c.corrupted;
        snap.counters["fault.injected_delay"] += c.delayed;
        snap.counters["fault.injected_dup"] += c.duplicated;
      }) {}

std::unique_ptr<ShmAgentClient> ShmAgentClient::Open(const std::string& name,
                                                     int64_t push_timeout_us) {
  auto segment = ShmSegment::Open(name);
  if (segment == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<ShmAgentClient>(
      new ShmAgentClient(std::move(segment), push_timeout_us));
}

std::unique_ptr<ShmAgentClient> ShmAgentClient::OpenWithBackoff(const std::string& name,
                                                                int64_t total_timeout_us,
                                                                int64_t push_timeout_us) {
  const int64_t deadline = NowUs() + total_timeout_us;
  int64_t backoff_us = 1'000;  // 1 ms, doubling to 100 ms
  for (;;) {
    auto client = Open(name, push_timeout_us);
    if (client != nullptr) {
      return client;
    }
    const int64_t left = deadline - NowUs();
    if (left <= 0) {
      return nullptr;
    }
    NapUs(std::min(backoff_us, left));
    backoff_us = std::min<int64_t>(backoff_us * 2, 100'000);
  }
}

void ShmAgentClient::SetFaultInjector(const FaultInjectorConfig& config) {
  std::lock_guard<std::mutex> lock(send_mu_);
  injector_ = config.any() ? std::make_unique<FaultInjector>(config) : nullptr;
}

FaultInjector::Counts ShmAgentClient::fault_counts() const {
  std::lock_guard<std::mutex> lock(send_mu_);
  return injector_ != nullptr ? injector_->counts() : FaultInjector::Counts{};
}


bool ShmAgentClient::PushRaw(const std::vector<uint8_t>& frame) {
  if (gave_up_.load(std::memory_order_acquire)) {
    return false;  // terminal: the controller is gone or wedged
  }
  const bool ok = segment_->data_ring().Push(frame.data(), frame.size(), push_timeout_us_);
  if (!ok) {
    static Counter* gave_up = MetricsRegistry::Global().GetCounter("transport.client_gave_up");
    gave_up_.store(true, std::memory_order_release);
    gave_up->Add();
  }
  return ok;
}

void ShmAgentClient::ReleaseDelayedLocked() {
  if (!delayed_.empty()) {
    PushRaw(delayed_);
    delayed_.clear();
  }
}

bool ShmAgentClient::PushFrame() {
  // Un-faulted path (control frames, hello, snapshots).  Any delayed
  // data frame goes out FIRST: once the controller sees e.g. an epoch
  // ack, every data frame the agent sent before it is in the ring.
  ReleaseDelayedLocked();
  return PushRaw(scratch_);
}

bool ShmAgentClient::PushDataFrame() {
  if (injector_ == nullptr) {
    return PushFrame();
  }
  switch (injector_->Next()) {
    case FaultInjector::Action::kNone:
      break;
    case FaultInjector::Action::kCorrupt:
      injector_->Corrupt(scratch_);  // whole-frame CRC catches it at the hub
      break;
    case FaultInjector::Action::kDrop: {
      // Consume the sequence number without publishing: the consumer
      // sees the jump, exactly like real upstream loss.
      ShmSpscRing& ring = segment_->data_ring();
      ring.set_next_seq(ring.next_seq() + 1);
      return true;
    }
    case FaultInjector::Action::kDelay:
      if (delayed_.empty()) {
        delayed_ = scratch_;  // released after the NEXT data frame: a reorder
        return true;
      }
      break;  // stash occupied — deliver in order
    case FaultInjector::Action::kDup: {
      const bool first = PushRaw(scratch_);
      const bool second = PushRaw(scratch_);
      ReleaseDelayedLocked();
      return first && second;
    }
  }
  const bool ok = PushRaw(scratch_);
  ReleaseDelayedLocked();  // after the current frame: true reorder
  return ok;
}

bool ShmAgentClient::SendHello(HostId host, uint32_t incarnation) {
  std::lock_guard<std::mutex> lock(send_mu_);
  segment_->header()->agent_pid.store(uint32_t(getpid()), std::memory_order_release);
  scratch_.clear();
  EncodeHelloFrame(host, uint32_t(getpid()), incarnation, scratch_);
  return PushFrame();
}

bool ShmAgentClient::SendDelta(const QueryDelta& delta) {
  static Counter* pushes = MetricsRegistry::Global().GetCounter("ring.delta_pushes");
  static Counter* snapshot_pushes =
      MetricsRegistry::Global().GetCounter("ring.snapshot_pushes");
  static LatencyHistogram* push_us =
      MetricsRegistry::Global().GetHistogram("ring.delta_push_us");
  TraceScope span("ring.push", TraceKeys{delta.subscription_id, delta.host, delta.epoch});
  const uint64_t t0 = Tracer::Global().NowUs();
  std::lock_guard<std::mutex> lock(send_mu_);
  scratch_.clear();
  if (delta.snapshot) {
    // Recovery traffic rides the un-faulted path: a dropped snapshot
    // would leave the stream stale forever (the request was already
    // consumed), so chaos must not touch it.
    EncodeSnapshotFrame(delta, scratch_);
    const bool ok = PushFrame();
    snapshot_pushes->Add();
    push_us->Record(Tracer::Global().NowUs() - t0);
    return ok;
  }
  EncodeQueryDeltaFrame(delta, scratch_);
  const bool ok = PushDataFrame();
  pushes->Add();
  push_us->Record(Tracer::Global().NowUs() - t0);
  return ok;
}

bool ShmAgentClient::SendAlarm(const Alarm& alarm) {
  std::lock_guard<std::mutex> lock(send_mu_);
  scratch_.clear();
  EncodeAlarmFrame(alarm, scratch_);
  return PushDataFrame();
}

bool ShmAgentClient::SendAck(HostId host, uint64_t token) {
  std::lock_guard<std::mutex> lock(send_mu_);
  scratch_.clear();
  EncodeAckFrame(host, token, scratch_);
  return PushFrame();
}

bool ShmAgentClient::SendBye(HostId host) {
  std::lock_guard<std::mutex> lock(send_mu_);
  scratch_.clear();
  EncodeByeFrame(host, scratch_);
  return PushFrame();
}

void ShmAgentClient::Serve(EdgeAgent& agent, HostId host, const std::function<bool()>& on_idle) {
  agent.SetAlarmHandler(MakeAlarmSink());
  for (;;) {
    DecodedFrame cmd;
    if (!PollCommand(&cmd, /*timeout_us=*/100'000)) {
      if (!on_idle()) {
        return;
      }
      continue;
    }
    switch (cmd.type) {
      case FrameType::kSubscribe:
        agent.RegisterStandingQuery(cmd.subscription_id, cmd.spec, MakeDeltaSink());
        break;
      case FrameType::kIngest:
        IngestSynthetic(agent.tib(), host, cmd.ingest_count, cmd.ingest_seed,
                        {.ip_space = cmd.ingest_ip_space,
                         .switch_space = cmd.ingest_switch_space});
        break;
      case FrameType::kEpochTick:
        agent.EpochTick();
        SendAck(host, cmd.token);
        break;
      case FrameType::kResyncRequest:
        // QueryDelta::snapshot is set, so the delta sink ships it as an
        // un-faulted kSnapshot frame.
        agent.ResyncStandingQuery(cmd.subscription_id);
        break;
      case FrameType::kShutdown:
        SendBye(host);
        return;
      default:
        break;  // data-plane frame types never arrive on the cmd ring
    }
  }
}

bool ShmAgentClient::PollCommand(DecodedFrame* out, int64_t timeout_us) {
  ShmSpscRing& ring = segment_->cmd_ring();
  const int64_t deadline = NowUs() + timeout_us;
  std::vector<uint8_t> buf;
  for (;;) {
    while (ring.Pop(buf)) {
      const WireError err = DecodeFrame(buf.data(), buf.size(), out);
      if (err == WireError::kOk) {
        return true;
      }
      ++cmd_decode_errors_;
    }
    const int64_t left = deadline - NowUs();
    if (left <= 0) {
      return false;
    }
    ring.WaitForData(left);
  }
}

EdgeAgent::DeltaSink ShmAgentClient::MakeDeltaSink() {
  return [this](QueryDelta&& delta) { SendDelta(delta); };
}

AlarmHandler ShmAgentClient::MakeAlarmSink() {
  return [this](const Alarm& alarm) { SendAlarm(alarm); };
}

}  // namespace transport
}  // namespace pathdump
