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

// How long a blocking ring push may wait for space before failing.
constexpr int64_t kPushTimeoutUs = 5'000'000;
// Nap between checks of a hub wait, and the reactor's idle park.
constexpr int64_t kWaitNapUs = 500;
// Flush naps shorter: it sits inside every epoch boundary.
constexpr int64_t kFlushNapUs = 200;

// Excused peers: skipped by broadcasts, WaitForAcks and Flush.
bool Excused(PeerState s) { return s != PeerState::kConnecting && s != PeerState::kLive; }

// Dead peers: no agent, and no rejoin pending.
bool Dead(PeerState s) { return s == PeerState::kDead || s == PeerState::kGaveUp; }

bool PidAlive(uint32_t pid) {
  if (pid == 0) {
    return true;  // unknown yet — assume alive until Hello names it
  }
  return kill(pid_t(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

TransportHub::TransportHub(Controller* controller, SubscriptionManager* manager,
                           TransportOptions options)
    : manager_(manager),
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
  // Reclaim segments a SIGKILLed earlier fleet left in /dev/shm.
  // Dead-owner mode only: a parallel suite's live segments (their
  // controller pid answers kill(pid, 0)) are never touched.
  const size_t n = CleanupShmByPrefix("/pathdump.", /*only_dead_owners=*/true);
  if (n > 0) {
    stale_shm_reclaimed_.store(n, std::memory_order_release);
    std::fprintf(stderr, "[transport] startup sweep reclaimed %zu stale shm segment(s)\n", n);
  }
  // Gap-threshold staleness self-heals: when the manager declares a
  // stream stale it asks us to ship the ResyncRequest.
  manager_->SetResyncRequester([this](uint64_t id, HostId host) { RequestResync(id, host); });
  reactor_ = std::thread([this] { ReactorLoop(); });
}

TransportHub::~TransportHub() {
  // Unhook the requester, then drain any fold batch that already
  // copied it — after Flush returns no callback can still reach us.
  manager_->SetResyncRequester(nullptr);
  manager_->Flush();
  stop_.store(true, std::memory_order_release);
  reactor_.join();
  // Segments unlink themselves (owner destructor), but be explicit so a
  // throwing member destructor can never leak a /dev/shm entry.
  for (Peer& peer : peers_) {
    if (peer.segment != nullptr) {
      peer.segment->Unlink();
    }
  }
}

std::string TransportHub::AddShmPeer(HostId host) {
  const std::string name = prefix_ + std::to_string(host);
  auto segment = ShmSegment::Create(name, ShmSegment::Geometry{});
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

std::vector<TransportHub::Peer*> TransportHub::SnapshotPeers() const {
  std::vector<Peer*> out;
  std::lock_guard<std::mutex> lock(peers_mu_);
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    out.push_back(const_cast<Peer*>(&peer));
  }
  return out;
}

bool TransportHub::WaitUntil(const std::function<bool()>& done, int64_t timeout_us,
                             int64_t nap_us) {
  const int64_t start = NowUs();
  for (;;) {
    if (done()) {
      return true;
    }
    if (timeout_us >= 0 && NowUs() - start >= timeout_us) {
      return false;
    }
    NapUs(nap_us);
  }
}

bool TransportHub::PushCommand(ShmSegment& segment, const std::vector<uint8_t>& frame) {
  // The cmd ring is SPSC; the reactor (rejoin/resync sends) and API
  // threads (broadcasts) share the producer side, so serialize here.  A
  // dead-but-undetected peer never pops its command ring; the bounded
  // push keeps callers from hanging on it.
  std::lock_guard<std::mutex> lock(cmd_mu_);
  return segment.cmd_ring().Push(frame.data(), frame.size(), kPushTimeoutUs);
}

void TransportHub::BroadcastCommand(const std::vector<uint8_t>& frame) {
  for (Peer* peer : SnapshotPeers()) {
    if (Excused(peer->state.load(std::memory_order_acquire))) {
      continue;
    }
    auto segment = SegmentOf(*peer);
    if (segment != nullptr) {
      PushCommand(*segment, frame);
    }
  }
}

uint64_t TransportHub::Subscribe(const std::vector<HostId>& hosts,
                                 const StandingQuerySpec& spec) {
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
  std::vector<uint8_t> frame;
  EncodeEpochTickFrame(token, frame);
  BroadcastCommand(frame);
  return token;
}

void TransportHub::SendIngest(uint32_t count, uint32_t seed, uint32_t ip_space,
                              uint32_t switch_space) {
  std::vector<uint8_t> frame;
  EncodeIngestFrame(count, seed, ip_space, switch_space, frame);
  BroadcastCommand(frame);
}

void TransportHub::SendShutdown() {
  std::vector<uint8_t> frame;
  EncodeShutdownFrame(frame);
  BroadcastCommand(frame);
}

bool TransportHub::WaitForHellos(int64_t timeout_us) {
  return WaitUntil(
      [this] {
        for (Peer* peer : SnapshotPeers()) {
          if (peer->state.load(std::memory_order_acquire) == PeerState::kConnecting) {
            return false;
          }
        }
        return true;
      },
      timeout_us, kWaitNapUs);
}

bool TransportHub::WaitForAcks(uint64_t token, int64_t timeout_us) {
  return WaitUntil(
      [this, token] {
        for (Peer* peer : SnapshotPeers()) {
          // Excused peers are skipped — a killed agent never wedges the epoch.
          if (!Excused(peer->state.load(std::memory_order_acquire)) &&
              peer->last_ack.load(std::memory_order_acquire) < token) {
            return false;
          }
        }
        return true;
      },
      timeout_us, kWaitNapUs);
}

void TransportHub::Flush() {
  // Rings empty AND the reactor not mid-dispatch ⇒ every published
  // frame has reached its downstream consumer (or, lost, marked its
  // streams stale).  Rings first: the reactor raises dispatching_
  // before it pops, so a ring seen empty by a pop is covered by the
  // flag read after it.
  WaitUntil(
      [this] {
        for (Peer* peer : SnapshotPeers()) {
          if (Excused(peer->state.load(std::memory_order_acquire))) {
            continue;
          }
          auto segment = SegmentOf(*peer);
          if (segment != nullptr && !segment->data_ring().empty() &&
              !segment->data_ring().corrupt()) {
            return false;
          }
        }
        return !dispatching_.load(std::memory_order_acquire);
      },
      /*timeout_us=*/-1, kFlushNapUs);
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
    const PeerState state = peer->state.load(std::memory_order_acquire);
    ++out.peers;
    out.peers_hello += state != PeerState::kConnecting;
    out.peers_bye += state == PeerState::kDeparted;
    out.peers_dead += Dead(state);
    out.peers_rejoining += state == PeerState::kRejoining;
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
    if (Dead(peer->state.load(std::memory_order_acquire))) {
      out.push_back(peer->host);
    }
  }
  return out;
}

std::string TransportHub::RestartPeer(HostId host) {
  Peer* peer = const_cast<Peer*>(FindPeer(host));
  if (peer == nullptr) {
    return "";
  }
  // Held throughout, so the reactor's Hello transitions (also under
  // peers_mu_) see either the old segment and state or the new pair.
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto refused = [](PeerState s) { return s == PeerState::kLive || s == PeerState::kRejoining; };
  PeerState state = peer->state.load(std::memory_order_acquire);
  if (refused(state)) {
    return "";
  }
  const uint32_t incarnation = peer->incarnation.load(std::memory_order_acquire) + 1;
  const std::string name =
      prefix_ + std::to_string(host) + ".i" + std::to_string(incarnation);
  auto segment = ShmSegment::Create(name, ShmSegment::Geometry{});
  if (segment == nullptr) {
    return "";
  }
  // The deadline is armed before the state says kRejoining, so the
  // reactor never judges this window by a stale one.
  peer->rejoin_deadline_us.store(NowUs() + options_.rejoin_timeout_us,
                                 std::memory_order_release);
  // The reactor may move the peer concurrently (a connecting peer's ring
  // turns corrupt, a Bye lands); retry from wherever it moved it.
  while (!Transition(*peer, state, PeerState::kRejoining)) {
    state = peer->state.load(std::memory_order_acquire);
    if (refused(state)) {
      return "";  // the new segment unlinks itself on destruction
    }
  }
  if (peer->segment != nullptr) {
    // Fold the retiring segment's consumer counters into hub totals so
    // stats() stays cumulative, then drop the /dev/shm name.  The
    // mapping itself lives until the last reader (reactor mid-pass)
    // releases it.
    retired_seq_gaps_.fetch_add(peer->segment->data_ring().seq_gaps(),
                                std::memory_order_acq_rel);
    retired_blocked_pushes_.fetch_add(peer->segment->data_ring().blocked_pushes(),
                                      std::memory_order_acq_rel);
    peer->segment->Unlink();
  }
  peer->segment = std::move(segment);
  peer->pid.store(0, std::memory_order_release);
  peer->incarnation.store(incarnation, std::memory_order_release);
  return name;
}

bool TransportHub::WaitForPeerLive(HostId host, int64_t timeout_us) {
  const Peer* peer = FindPeer(host);
  return peer != nullptr &&
         WaitUntil(
             [peer] { return peer->state.load(std::memory_order_acquire) == PeerState::kLive; },
             timeout_us, kWaitNapUs);
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

std::vector<TransportHub::SubRecord> TransportHub::CoveringSubs(HostId host) const {
  std::vector<SubRecord> covering;
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (const SubRecord& sub : subs_) {
    if (std::find(sub.hosts.begin(), sub.hosts.end(), host) != sub.hosts.end()) {
      covering.push_back(sub);
    }
  }
  return covering;
}

void TransportHub::RequestResyncAll(Peer& peer) {
  for (const SubRecord& sub : CoveringSubs(peer.host)) {
    // One request per stale episode: only newly-stale streams ask.
    if (manager_->MarkStale(sub.id, peer.host)) {
      RequestResync(sub.id, peer.host);
    }
  }
}

void TransportHub::OnPeerRejoined(Peer& peer) {
  auto segment = SegmentOf(peer);
  if (segment == nullptr) {
    return;
  }
  const std::vector<SubRecord> covering = CoveringSubs(peer.host);
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

bool TransportHub::AcceptHello(Peer& peer, const ShmSegment& segment,
                               const DecodedFrame& frame) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  if (peer.segment.get() != &segment) {
    return false;  // drained from a segment RestartPeer already retired
  }
  const PeerState state = peer.state.load(std::memory_order_acquire);
  // A rejoin is a Hello from a peer we already knew: either we
  // restarted its segment (kRejoining) or a new incarnation showed up on
  // the existing one (agent restarted in place).  kGaveUp ignores every
  // Hello until RestartPeer.
  const bool first = state == PeerState::kConnecting;
  const bool rejoin =
      state == PeerState::kRejoining ||
      (!first && state != PeerState::kGaveUp &&
       frame.incarnation != peer.incarnation.load(std::memory_order_acquire));
  peer.pid.store(frame.pid, std::memory_order_release);
  if (!first && !rejoin) {
    return false;  // a repeated Hello changes nothing
  }
  peer.incarnation.store(frame.incarnation, std::memory_order_release);
  if (rejoin) {
    // Excuse every tick the peer missed while down — it acks again from
    // the next one.  Stored before kLive, so no wait sees a stale ack.
    peer.last_ack.store(next_token_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }
  if (!Transition(peer, state, PeerState::kLive) || !rejoin) {
    return false;
  }
  peers_rejoined_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

void TransportHub::Dispatch(Peer& peer, const ShmSegment& segment, DecodedFrame&& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      if (AcceptHello(peer, segment, frame)) {
        OnPeerRejoined(peer);
      }
      break;
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
    case FrameType::kBye: {
      const PeerState state = peer.state.load(std::memory_order_acquire);
      if (state == PeerState::kConnecting || state == PeerState::kLive) {
        Transition(peer, state, PeerState::kDeparted);
      }
      break;
    }
    default:
      // Control-plane frame types never appear on a data ring; a decoded
      // one means an agent bug, counted as a payload-level violation.
      CountError(WireError::kBadPayload);
      break;
  }
}

size_t TransportHub::DrainPeer(Peer& peer, ShmSegment& segment, std::vector<uint8_t>& buf,
                               bool* lost_frames) {
  ShmSpscRing& ring = segment.data_ring();
  // The reactor is the ring's only consumer, so gaps grow only here.
  const uint64_t gaps_before = ring.seq_gaps();
  size_t dispatched = 0;
  while (ring.Pop(buf)) {
    bytes_.fetch_add(buf.size(), std::memory_order_acq_rel);
    DecodedFrame frame;
    const WireError err = DecodeFrame(buf.data(), buf.size(), &frame);
    if (err != WireError::kOk) {
      CountError(err);
      // A frame this peer published is lost to us — its streams may
      // have a hole.
      *lost_frames = true;
      continue;
    }
    frames_.fetch_add(1, std::memory_order_acq_rel);
    Dispatch(peer, segment, std::move(frame));
    ++dispatched;
  }
  // A sequence jump: the producer consumed numbers we never saw.
  *lost_frames = *lost_frames || ring.seq_gaps() > gaps_before;
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
      bool lost_frames = false;
      dispatching_.store(true, std::memory_order_release);
      dispatched += DrainPeer(*peer, *segment, buf, &lost_frames);
      // Loss-without-death resync trigger, judged within this drain of
      // this segment, so no count carries across incarnations.
      // Rate-limited inside RequestResyncAll — only streams newly marked
      // stale get a request.
      if (lost_frames && peer->state.load(std::memory_order_acquire) == PeerState::kLive) {
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
      if (state == PeerState::kConnecting || state == PeerState::kLive) {
        const uint32_t pid = peer->pid.load(std::memory_order_acquire);
        if (segment->data_ring().corrupt() ||
            (pid != 0 && !PidAlive(pid) && segment->data_ring().empty())) {
          Transition(*peer, state, PeerState::kDead);
        }
      }
      // A restarted peer whose new incarnation never said Hello is
      // eventually given up on rather than watched forever.
      if (state == PeerState::kRejoining &&
          NowUs() > peer->rejoin_deadline_us.load(std::memory_order_acquire) &&
          Transition(*peer, state, PeerState::kGaveUp)) {
        peers_gave_up_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
    if (dispatched == 0) {
      // Idle: park briefly.  Bounded sleep rather than a multi-ring
      // futex wait — one wakeup per millisecond is noise, and no peer
      // can be starved by another's doorbell.
      NapUs(kWaitNapUs);
    }
  }
  // Final sweep so frames published just before stop are not lost.
  for (Peer* peer : SnapshotPeers()) {
    auto segment = SegmentOf(*peer);
    if (segment != nullptr) {
      bool lost_frames = false;
      DrainPeer(*peer, *segment, buf, &lost_frames);
    }
  }
}

// --- ShmAgentClient ---

ShmAgentClient::ShmAgentClient(std::unique_ptr<ShmSegment> segment)
    : segment_(std::move(segment)),
      metrics_([this](MetricsSnapshot& snap) {
        // Takes send_mu_: a snapshot waits out a push in progress.
        const FaultInjector::Counts c = fault_counts();
        snap.counters["fault.injected_drop"] += c.dropped;
        snap.counters["fault.injected_corrupt"] += c.corrupted;
        snap.counters["fault.injected_delay"] += c.delayed;
        snap.counters["fault.injected_dup"] += c.duplicated;
      }) {}

std::unique_ptr<ShmAgentClient> ShmAgentClient::Open(const std::string& name) {
  auto segment = ShmSegment::Open(name);
  if (segment == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<ShmAgentClient>(new ShmAgentClient(std::move(segment)));
}

std::unique_ptr<ShmAgentClient> ShmAgentClient::OpenWithBackoff(const std::string& name,
                                                                int64_t total_timeout_us) {
  const int64_t deadline = NowUs() + total_timeout_us;
  int64_t backoff_us = 1'000;  // 1 ms, doubling to 100 ms
  for (;;) {
    auto client = Open(name);
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
  const bool ok = segment_->data_ring().Push(frame.data(), frame.size(), kPushTimeoutUs);
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
