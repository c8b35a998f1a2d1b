#include "runtime/udp_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <queue>
#include <thread>

#include "common/assert.h"
#include "common/codec.h"
#include "fault/corrupt.h"
#include "common/log.h"
#include "common/mutex.h"

namespace zdc::runtime {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint8_t kTypeData = 0;
constexpr std::uint8_t kTypeAck = 1;
constexpr std::size_t kMaxDatagram = 60000;
/// Datagrams read per wake before timers and the ARQ run again. At about one
/// op per consensus instance an endpoint receives ~40k datagrams/s, and the
/// kernel's default 208 KiB socket buffer holds ~250 of them (~0.8-1.3 KiB
/// charged each on loopback); 64 per batch drains a full buffer in four
/// rounds while a heartbeat tick waits behind at most one batch (well under
/// a millisecond of handler time).
constexpr int kDrainBatch = 64;

Clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

Clock::time_point after_ms(double ms) { return Clock::now() + ms_duration(ms); }

/// Whether a wire channel byte names a Channel. No default case, so -Wswitch
/// flags this switch when transport.h gains a channel.
bool known_channel(std::uint8_t raw) {
  switch (static_cast<Channel>(raw)) {
    case Channel::kProtocol:
    case Channel::kHeartbeat:
    case Channel::kWab:
    case Channel::kCatchup:
      return true;
  }
  return false;
}

}  // namespace

/// Everything one process owns: socket, timers, ARQ state.
struct UdpNetwork::Endpoint {
  int fd = -1;           // immutable after the constructor
  int wake_fd = -1;      // eventfd in the loop's poll set; immutable
  std::uint16_t port = 0;  // immutable after the constructor
  /// Recv thread only: the socket's cumulative kernel drop count, as last
  /// reported by SO_RXQ_OVFL.
  std::uint32_t kernel_drops_seen = 0;
  /// Written before start(), read only by the recv thread afterwards
  /// (enforced by the assertion in set_handler — no lock needed).
  Handler handler;
  std::atomic<bool> crashed{false};

  common::Mutex mu;  // guards everything below (senders push from other threads)

  // Outbound reliable state, keyed by (destination, seq): the encoded
  // datagram and when to resend it. Sequences are per destination, so each
  // receiver sees a gap-free stream from this sender.
  struct Pending {
    std::string datagram;
    Clock::time_point next_retransmit;
    double backoff_ms = 0.0;  ///< next retry interval (doubles up to the cap)
  };
  std::map<std::pair<ProcessId, std::uint64_t>, Pending> unacked
      ZDC_GUARDED_BY(mu);
  std::vector<std::uint64_t> next_seq ZDC_GUARDED_BY(mu);  ///< per destination

  // Inbound dedupe per sender: everything <= watermark seen, plus the
  // out-of-order arrivals above it.
  struct SeenFrom {
    std::uint64_t watermark = 0;
    std::set<std::uint64_t> above;
  };
  std::vector<SeenFrom> seen ZDC_GUARDED_BY(mu);  ///< per sender

  /// Drops every pending datagram towards `to`: one key range.
  void purge_towards(ProcessId to) ZDC_REQUIRES(mu) {
    unacked.erase(unacked.lower_bound({to, 0}),
                  unacked.lower_bound({to + 1, 0}));
  }

  /// Marks every sequence up to `seq` from `from` as seen: sequences that
  /// will never be sent again (their sender's incarnation or its receiver's
  /// died) must not hold the watermark back.
  void seen_through(ProcessId from, std::uint64_t seq) ZDC_REQUIRES(mu) {
    SeenFrom& s = seen[from];
    if (seq <= s.watermark) return;
    s.watermark = seq;
    s.above.erase(s.above.begin(), s.above.upper_bound(seq));
    while (!s.above.empty() && *s.above.begin() == s.watermark + 1) {
      s.above.erase(s.above.begin());
      ++s.watermark;
    }
  }

  // Timers.
  struct Timer {
    Clock::time_point due;
    std::uint64_t ticket;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      return due != other.due ? due > other.due : ticket > other.ticket;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers
      ZDC_GUARDED_BY(mu);
  std::uint64_t next_ticket ZDC_GUARDED_BY(mu) = 0;

  common::Rng rng ZDC_GUARDED_BY(mu){0};

  // Pre-registered metric handles, labeled by this endpoint's process; null
  // when metrics are off. Counters/gauges are atomics — safe from the recv
  // thread and from senders alike.
  obs::Counter* sent_ctr = nullptr;
  obs::Counter* retrans_ctr = nullptr;
  obs::Counter* dropped_ctr = nullptr;
  obs::Counter* kernel_drops_ctr = nullptr;
  obs::Gauge* unacked_gauge = nullptr;

  void note_unacked_depth() ZDC_REQUIRES(mu) {
    if (unacked_gauge != nullptr) {
      unacked_gauge->set(static_cast<double>(unacked.size()));
    }
  }

  /// Wakes the receive loop out of its poll. The write fails only when the
  /// eventfd counter is saturated, and then the loop is awake anyway.
  void wake() const {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof one);
  }

  ~Endpoint() {
    if (fd >= 0) ::close(fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }
};

UdpNetwork::UdpNetwork(Config cfg) : cfg_(cfg), links_(cfg.n) {
  ZDC_ASSERT(cfg.n > 0);
  common::Rng seeder(cfg.seed);
  endpoints_.reserve(cfg.n);
  for (std::uint32_t p = 0; p < cfg.n; ++p) {
    auto ep = std::make_unique<Endpoint>();
    {
      // No concurrency yet (threads start in start()), but the analysis has
      // no escape analysis, so seed the guarded rng under its lock.
      common::MutexLock lock(ep->mu);
      ep->rng = common::Rng(seeder.next_u64());
      ep->next_seq.assign(cfg.n, 1);
      ep->seen.resize(cfg.n);
    }
    ep->fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ZDC_ASSERT_MSG(ep->fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // kernel-assigned port: no collisions, no config
    ZDC_ASSERT_MSG(::bind(ep->fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0,
                   "bind() failed");
    socklen_t len = sizeof addr;
    ZDC_ASSERT(::getsockname(ep->fd, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0);
    ep->port = ntohs(addr.sin_port);
    const int on = 1;
    (void)::setsockopt(ep->fd, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof on);
    ep->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    ZDC_ASSERT_MSG(ep->wake_fd >= 0, "eventfd() failed");
    if (cfg.metrics != nullptr) {
      ep->sent_ctr = &cfg.metrics->counter("zdc_udp_datagrams_sent_total",
                                           obs::process_label(p));
      ep->retrans_ctr = &cfg.metrics->counter("zdc_udp_retransmissions_total",
                                              obs::process_label(p));
      ep->dropped_ctr = &cfg.metrics->counter("zdc_udp_dropped_total",
                                              obs::process_label(p));
      ep->kernel_drops_ctr = &cfg.metrics->counter(
          "zdc_udp_kernel_drops_total", obs::process_label(p));
      ep->unacked_gauge = &cfg.metrics->gauge("zdc_udp_unacked_depth",
                                              obs::process_label(p));
    }
    endpoints_.push_back(std::move(ep));
  }
}

UdpNetwork::~UdpNetwork() { shutdown(); }

std::uint16_t UdpNetwork::port(ProcessId p) const {
  ZDC_ASSERT(p < cfg_.n);
  return endpoints_[p]->port;
}

void UdpNetwork::set_handler(ProcessId p, Handler handler) {
  ZDC_ASSERT(p < cfg_.n);
  ZDC_ASSERT_MSG(!running_.load(), "handlers must be set before start()");
  endpoints_[p]->handler = std::move(handler);
}

void UdpNetwork::start() {
  ZDC_ASSERT(!running_.exchange(true));
  threads_.reserve(cfg_.n);
  for (std::uint32_t p = 0; p < cfg_.n; ++p) {
    threads_.emplace_back([this, p] { recv_loop(p); });
  }
}

void UdpNetwork::shutdown() {
  if (!running_.load()) return;
  stopping_.store(true);
  for (auto& ep : endpoints_) ep->wake();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  running_.store(false);
}

void UdpNetwork::raw_send(ProcessId from, ProcessId to,
                          const std::string& datagram) {
  // The nemesis chokepoint: every datagram — data, ack, retransmission —
  // passes through here, so a single policy check covers the whole fabric.
  const fault::LinkState link = links_.link(from, to);
  if (!link.clean()) {
    Endpoint& sender = *endpoints_[from];
    if (link.blocked) {
      // Cut link: raw datagrams die (ARQ retries).
      if (sender.dropped_ctr != nullptr) sender.dropped_ctr->inc();
      return;
    }
    if (link.drop_prob > 0.0) {
      bool drop = false;
      {
        common::MutexLock lock(sender.mu);
        drop = sender.rng.chance(link.drop_prob);
      }
      if (drop) {
        if (sender.dropped_ctr != nullptr) sender.dropped_ctr->inc();
        return;
      }
    }
    if (link.extra_delay_ms > 0.0 && !crashed(from)) {
      // Delay spike: hold the datagram on the sender's timer wheel. Bypasses
      // the policy re-check on fire — the spike was already paid.
      schedule(from, link.extra_delay_ms, [this, from, to, datagram] {
        raw_send_now(from, to, datagram);
      });
      return;
    }
  }
  raw_send_now(from, to, datagram);
}

void UdpNetwork::raw_send_now(ProcessId from, ProcessId to,
                              const std::string& datagram) {
  ZDC_ASSERT_MSG(datagram.size() <= kMaxDatagram, "datagram too large");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints_[to]->port);
  // sendto on the sender's fd is thread-safe; failures (e.g. ENOBUFS) are
  // treated as loss — the ARQ covers the reliable channel.
  (void)::sendto(endpoints_[from]->fd, datagram.data(), datagram.size(), 0,
                 reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (endpoints_[from]->sent_ctr != nullptr) endpoints_[from]->sent_ctr->inc();
}

void UdpNetwork::send(Channel channel, ProcessId from, ProcessId to,
                      std::string bytes, InstanceId wab_instance) {
  ZDC_ASSERT(from < cfg_.n && to < cfg_.n);
  if (crashed(from) || crashed(to)) return;

  common::Encoder enc;
  enc.put_u8(kTypeData);
  enc.put_u8(static_cast<std::uint8_t>(channel));
  enc.put_u32(from);
  std::string datagram;
  if (is_reliable(channel)) {
    // Sequence allocation and ARQ registration form ONE critical section:
    // when they were separate, a concurrent restart(from) could clear the
    // table between them and then inherit the dead incarnation's pending
    // entry, retransmitting a pre-crash datagram from the new incarnation.
    Endpoint& ep = *endpoints_[from];
    common::MutexLock lock(ep.mu);
    const std::uint64_t seq = ep.next_seq[to]++;
    enc.put_u64(seq);
    enc.put_u64(wab_instance);
    enc.put_raw(bytes);
    datagram = enc.take();
    Endpoint::Pending pending;
    pending.datagram = datagram;
    pending.next_retransmit = after_ms(cfg_.retransmit_interval_ms);
    pending.backoff_ms = cfg_.retransmit_interval_ms;
    ep.unacked.emplace(std::make_pair(to, seq), std::move(pending));
    ep.note_unacked_depth();
  } else {
    enc.put_u64(0);
    enc.put_u64(wab_instance);
    enc.put_raw(bytes);
    datagram = enc.take();
  }
  raw_send(from, to, datagram);
}

void UdpNetwork::broadcast(Channel channel, ProcessId from, std::string bytes,
                           InstanceId wab_instance) {
  // Equivocation (duplicate-divergent-send): the broadcast also carries a
  // divergent duplicate to every remote receiver, each copy flipped in a
  // different bit. The duplicate gets its own fresh sequence number and ARQ
  // entry — reusing the original's seq would let the receiver's dedupe
  // record the corrupted copy and reject the clean original as a duplicate.
  const bool equivocating = is_reliable(channel) && !crashed(from) &&
                            links_.consume_equivocation(from);
  for (ProcessId to = 0; to < cfg_.n; ++to) {
    send(channel, from, to, bytes, wab_instance);
    if (equivocating && to != from) {
      send(channel, from, to,
           fault::bit_flip_copy(bytes, fault::kMiddleByte, to % 8u),
           wab_instance);
    }
  }
}

void UdpNetwork::schedule(ProcessId p, double delay_ms,
                          std::function<void()> fn) {
  ZDC_ASSERT(p < cfg_.n);
  if (crashed(p)) return;
  Endpoint& ep = *endpoints_[p];
  {
    common::MutexLock lock(ep.mu);
    Endpoint::Timer timer;
    timer.due = after_ms(delay_ms);
    timer.ticket = ep.next_ticket++;
    timer.fn = std::move(fn);
    ep.timers.push(std::move(timer));
  }
  // Wake the loop so its next sleep ends by the new timer's due time. From
  // the loop's own thread this costs one extra pass.
  ep.wake();
}

void UdpNetwork::crash(ProcessId p) {
  ZDC_ASSERT(p < cfg_.n);
  endpoints_[p]->crashed.store(true);
  // Peers stop retransmitting towards p.
  for (std::uint32_t q = 0; q < cfg_.n; ++q) {
    Endpoint& ep = *endpoints_[q];
    common::MutexLock lock(ep.mu);
    ep.purge_towards(p);
    ep.note_unacked_depth();
  }
}

bool UdpNetwork::crashed(ProcessId p) const {
  return endpoints_[p]->crashed.load();
}

void UdpNetwork::restart(ProcessId p) {
  ZDC_ASSERT(p < cfg_.n);
  Endpoint& ep = *endpoints_[p];
  if (!ep.crashed.load()) return;
  std::vector<std::uint64_t> sent_by_p;
  {
    common::MutexLock lock(ep.mu);
    // The dead incarnation's volatile transport state is gone: its pending
    // retransmissions and timers died with it. next_seq and the dedupe
    // watermarks stay monotonic across incarnations, so pre-crash
    // stragglers are still rejected.
    ep.unacked.clear();
    ep.note_unacked_depth();
    while (!ep.timers.empty()) ep.timers.pop();
    sent_by_p = ep.next_seq;
  }
  // Neither the sequences p's old incarnation left unacked nor those its
  // peers purged towards p at the crash are ever resent, so both sides'
  // watermarks skip them. Peers start no send to p while it is crashed; one
  // that raced the crash may take a sequence after these reads, and then
  // reaches the new incarnation like any late datagram.
  std::vector<std::uint64_t> sent_to_p(cfg_.n);
  for (std::uint32_t q = 0; q < cfg_.n; ++q) {
    Endpoint& peer = *endpoints_[q];
    common::MutexLock lock(peer.mu);
    peer.seen_through(p, sent_by_p[q] - 1);
    sent_to_p[q] = peer.next_seq[p];
  }
  {
    common::MutexLock lock(ep.mu);
    for (std::uint32_t q = 0; q < cfg_.n; ++q) {
      ep.seen_through(q, sent_to_p[q] - 1);
    }
  }
  // The recv thread has been draining and discarding the socket while
  // crashed, so no pre-crash datagrams are waiting. Flip last: from here on
  // the endpoint receives again.
  ep.crashed.store(false);
}

std::size_t UdpNetwork::out_of_order(ProcessId p) const {
  ZDC_ASSERT(p < cfg_.n);
  Endpoint& ep = *endpoints_[p];
  common::MutexLock lock(ep.mu);
  std::size_t total = 0;
  for (const auto& from : ep.seen) total += from.above.size();
  return total;
}

void UdpNetwork::handle_datagram(ProcessId p, const char* data,
                                 std::size_t len) {
  Endpoint& ep = *endpoints_[p];
  common::Decoder dec(std::string_view(data, len));
  const std::uint8_t type = dec.get_u8();
  if (!dec.ok()) return;

  if (type == kTypeAck) {
    const ProcessId acker = dec.get_u32();
    const std::uint64_t seq = dec.get_u64();
    if (!dec.done() || acker >= cfg_.n) return;
    common::MutexLock lock(ep.mu);
    ep.unacked.erase({acker, seq});
    ep.note_unacked_depth();
    return;
  }
  if (type != kTypeData) return;

  const std::uint8_t raw_channel = dec.get_u8();
  const ProcessId from = dec.get_u32();
  const std::uint64_t seq = dec.get_u64();
  const InstanceId wab_instance = dec.get_u64();
  // A truncated header or an unknown channel is not ours: drop it silently,
  // like a malformed ack, rather than deliver a forged heartbeat from p0.
  if (!dec.ok() || !known_channel(raw_channel) || from >= cfg_.n) return;
  const auto channel = static_cast<Channel>(raw_channel);
  std::string payload = dec.get_rest();

  if (is_reliable(channel)) {
    fault::CorruptSpec spec;
    if (links_.consume_corruption(from, p, &spec)) {
      // Byte-flip on the wire (flip/scorrupt budget): the receiver sees the
      // corrupted payload now, but neither acks nor dedupe-records the
      // sequence number — so the sender's ARQ retransmits and the clean
      // original still arrives. Detectable corruption costs one
      // retransmission interval, never the message.
      fault::bit_flip(payload, fault::resolve_flip_byte(spec.byte,
                                                        payload.size()),
                      spec.bit);
      if (ep.handler) {
        Delivery d;
        d.channel = channel;
        d.from = from;
        d.bytes = std::move(payload);
        d.wab_instance = wab_instance;
        ep.handler(d);
      }
      return;
    }
    // Ack unconditionally (duplicates included: the ack may have been lost).
    common::Encoder ack;
    ack.put_u8(kTypeAck);
    ack.put_u32(p);
    ack.put_u64(seq);
    raw_send(p, from, ack.take());

    // Dedupe per sender. Scoped: the handler below may send to self, which
    // re-locks this same mutex.
    {
      common::MutexLock lock(ep.mu);
      auto& seen = ep.seen[from];
      if (seq == seen.watermark + 1) {
        ep.seen_through(from, seq);  // in order: nothing to insert
      } else if (seq <= seen.watermark || !seen.above.insert(seq).second) {
        return;
      }
    }
  }

  if (ep.handler) {
    Delivery d;
    d.channel = channel;
    d.from = from;
    d.bytes = std::move(payload);
    d.wab_instance = wab_instance;
    ep.handler(d);
  }
}

Clock::time_point UdpNetwork::run_due_work(ProcessId p) {
  Endpoint& ep = *endpoints_[p];
  const Clock::time_point now = Clock::now();

  // Timers (run outside the lock; they may send).
  std::vector<std::function<void()>> due;
  {
    common::MutexLock lock(ep.mu);
    while (!ep.timers.empty() && ep.timers.top().due <= now) {
      due.push_back(ep.timers.top().fn);
      ep.timers.pop();
    }
  }
  for (auto& fn : due) fn();

  // ARQ retransmissions, with exponential backoff: a datagram that keeps
  // going unacked (receiver slow, link cut) retries at doubling intervals up
  // to the cap instead of hammering at the base rate forever. The same walk
  // finds the next deadline the loop must wake for.
  Clock::time_point next = Clock::time_point::max();
  std::vector<std::pair<ProcessId, std::string>> resend;
  {
    common::MutexLock lock(ep.mu);
    for (auto it = ep.unacked.begin(); it != ep.unacked.end();) {
      const ProcessId to = it->first.first;
      auto& pending = it->second;
      // Entries towards a crashed destination are purged here, not just
      // skipped: crash(to)'s purge races in-flight send()s, so an entry
      // registered just after it would otherwise sit in the table (and back
      // off against a corpse) until the destination restarts and acks.
      if (crashed(to)) {
        it = ep.unacked.erase(it);
        continue;
      }
      if (pending.next_retransmit <= now) {
        resend.emplace_back(to, pending.datagram);
        pending.backoff_ms =
            std::min(pending.backoff_ms * 2.0, cfg_.retransmit_cap_ms);
        pending.next_retransmit = after_ms(pending.backoff_ms);
      }
      next = std::min(next, pending.next_retransmit);
      ++it;
    }
    ep.note_unacked_depth();
    if (!ep.timers.empty()) next = std::min(next, ep.timers.top().due);
  }
  for (const auto& [to, datagram] : resend) {
    if (!crashed(to)) {
      retransmissions_.fetch_add(1, std::memory_order_relaxed);
      if (ep.retrans_ctr != nullptr) ep.retrans_ctr->inc();
      raw_send(p, to, datagram);
    }
  }
  return next;
}

void UdpNetwork::drain_socket(ProcessId p, std::vector<char>& buffer) {
  Endpoint& ep = *endpoints_[p];
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint32_t))];
  for (int i = 0; i < kDrainBatch && !links_.paused(p); ++i) {
    iovec iov{buffer.data(), buffer.size()};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    const ssize_t got = ::recvmsg(ep.fd, &msg, MSG_DONTWAIT);
    if (got < 0) return;  // EAGAIN: the socket is drained
    // SO_RXQ_OVFL: the socket's cumulative drop count when this datagram
    // was queued, attached once it is non-zero.
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET || c->cmsg_type != SO_RXQ_OVFL) continue;
      std::uint32_t total = 0;
      std::memcpy(&total, CMSG_DATA(c), sizeof total);
      if (ep.kernel_drops_ctr != nullptr) {
        ep.kernel_drops_ctr->inc(total - ep.kernel_drops_seen);
      }
      ep.kernel_drops_seen = total;
    }
    if (got == 0 || ep.crashed.load()) continue;  // crashed: discard
    bool drop = false;
    if (cfg_.drop_prob > 0.0) {
      common::MutexLock lock(ep.mu);
      drop = ep.rng.chance(cfg_.drop_prob);
    }
    if (!drop) {
      handle_datagram(p, buffer.data(), static_cast<std::size_t>(got));
    } else if (ep.dropped_ctr != nullptr) {
      ep.dropped_ctr->inc();
    }
  }
}

void UdpNetwork::recv_loop(ProcessId p) {
  Endpoint& ep = *endpoints_[p];
  std::vector<char> buffer(kMaxDatagram + 1);
  // Senders on other threads register ARQ entries without a wake-up; this
  // bound is how late the loop can notice one.
  const Clock::duration max_sleep = ms_duration(cfg_.retransmit_interval_ms / 2);
  Clock::time_point deadline = Clock::now();
  while (!stopping_.load()) {
    if (links_.paused(p)) {
      // SIGSTOP semantics: no receiving, no timers, no ARQ retransmissions.
      // The kernel keeps buffering inbound datagrams (delivered stale after
      // resume, exactly like a real stopped process).
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    const Clock::time_point now = Clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(Clock::duration::zero(),
                 std::min(deadline, now + max_sleep) - now));
    timespec timeout{};
    timeout.tv_sec = static_cast<std::time_t>(ns.count() / 1'000'000'000);
    timeout.tv_nsec = static_cast<long>(ns.count() % 1'000'000'000);
    pollfd pfds[2] = {{ep.fd, POLLIN, 0}, {ep.wake_fd, POLLIN, 0}};
    (void)::ppoll(pfds, 2, &timeout, nullptr);
    if ((pfds[1].revents & POLLIN) != 0) {
      std::uint64_t wakes = 0;
      (void)!::read(ep.wake_fd, &wakes, sizeof wakes);
    }
    if ((pfds[0].revents & POLLIN) != 0) drain_socket(p, buffer);
    deadline =
        ep.crashed.load() ? Clock::time_point::max() : run_due_work(p);
  }
}

}  // namespace zdc::runtime
