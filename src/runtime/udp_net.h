// Real-socket transport: every process owns a loopback UDP socket and a
// receive thread. The reliable kProtocol channel is built from raw datagrams
// with a sequence/ack/retransmit ARQ (this is the hand-rolled equivalent of
// the asio/TCP boilerplate the paper's middleware used); kHeartbeat and kWab
// ride raw datagrams — genuinely best-effort, just like the paper's UDP
// oracle.
//
// Design:
//   * one socket + one thread per process; handlers, timers and ARQ
//     retransmissions all run on that thread (single-writer protocols);
//   * wire format: [type u8] then
//       data: [channel u8][from u32][seq u64][wab u64][payload...]
//       ack:  [from u32][seq u64]
//     a datagram with a short header, an unknown type or channel, or a
//     sender out of range is dropped silently;
//   * reliable sends carry a per-(sender, receiver) sequence number, are
//     acked by the receiver and retransmitted until acked; receivers dedupe
//     with a watermark + out-of-order set, delivering in arrival order
//     (reliable ≠ FIFO — matching the system model's channels). The set
//     only holds arrivals above a gap that a retransmission will fill; the
//     sequences a crash purges are never resent, so restart(p) raises the
//     watermarks past them on both sides;
//   * an optional artificial drop probability exercises the ARQ in tests;
//   * crash(p) closes the loop: p stops sending/receiving and peers purge
//     their retransmission state towards p.
//
// The receive loop wakes on work, not on a fixed tick. It sleeps in ppoll
// on the socket and an eventfd until the earliest timer or ARQ retransmit
// deadline (run_due_work returns it), with retransmit_interval_ms/2 as the
// upper bound. Every schedule() and shutdown() write the eventfd (from the
// loop's own thread that costs one extra pass). Each wake reads every
// waiting datagram, in batches of 64 so timers and the ARQ still run under
// a flood: at about one op per consensus instance an endpoint receives
// ~40k datagrams/s. The socket keeps the kernel's default receive buffer
// (208 KiB, ~250 datagrams): a 4 MiB buffer removed the kernel drops a host
// stall causes but measured a higher abcast-udp commit p99, not a lower one
// (docs/PERF.md §6). The drops are counted from SO_RXQ_OVFL into
// zdc_udp_kernel_drops_total, and the ARQ resends what was reliable.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/transport.h"

// Locking discipline (checked by -Wthread-safety, see Endpoint in the .cpp):
// each Endpoint owns one common::Mutex guarding its ARQ/dedupe/timer state;
// senders on any thread and the endpoint's recv thread take it briefly and
// never call out while holding it.

namespace zdc::runtime {

class UdpNetwork final : public Transport {
 public:
  struct Config {
    std::uint32_t n = 0;
    std::uint64_t seed = 1;
    /// Initial ARQ retransmission period for unacked reliable datagrams;
    /// doubles per retry (exponential backoff) up to retransmit_cap_ms, so a
    /// long partition does not keep hammering a dead link at full rate.
    double retransmit_interval_ms = 15.0;
    double retransmit_cap_ms = 240.0;
    /// Artificial inbound drop probability on every datagram (ARQ stress).
    double drop_prob = 0.0;
    /// Optional metrics sink (datagrams sent, retransmissions, drops, kernel
    /// receive-buffer drops, unacked-queue depth, labeled by process).
    /// nullptr = metrics off.
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit UdpNetwork(Config cfg);
  ~UdpNetwork() override;

  UdpNetwork(const UdpNetwork&) = delete;
  UdpNetwork& operator=(const UdpNetwork&) = delete;

  // Transport:
  void set_handler(ProcessId p, Handler handler) override;
  void start() override;
  void shutdown() override;
  void send(Channel channel, ProcessId from, ProcessId to, std::string bytes,
            InstanceId wab_instance = 0) override;
  void broadcast(Channel channel, ProcessId from, std::string bytes,
                 InstanceId wab_instance = 0) override;
  void schedule(ProcessId p, double delay_ms, std::function<void()> fn) override;
  void crash(ProcessId p) override;
  [[nodiscard]] bool crashed(ProcessId p) const override;
  void restart(ProcessId p) override;
  [[nodiscard]] fault::LinkPolicy& links() override { return links_; }
  [[nodiscard]] std::uint32_t size() const override { return cfg_.n; }

  /// The UDP port process p is bound to (tests / diagnostics).
  [[nodiscard]] std::uint16_t port(ProcessId p) const;
  /// Total reliable-channel retransmissions (diagnostics).
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_.load(std::memory_order_relaxed);
  }
  /// Reliable datagrams endpoint p holds above its per-sender dedupe
  /// watermarks: the out-of-order arrivals still waiting for a gap to fill
  /// (diagnostics; bounded by the datagrams in flight).
  [[nodiscard]] std::size_t out_of_order(ProcessId p) const;

 private:
  struct Endpoint;

  void recv_loop(ProcessId p);
  void raw_send(ProcessId from, ProcessId to, const std::string& datagram);
  void raw_send_now(ProcessId from, ProcessId to, const std::string& datagram);
  void handle_datagram(ProcessId p, const char* data, std::size_t len);
  /// Reads up to one batch of waiting datagrams into `buffer` and handles
  /// them.
  void drain_socket(ProcessId p, std::vector<char>& buffer);
  /// Runs due timers and ARQ retransmissions; returns when the next is due.
  std::chrono::steady_clock::time_point run_due_work(ProcessId p);

  Config cfg_;
  fault::LinkPolicy links_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> retransmissions_{0};
};

}  // namespace zdc::runtime
