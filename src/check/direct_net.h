// Direct-drive harness: runs protocol instances with *manual* message
// delivery, so a caller controls exactly which process receives which
// message or oracle datagram in which order — the level of control the
// paper's Figure-1 run constructions assume, and the substrate the schedule-
// space model checker (src/check/explorer.h) enumerates.
//
// Unlike the simulator worlds (time-driven), messages here sit in per-edge
// queues until they are delivered explicitly. Every nondeterministic input —
// which pending message to deliver, which oracle datagram to release, who
// crashes, what the failure detectors say — is an explicit call, which is
// what makes each one a recordable choice point (src/check/choice.h).
//
// One net serves both protocol families: ConsensusNet drives
// consensus::Consensus instances, AbcastNet atomic-broadcast stacks. Members
// that only make sense for one family (propose/decided, a_broadcast/
// total_order_ok) are instantiated only when used.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "abcast/abcast.h"
#include "check/invariants.h"
#include "common/types.h"
#include "consensus/consensus.h"
#include "fault/corrupt.h"
#include "fd/failure_detector.h"
#include "sim/protocol_host.h"

namespace zdc::check {

/// Settable failure-detector stubs, one pair per process.
struct StubFd {
  struct Omega final : fd::OmegaView {
    [[nodiscard]] ProcessId leader() const override { return value; }
    ProcessId value = 0;
  };
  struct Suspects final : fd::SuspectView {
    [[nodiscard]] bool suspects(ProcessId p) const override {
      return p < flags.size() && flags[p];
    }
    std::vector<bool> flags;
  };
  Omega omega;
  Suspects suspects;
};

template <class P>
class DirectNet {
 public:
  using Output = typename sim::ProtocolTraits<P>::Output;

  DirectNet(GroupParams group, const sim::ProtocolFactory<P>& factory)
      : group_(group), outputs_(group.n), crashed_(group.n, false) {
    fds_.reserve(group.n);
    hosts_.reserve(group.n);
    for (ProcessId p = 0; p < group.n; ++p) {
      fds_.push_back(std::make_unique<StubFd>());
      fds_[p]->suspects.flags.assign(group.n, false);
      hosts_.push_back(std::make_unique<Host>(*this, p));
    }
    for (ProcessId p = 0; p < group.n; ++p) {
      protocols_.push_back(factory(p, group, *hosts_[p], fds_[p]->omega,
                                   fds_[p]->suspects));
    }
  }

  [[nodiscard]] GroupParams group() const { return group_; }

  P& protocol(ProcessId p) { return *protocols_[p]; }
  [[nodiscard]] const P& protocol(ProcessId p) const { return *protocols_[p]; }
  StubFd& fd(ProcessId p) { return *fds_[p]; }
  [[nodiscard]] const StubFd& fd(ProcessId p) const { return *fds_[p]; }

  void set_leader_everywhere(ProcessId leader) {
    for (auto& fd : fds_) fd->omega.value = leader;
  }
  /// Runs p's FD-change handler, unless p is crashed.
  void notify_fd_change(ProcessId p) {
    if (!crashed(p)) protocols_[p]->on_fd_change();
  }
  void notify_fd_change_all() {
    for (ProcessId p = 0; p < group_.n; ++p) notify_fd_change(p);
  }

  // --- consensus ---

  void propose(ProcessId p, Value v) { protocols_[p]->propose(std::move(v)); }
  [[nodiscard]] bool decided(ProcessId p) const {
    return protocols_[p]->decided();
  }
  [[nodiscard]] const Value& decision(ProcessId p) const {
    return protocols_[p]->decision();
  }

  // --- atomic broadcast ---

  abcast::MsgId a_broadcast(ProcessId p, std::string payload) {
    const abcast::MsgId id = protocols_[p]->a_broadcast(std::move(payload));
    submitted_.push_back(id);
    return id;
  }
  /// Every id handed out by a_broadcast — the ground truth for the
  /// No-creation invariant (check_no_creation / check_abcast).
  [[nodiscard]] const std::vector<abcast::MsgId>& submitted() const {
    return submitted_;
  }
  /// Pairwise prefix consistency of the delivery histories (Uniform Total
  /// Order), via the shared invariant library.
  [[nodiscard]] bool total_order_ok() const {
    return !check_total_order(outputs_).has_value();
  }

  /// What p's host handed up, in order: every deliver_decision (consensus —
  /// the Uniform Integrity probe: a correct protocol decides exactly once per
  /// incarnation, see check::check_integrity) or every a-delivery.
  [[nodiscard]] const std::vector<Output>& delivered(ProcessId p) const {
    return outputs_[p];
  }
  [[nodiscard]] const std::vector<std::vector<Output>>& histories() const {
    return outputs_;
  }

  // --- transport ---

  /// Number of undelivered messages queued on edge from→to.
  [[nodiscard]] std::size_t pending(ProcessId from, ProcessId to) const {
    const auto it = edges_.find({from, to});
    return it == edges_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::size_t pending_total() const {
    std::size_t total = 0;
    for (const auto& [edge, q] : edges_) total += q.size();
    return total;
  }

  /// Delivers the oldest queued message from→to; returns false if none.
  bool deliver_one(ProcessId from, ProcessId to) {
    const auto it = edges_.find({from, to});
    if (it == edges_.end() || it->second.empty()) return false;
    std::string bytes = std::move(it->second.front());
    it->second.pop_front();
    if (!crashed(to)) protocols_[to]->on_message(from, bytes);
    return true;
  }

  /// Delivers every queued message on from→to.
  void deliver_edge(ProcessId from, ProcessId to) {
    while (deliver_one(from, to)) {
    }
  }

  /// Drains every transport edge (repeatedly, since deliveries generate new
  /// traffic). Oracle datagrams stay queued; settle() drains those too.
  void deliver_all() { drain(false); }
  /// Drains transport edges and oracle datagrams until quiescent.
  void settle() { drain(true); }

  /// Discards all queued messages from `from` to `to`.
  void drop_edge(ProcessId from, ProcessId to) { edges_.erase({from, to}); }

  /// Consumes the oldest message on from→to *without* running the handler —
  /// the recipient died on arrival (kCrashDeliver m=0). Returns false if
  /// the edge is empty.
  bool drop_one(ProcessId from, ProcessId to) {
    const auto it = edges_.find({from, to});
    if (it == edges_.end() || it->second.empty()) return false;
    it->second.pop_front();
    return true;
  }

  // --- corruption ---

  /// Size of the oldest queued message on from→to (0 when the edge is
  /// empty) — lets a caller aim a byte flip at a frame position.
  [[nodiscard]] std::size_t front_size(ProcessId from, ProcessId to) const {
    const auto it = edges_.find({from, to});
    return it == edges_.end() || it->second.empty() ? 0
                                                    : it->second.front().size();
  }

  /// Delivers a byte-flipped COPY of the oldest queued message from→to; the
  /// clean original stays queued — the reliable channel's checksummed
  /// retransmission still carries the real bytes, so corruption can never
  /// destroy a message, only precede it with garbage. `byte` accepts
  /// fault::kMiddleByte; positions past the end are clamped by resolve.
  /// Returns false if the edge is empty or the recipient is crashed.
  bool deliver_corrupt(ProcessId from, ProcessId to, std::uint64_t byte,
                       std::uint32_t bit) {
    const auto it = edges_.find({from, to});
    if (it == edges_.end() || it->second.empty() || crashed(to)) return false;
    std::string copy = it->second.front();
    fault::bit_flip(copy, fault::resolve_flip_byte(byte, copy.size()), bit);
    protocols_[to]->on_message(from, copy);
    return true;
  }

  /// Arms the equivocating-sender mutant: every transport broadcast by p
  /// delivers per-receiver *divergent* bytes — the last byte of each remote
  /// copy is flipped in a receiver-specific bit (the last byte of a
  /// PaxosAbcast p2a/p2b frame is payload tail, so divergent copies decode
  /// fine and smuggle different app payloads into the same slot). The
  /// sender's own copy stays clean. This is the planted byzantine fault the
  /// Uniform Total Order oracle must catch.
  void arm_equivocation(ProcessId p) { equivocating_ = p; }

  // --- ordering-oracle channel ---

  /// Oracle datagrams queued by `from`, not yet delivered.
  [[nodiscard]] std::size_t pending_wab(ProcessId from) const {
    const auto it = wab_out_.find(from);
    return it == wab_out_.end() ? 0 : it->second.size();
  }

  /// Takes the oldest oracle datagram of `from` and delivers it to every
  /// process (spontaneous order), or only to `targets` if given. A partial
  /// delivery re-queues the datagram at the back: the WAB oracle's Validity
  /// property promises *eventual* delivery to every correct process, so an
  /// adversary may delay and reorder oracle traffic but not destroy it
  /// (duplicates are fine — Uniform Integrity is the receiver's problem and
  /// every consumer in this codebase is idempotent).
  bool deliver_wab(ProcessId from,
                   const std::vector<ProcessId>* targets = nullptr) {
    const auto it = wab_out_.find(from);
    if (it == wab_out_.end() || it->second.empty()) return false;
    auto datagram = it->second.front();
    it->second.pop_front();
    for (ProcessId to = 0; to < group_.n; ++to) {
      if (targets != nullptr &&
          std::find(targets->begin(), targets->end(), to) == targets->end()) {
        continue;
      }
      if (!crashed(to)) {
        protocols_[to]->on_w_deliver(datagram.first, from, datagram.second);
      }
    }
    if (targets != nullptr) it->second.push_back(std::move(datagram));
    return true;
  }

  // --- crash and recovery ---

  /// The process stops participating; its queued outbound traffic survives
  /// unless dropped explicitly (messages already "on the wire").
  void crash(ProcessId p) { crashed_[p] = true; }
  [[nodiscard]] bool crashed(ProcessId p) const { return crashed_[p]; }

  /// Crash-recovery: replaces p's protocol with a fresh incarnation built by
  /// `factory` (which may re-inject durable state) and marks p alive again.
  /// Pending inbound traffic survives the restart (it is "on the wire").
  void replace_protocol(ProcessId p, const sim::ProtocolFactory<P>& factory) {
    protocols_[p] = factory(p, group_, *hosts_[p], fds_[p]->omega,
                            fds_[p]->suspects);
    crashed_[p] = false;
  }

  /// Snapshot of everything `from` has emitted so far: its n transport
  /// queues, its oracle queue, then its delivered() count — for trim_out().
  [[nodiscard]] std::vector<std::size_t> out_sizes(ProcessId from) const {
    std::vector<std::size_t> sizes(group_.n + 2, 0);
    for (ProcessId to = 0; to < group_.n; ++to) {
      sizes[to] = pending(from, to);
    }
    sizes[group_.n] = pending_wab(from);
    sizes[group_.n + 1] = outputs_[from].size();
    return sizes;
  }

  /// Discards exactly what `from` emitted since an out_sizes() snapshot —
  /// the dying event's sends and upcalls — by popping the *back* of its
  /// queues, leaving older traffic already on the wire intact. Front pops by
  /// concurrent deliveries cannot be confused with back pushes here because
  /// one thread drives the net.
  void trim_out(ProcessId from, const std::vector<std::size_t>& sizes) {
    for (ProcessId to = 0; to < group_.n; ++to) {
      auto it = edges_.find({from, to});
      if (it == edges_.end()) continue;
      while (it->second.size() > sizes[to]) it->second.pop_back();
    }
    const auto wab = wab_out_.find(from);
    if (wab != wab_out_.end()) {
      while (wab->second.size() > sizes[group_.n]) wab->second.pop_back();
    }
    outputs_[from].resize(sizes[group_.n + 1]);
  }

 private:
  using Host = sim::ForwardingHost<DirectNet, P>;
  friend Host;

  void drain(bool oracle) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (ProcessId from = 0; from < group_.n; ++from) {
        while (oracle && deliver_wab(from)) progressed = true;
        for (ProcessId to = 0; to < group_.n; ++to) {
          if (deliver_one(from, to)) progressed = true;
        }
      }
    }
  }

  // Host calls.
  void send(ProcessId from, ProcessId to, std::string bytes) {
    if (!crashed(from)) edges_[{from, to}].push_back(std::move(bytes));
  }
  void broadcast(ProcessId from, std::string bytes) {
    if (crashed(from)) return;
    const bool equivocate = equivocating_ == from && !bytes.empty();
    for (ProcessId to = 0; to < group_.n; ++to) {
      if (equivocate && to != from) {
        edges_[{from, to}].push_back(
            fault::bit_flip_copy(bytes, bytes.size() - 1, to % 8u));
      } else {
        edges_[{from, to}].push_back(bytes);
      }
    }
  }
  void w_broadcast(ProcessId from, std::uint64_t k, std::string payload) {
    if (!crashed(from)) wab_out_[from].emplace_back(k, std::move(payload));
  }
  void output(ProcessId p, const Output& out) { outputs_[p].push_back(out); }

  GroupParams group_;
  std::vector<std::unique_ptr<StubFd>> fds_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<P>> protocols_;
  std::vector<std::vector<Output>> outputs_;
  std::vector<abcast::MsgId> submitted_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<std::string>> edges_;
  std::map<ProcessId, std::deque<std::pair<std::uint64_t, std::string>>>
      wab_out_;
  std::vector<bool> crashed_;
  /// kNoProcess = honest run; otherwise the armed equivocating sender.
  ProcessId equivocating_ = kNoProcess;
};

using ConsensusNet = DirectNet<consensus::Consensus>;
using AbcastNet = DirectNet<abcast::AtomicBroadcast>;

}  // namespace zdc::check
