// What every deterministic harness needs to know about a protocol family,
// written once for both: the host interface the protocol talks to, the
// factory that builds one instance per process, and a host that forwards
// each call into its owner (the sim's ProcessShell or check's DirectNet).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "abcast/abcast.h"
#include "common/types.h"
#include "consensus/consensus.h"
#include "fd/failure_detector.h"

namespace zdc::sim {

template <class P>
struct ProtocolTraits;

template <>
struct ProtocolTraits<consensus::Consensus> {
  using Host = consensus::ConsensusHost;
  using Output = Value;  ///< what deliver_decision hands up
};

template <>
struct ProtocolTraits<abcast::AtomicBroadcast> {
  using Host = abcast::AbcastHost;
  using Output = abcast::AppMessage;  ///< what a_deliver hands up
};

/// Builds a protocol instance for one process. The views outlive the protocol.
template <class P>
using ProtocolFactory = std::function<std::unique_ptr<P>(
    ProcessId self, GroupParams group, typename ProtocolTraits<P>::Host& host,
    const fd::OmegaView& omega, const fd::SuspectView& suspects)>;

using SimConsensusFactory = ProtocolFactory<consensus::Consensus>;
using SimAbcastFactory = ProtocolFactory<abcast::AtomicBroadcast>;

/// Process `self`'s host: every call goes to `Owner` tagged with the caller,
/// as owner.send(self, to, bytes), owner.broadcast(self, bytes),
/// owner.w_broadcast(self, k, payload) and owner.output(self, out).
template <class Owner, class P>
class ForwardingHost;

template <class Owner>
class ForwardingHost<Owner, consensus::Consensus> final
    : public consensus::ConsensusHost {
 public:
  ForwardingHost(Owner& owner, ProcessId self) : owner_(owner), self_(self) {}
  void send(ProcessId to, std::string bytes) override {
    owner_.send(self_, to, std::move(bytes));
  }
  void broadcast(std::string bytes) override {
    owner_.broadcast(self_, std::move(bytes));
  }
  void w_broadcast(std::uint64_t stage, std::string payload) override {
    owner_.w_broadcast(self_, stage, std::move(payload));
  }
  void deliver_decision(const Value& v) override { owner_.output(self_, v); }

 private:
  Owner& owner_;
  ProcessId self_;
};

template <class Owner>
class ForwardingHost<Owner, abcast::AtomicBroadcast> final
    : public abcast::AbcastHost {
 public:
  ForwardingHost(Owner& owner, ProcessId self) : owner_(owner), self_(self) {}
  void send(ProcessId to, std::string bytes) override {
    owner_.send(self_, to, std::move(bytes));
  }
  void broadcast(std::string bytes) override {
    owner_.broadcast(self_, std::move(bytes));
  }
  void w_broadcast(InstanceId k, std::string payload) override {
    owner_.w_broadcast(self_, k, std::move(payload));
  }
  void a_deliver(const abcast::AppMessage& m) override {
    owner_.output(self_, m);
  }

 private:
  Owner& owner_;
  ProcessId self_;
};

}  // namespace zdc::sim
