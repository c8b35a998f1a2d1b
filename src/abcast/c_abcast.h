// C-Abcast — Algorithm 3 of the paper (Sec. 7).
//
// Reduces atomic broadcast to a sequence of consensus instances (one per
// round k), seeding each instance's proposals through the WAB ordering
// oracle so that, absent collisions, all processes propose the *same* batch
// and the one-step consensus path fires:
//
//   loop:
//     6:  w-broadcast(k, estimate)          — the pending-message batch
//     7:  wait for the first w-delivery of round k → v
//     8:  msgSet ← Consensus(k, v)
//     9-12: a-deliver msgSet − adelivered atomically in canonical order;
//           estimate ← estimate − adelivered
//     13: k ← k+1
//     14: if estimate = ∅: wait until a round-k w-delivery arrives or
//         estimate ≠ ∅                      — don't spin empty rounds
//   line 16 (concurrent): every w-delivered message joins the estimate, so no
//   a-broadcast message is ever lost.
//
// End-to-end latency: 1δ for the oracle + 1 consensus step when the oracle
// output collided nowhere (2δ total), + 1 more consensus step in stable runs
// with collisions (3δ total) — the headline rows of Table 1.
//
// The consensus module is pluggable (ConsensusFactory): L-Consensus and
// P-Consensus give the paper's protocol; WabConsensus gives the WABCast
// baseline; Paxos gives a CT-style reduction for ablations.
//
// Engineering notes (divergences documented in DESIGN.md):
//  * every w-delivered message is merged into the estimate (the paper merges
//    "the second, third, etc."); the proposed one is removed again when it is
//    a-delivered, and keeping it is what makes Validity robust to a process
//    skipping a round via a forwarded decision;
//  * decisions may arrive (via the DECIDE flood) for rounds this process has
//    not reached; they are stored and replayed in order — the catch-up path;
//  * consensus instances older than the current round are pruned; a laggard
//    never needs their PROPs because the round's decision was flooded.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "abcast/abcast.h"
#include "consensus/consensus.h"
#include "fd/failure_detector.h"

namespace zdc::abcast {

struct BatchingOptions;
void configure_batching(AtomicBroadcast& protocol, const BatchingOptions& opts);

class CAbcast final : public AtomicBroadcast {
 public:
  /// `factory` stamps one consensus instance per round; `display_name` keeps
  /// benches readable ("C-Abcast/L", "WABCast", ...).
  CAbcast(ProcessId self, GroupParams group, AbcastHost& host,
          consensus::ConsensusFactory factory, std::string display_name);
  ~CAbcast() override;

  void on_message(ProcessId from, std::string_view bytes) override;
  void on_w_deliver(InstanceId k, ProcessId origin,
                    const std::string& payload) override;
  void on_fd_change() override;

  [[nodiscard]] std::string name() const override { return display_name_; }

  /// Round currently executed (1-based); for tests.
  [[nodiscard]] InstanceId current_round() const { return round_; }

  /// The per-round batch cap is configured exclusively through
  /// BatchingOptions::c_abcast_max_batch via abcast::configure_batching
  /// (see abcast/batching.h for the knob's semantics).
  friend void configure_batching(AtomicBroadcast& protocol,
                                 const BatchingOptions& opts);
  /// Aggregates transport metrics of all live consensus instances into
  /// metrics().transport; live instances become inert afterwards.
  void finalize_metrics() override;

 protected:
  void submit(AppMessage m) override;

 private:
  static constexpr std::uint8_t kConsTag = 1;
  /// Consensus instances this far behind the current round are pruned.
  static constexpr InstanceId kPruneWindow = 4;
  /// Oracle instance-id layout: the high bits carry the C-Abcast round, the
  /// low bits a consensus-internal sub-stage (0 = the round's own
  /// w-broadcast, >0 = WabConsensus recovery stages).
  static constexpr unsigned kStageBits = 20;
  static constexpr InstanceId kStageMask = (InstanceId{1} << kStageBits) - 1;

  struct Instance;
  /// ConsensusHost adapter framing instance traffic as [kConsTag][k][bytes].
  class InstanceHost;

  enum class Phase : std::uint8_t {
    kIdle,       ///< line 14-15: estimate empty, round not started
    kWaitFirst,  ///< line 7: w-broadcast done, awaiting first oracle output
    kDeciding,   ///< line 8: consensus running
  };

  Instance& instance(InstanceId k);
  void on_instance_decided(InstanceId k, const Value& v);
  /// Drives the state machine until it blocks on an external event.
  void step();
  void complete_round(const Value& decision);
  void prune();
  /// Encodes the pending estimate (not-yet-a-delivered messages, capped by
  /// max_batch_) directly into msg-set wire format, skipping the intermediate
  /// MsgSet copy the old batch path built per round. Returns the batch size.
  std::size_t encode_pending(std::string* out) const;

  consensus::ConsensusFactory factory_;
  std::string display_name_;

  InstanceId round_ = 1;
  Phase phase_ = Phase::kIdle;
  bool driving_ = false;  ///< re-entrancy guard for step()
  /// Per-round cap on messages w-broadcast (and hence ordered); 0 = whole
  /// estimate per round (the paper's algorithm). Excess messages stay in the
  /// estimate and ride later rounds — a batching-vs-latency design knob
  /// (bench_paper's "batch" experiment sets it through
  /// BatchingOptions::c_abcast_max_batch). Set via configure_batching.
  std::size_t max_batch_ = 0;

  MsgSet estimate_;
  std::set<MsgId> adelivered_;
  /// First w-delivered oracle value per instance (the consensus proposal).
  std::map<InstanceId, Value> firsts_;
  std::map<InstanceId, std::unique_ptr<Instance>> instances_;
};

/// The paper's protocol stacks, by name.
std::unique_ptr<CAbcast> make_c_abcast_l(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::OmegaView& omega);
std::unique_ptr<CAbcast> make_c_abcast_p(ProcessId self, GroupParams group,
                                         AbcastHost& host,
                                         const fd::SuspectView& suspects);
/// WABCast baseline: the same skeleton with the oracle-driven WabConsensus.
std::unique_ptr<CAbcast> make_wabcast(ProcessId self, GroupParams group,
                                      AbcastHost& host);

}  // namespace zdc::abcast
