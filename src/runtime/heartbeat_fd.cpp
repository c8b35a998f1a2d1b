#include "runtime/heartbeat_fd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "common/codec.h"
#include "common/log.h"

namespace zdc::runtime {

HeartbeatFd::HeartbeatFd(ProcessId self, Transport& net, Config cfg,
                         std::function<void()> on_change)
    : self_(self),
      net_(net),
      cfg_(cfg),
      on_change_(std::move(on_change)),
      last_seen_(net.size(), Clock::now()),
      last_endorsed_me_(net.size(), Clock::now()),
      endorses_me_(net.size(), false),
      endorse_since_(net.size(), Clock::now()),
      epoch_(Clock::now()),
      bonus_ms_(net.size(), 0.0),
      mean_gap_ms_(net.size(), 0.0),
      dev_gap_ms_(net.size(), 0.0),
      have_gap_(net.size(), false),
      incarnation_of_(net.size(), 0),
      suspected_(std::make_unique<std::atomic<bool>[]>(net.size())),
      n_(net.size()),
      omega_(*this, net.size()) {
  for (std::uint32_t p = 0; p < n_; ++p) {
    suspected_[p].store(false, std::memory_order_relaxed);
  }
  if (cfg_.metrics != nullptr) {
    suspicions_ctr_ = &cfg_.metrics->counter("zdc_fd_suspicions_total",
                                             obs::process_label(self_));
    adaptations_ctr_ = &cfg_.metrics->counter(
        "zdc_fd_timeout_adaptations_total", obs::process_label(self_));
  }
}

double HeartbeatFd::effective_timeout_ms(ProcessId p) const {
  if (!cfg_.adaptive || p >= n_ || !have_gap_[p]) {
    return cfg_.initial_timeout_ms + (p < n_ ? bonus_ms_[p] : 0.0);
  }
  const double adaptive = mean_gap_ms_[p] +
                          cfg_.deviation_factor * dev_gap_ms_[p] +
                          cfg_.margin_ms + bonus_ms_[p];
  return std::max(cfg_.min_timeout_ms, adaptive);
}

double HeartbeatFd::ms_since_quorum_endorsement() const {
  // Majority endorsement freshness: collect each process's "age of its last
  // heartbeat naming me leader" (self = 0, a peer currently naming someone
  // else = +inf) and take the (⌈n/2⌉)-th smallest — the youngest age such
  // that a majority endorses this process within it.
  const Clock::time_point now = Clock::now();
  std::vector<double> ages;
  ages.reserve(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (p == self_) {
      ages.push_back(0.0);
    } else if (!endorses_me_[p]) {
      ages.push_back(std::numeric_limits<double>::infinity());
    } else {
      ages.push_back(std::chrono::duration<double, std::milli>(
                         now - last_endorsed_me_[p])
                         .count());
    }
  }
  const std::size_t majority = n_ / 2 + 1;
  std::nth_element(ages.begin(), ages.begin() + (majority - 1), ages.end());
  return ages[majority - 1];
}

double HeartbeatFd::quorum_endorsement_streak_ms() const {
  if (ms_since_quorum_endorsement() >= cfg_.endorsement_stale_ms) return 0.0;
  // Each process's "endorsing continuously since" clock: self from
  // construction, an endorsing peer from the start of its unbroken run
  // (on_heartbeat resets endorse_since_ across any >= stale gap), a
  // non-endorsing or stale peer never. A member with held-since h was fresh
  // at every instant of [h, now] — its endorsing heartbeats since h are
  // less than one stale-bound apart — so the (⌈n/2⌉)-th smallest held-since
  // H gives a FIXED majority that has endorsed throughout [H, now]. That is
  // the continuity a new leader's pre-serve wait is measured against;
  // taking the k-th smallest of per-member starts is conservative (a
  // rotating quorum could have held longer), which only delays serving.
  const Clock::time_point now = Clock::now();
  std::vector<double> held_ms;
  held_ms.reserve(n_);
  for (ProcessId p = 0; p < n_; ++p) {
    if (p == self_) {
      held_ms.push_back(
          std::chrono::duration<double, std::milli>(now - epoch_).count());
    } else if (!endorses_me_[p] ||
               std::chrono::duration<double, std::milli>(
                   now - last_endorsed_me_[p])
                       .count() >= cfg_.endorsement_stale_ms) {
      held_ms.push_back(0.0);
    } else {
      held_ms.push_back(std::chrono::duration<double, std::milli>(
                            now - endorse_since_[p])
                            .count());
    }
  }
  const std::size_t majority = n_ / 2 + 1;
  // k-th LONGEST held duration == duration held by the k-th best member.
  std::nth_element(held_ms.begin(), held_ms.begin() + (majority - 1),
                   held_ms.end(), std::greater<>());
  return held_ms[majority - 1];
}

void HeartbeatFd::start() {
  ZDC_ASSERT(!started_);
  started_ = true;
  net_.schedule(self_, 0.0, [this] { tick(); });
}

void HeartbeatFd::on_heartbeat(ProcessId from, std::string_view payload) {
  if (from >= n_) return;
  // The payload: the sender's Ω estimate, then its incarnation (see tick()).
  common::Decoder dec(payload);
  ProcessId endorsed_leader = dec.get_u32();
  const std::uint64_t incarnation = dec.get_u64();
  const bool well_formed = dec.done();
  if (!well_formed) endorsed_leader = kNoProcess;
  // A newer incarnation is a restart, not a late heartbeat: the gaps the old
  // incarnation left say nothing about this one.
  const bool restarted = well_formed && incarnation > incarnation_of_[from];
  if (restarted) {
    incarnation_of_[from] = incarnation;
    have_gap_[from] = false;
  }
  const Clock::time_point now = Clock::now();
  if (from != self_) {
    // Endorsement tracking: a heartbeat naming self refreshes the peer's
    // endorsement; one naming anyone else revokes it on the spot (the
    // conservative direction — a revoked endorsement can only downgrade a
    // read to consensus, never serve a stale one).
    const bool endorsing_now = (endorsed_leader == self_);
    if (endorsing_now) {
      // A run is unbroken only while consecutive endorsing heartbeats are
      // less than one stale-bound apart; otherwise the streak restarts here
      // (the peer's endorsement had lapsed in between).
      const double gap_ms = std::chrono::duration<double, std::milli>(
                                now - last_endorsed_me_[from])
                                .count();
      if (!endorses_me_[from] || gap_ms >= cfg_.endorsement_stale_ms) {
        endorse_since_[from] = now;
      }
      last_endorsed_me_[from] = now;
    }
    endorses_me_[from] = endorsing_now;
  }
  const bool was_suspected = suspected_[from].load(std::memory_order_relaxed);
  if (cfg_.adaptive && from != self_ && !was_suspected && !restarted) {
    // Jacobson/Karels estimator over inter-arrival gaps. Gaps spanning a
    // suspicion are excluded: a pause/crash outage would blow the mean up and
    // stall completeness for everyone's benefit of one outlier — the
    // false-suspicion bonus below handles those instead.
    const double gap_ms =
        std::chrono::duration<double, std::milli>(now - last_seen_[from])
            .count();
    if (!have_gap_[from]) {
      mean_gap_ms_[from] = gap_ms;
      dev_gap_ms_[from] = gap_ms / 2.0;
      have_gap_[from] = true;
    } else {
      const double err = gap_ms - mean_gap_ms_[from];
      mean_gap_ms_[from] += err / 8.0;
      dev_gap_ms_[from] += (std::abs(err) - dev_gap_ms_[from]) / 4.0;
    }
  }
  last_seen_[from] = now;
  if (was_suspected) {
    suspected_[from].store(false, std::memory_order_release);
    if (restarted) {
      // The peer really crashed and came back: the suspicion was right.
      ZDC_LOG(kDebug, "heartbeat-fd")
          << "p" << self_ << " unsuspects restarted p" << from;
    } else {
      // False suspicion: revoke and back off this peer's timeout so that,
      // once delays stabilize, it is never falsely suspected again.
      bonus_ms_[from] += cfg_.timeout_increment_ms;
      false_suspicions_.fetch_add(1, std::memory_order_relaxed);
      if (adaptations_ctr_ != nullptr) adaptations_ctr_->inc();
      ZDC_LOG(kDebug, "heartbeat-fd")
          << "p" << self_ << " unsuspects p" << from << ", timeout now "
          << effective_timeout_ms(from) << "ms";
    }
    if (on_change_) on_change_();
  }
}

void HeartbeatFd::restart_on_worker() {
  const Clock::time_point now = Clock::now();
  for (ProcessId p = 0; p < n_; ++p) {
    last_seen_[p] = now;
    // Endorsements from before the outage are void: peers may have moved to
    // another leader while this socket was dead. Invalidate (not refresh) —
    // the lease gate must start from scratch.
    endorses_me_[p] = false;
  }
  epoch_ = now;  // self's held-since restarts with the incarnation
  ++incarnation_;
  tick();
}

bool HeartbeatFd::suspects(ProcessId p) const {
  return p < n_ && suspected_[p].load(std::memory_order_acquire);
}

void HeartbeatFd::tick() {
  // The payload carries this process's current Ω estimate — the endorsement
  // that read-index leases are built from (see ms_since_quorum_endorsement)
  // — and its incarnation, so peers can tell a restart from a late beat.
  common::Encoder hb;
  hb.put_u32(omega_.leader());
  hb.put_u64(incarnation_);
  net_.broadcast(Channel::kHeartbeat, self_, hb.take());
  last_seen_[self_] = Clock::now();  // never suspect yourself

  bool changed = false;
  const Clock::time_point now = Clock::now();
  for (ProcessId p = 0; p < n_; ++p) {
    if (p == self_ || suspected_[p].load(std::memory_order_relaxed)) continue;
    const double silent_ms =
        std::chrono::duration<double, std::milli>(now - last_seen_[p]).count();
    if (silent_ms > effective_timeout_ms(p)) {
      suspected_[p].store(true, std::memory_order_release);
      changed = true;
      if (suspicions_ctr_ != nullptr) suspicions_ctr_->inc();
      ZDC_LOG(kDebug, "heartbeat-fd")
          << "p" << self_ << " suspects p" << p << " after " << silent_ms
          << "ms of silence";
    }
  }
  if (changed && on_change_) on_change_();
  net_.schedule(self_, cfg_.interval_ms, [this] { tick(); });
}

}  // namespace zdc::runtime
