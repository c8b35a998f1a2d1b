// bench_paper — the paper's evaluation as one self-checking artifact
// (EXPERIMENTS.md): every cell of Table 1 and Figures 2-3 (Sec. 8), the
// one-step and zero-degradation experiments behind Defs. 1-3, the recovery
// runs of the Sec. 1 motivation, four ablations and a synthetic WAN, on the
// calibrated discrete-event model with fixed seeds. It writes
// BENCH_paper.json (schema zdc-bench-paper-v1): "rows", one per cell with
// its experiment, protocol, swept variables, measured fields, seed and
// "timebase": "simulated"; and "claims", one {id, statement, holds} per
// verdict EXPERIMENTS.md states, each a predicate over the rows whose
// threshold comes from the paper's statement, not from the output.
// --validate recomputes every claim from the rows and fails unless each
// recorded verdict matches and holds. Stdout prints one line per claim.
//
// Usage:
//   bench_paper [--out FILE]      # run + emit BENCH_paper.json
//   bench_paper --validate FILE   # schema-check and re-check the claims
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench_artifact.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/abcast_world.h"
#include "sim/consensus_world.h"
#include "sim/sequence_world.h"

namespace zdc::bench {
namespace {

// ---------------------------------------------------------------------------
// The runners. Every row starts with the experiment, the protocol and the
// group, then the cell's swept variables, and ends with the measured
// fields, the seed and the timebase.

Object head(const char* experiment, const std::string& protocol,
            GroupParams group, const Object& swept) {
  Object row = {{"experiment", str(experiment)},
                {"protocol", str(protocol)},
                {"n", integer(group.n)},
                {"f", integer(group.f)}};
  row.insert(row.end(), swept.begin(), swept.end());
  return row;
}

Value with_tail(Object row, const Object& measured, std::uint64_t seed) {
  row.insert(row.end(), measured.begin(), measured.end());
  row.emplace_back("seed", integer(seed));
  row.emplace_back("timebase", str("simulated"));
  return object(std::move(row));
}

/// One a-broadcast cell: `protocol` on `cfg` once per seed, the per-run
/// means averaged with equal weights (every run sends the same message
/// count). Paxos keeps its clients off the leader, the paper's deployment
/// (the group orders a workload from elsewhere), so every message pays
/// Table 1's client-to-leader hop.
Value abcast_cell(const char* experiment, const std::string& protocol,
                  sim::AbcastRunConfig cfg,
                  const std::vector<std::uint64_t>& seeds,
                  std::uint64_t seed_label, Object swept = {}) {
  if (protocol == "paxos") {
    for (ProcessId p = 1; p < cfg.group.n; ++p) {
      cfg.workload_senders.push_back(p);
    }
  }
  common::Sampler run_means;
  double messages = 0;
  std::uint64_t instances = 0;
  std::uint64_t consensus_instances = 0;
  std::uint64_t rounds = 0;
  bool safe = true;
  bool complete = true;
  for (const std::uint64_t seed : seeds) {
    cfg.with_seed(seed);
    const auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
    run_means.add(r.latency_ms.mean());
    messages += r.messages_per_abcast();
    instances += r.totals.consensus_instances / cfg.group.n;
    consensus_instances += r.totals.consensus_instances;
    rounds += r.totals.transport.rounds_started;
    safe = safe && r.safe();
    complete = complete && r.agreement_ok && r.undelivered == 0;
  }
  // One communication delay: propagation, mean jitter and the two
  // per-message CPU touches of a hop.
  const double delta = cfg.net.base_delay_ms + cfg.net.jitter_mean_ms +
                       cfg.net.cpu_send_ms + cfg.net.cpu_recv_ms;
  const double mean = run_means.mean();
  const double rounds_per_instance =
      static_cast<double>(rounds) /
      static_cast<double>(std::max<std::uint64_t>(consensus_instances, 1));
  swept.insert(swept.begin(), {"throughput", fixed(cfg.throughput_per_s, 0)});
  return with_tail(
      head(experiment, protocol, cfg.group, swept),
      {{"mean_latency_ms", fixed(mean, 6)},
       {"latency_delta", fixed(mean / delta, 6)},
       {"messages_per_abcast",
        fixed(messages / static_cast<double>(seeds.size()), 6)},
       {"instances", integer(instances)},
       {"rounds_per_instance", fixed(rounds_per_instance, 6)},
       {"safe", boolean(safe)},
       {"complete", boolean(complete)}},
      seed_label);
}

/// One consensus cell: `runs` instances with seeds first_seed, first_seed+1,
/// ..., the lowest `crashes` ids dead from the start (the natural leader is
/// among them) and a stable failure detector, which suspects exactly the
/// crashed processes from t = 0 (Def. 2). Steps and latency are over the
/// processes that decided on the round path.
Value consensus_cell(
    const char* experiment, const std::string& protocol,
    const sim::SimConsensusFactory& factory, GroupParams group,
    std::uint32_t crashes, std::uint64_t first_seed, std::uint32_t runs,
    const std::function<std::vector<std::string>()>& proposals,
    Object swept = {}) {
  common::OnlineStats steps;
  common::OnlineStats latency;
  std::uint64_t one_step = 0;
  bool ok = true;
  for (std::uint32_t i = 0; i < runs; ++i) {
    sim::ConsensusRunConfig cfg;
    cfg.with_group(group).with_net(sim::calibrated_lan_2006());
    cfg.with_seed(first_seed + i);
    cfg.fd.mode = sim::FdMode::kStable;
    for (ProcessId c = 0; c < crashes; ++c) {
      sim::CrashSpec spec;
      spec.p = c;
      spec.initial = true;
      cfg.crashes.push_back(spec);
    }
    cfg.proposals = proposals();
    const auto r = sim::run_consensus(cfg, factory);
    ok = ok && r.safe() && r.all_correct_decided;
    for (const auto& o : r.outcomes) {
      if (!o.decided || o.path != consensus::DecisionPath::kRound) continue;
      if (o.steps == 1) ++one_step;
      steps.add(o.steps);
      latency.add(o.decide_time);
    }
  }
  const double deciders = static_cast<double>(steps.count());
  swept.insert(swept.begin(), {"crashes", integer(crashes)});
  return with_tail(
      head(experiment, protocol, group, swept),
      {{"one_step_fraction",
        fixed(deciders == 0 ? 0.0 : one_step / deciders, 6)},
       {"mean_steps", fixed(steps.mean(), 6)},
       {"mean_latency_ms", fixed(latency.mean(), 6)},
       {"ok", boolean(ok)}},
      first_seed);
}

/// The recovery runs: consensus as 12 back-to-back instances, p0 crashing
/// before instance 6 under a crash-tracking detector with a 3 ms detection
/// delay, so the crash propagates as an *initial* failure into every later
/// instance (Dutta et al.'s recovery-overhead argument). One row per
/// instance.
void recovery_series(const std::string& protocol, Rows* rows) {
  constexpr std::uint32_t kCrashBefore = 6;
  sim::SequenceConfig cfg;
  cfg.with_group(GroupParams{4, 1}).with_net(sim::calibrated_lan_2006());
  cfg.fd.mode = sim::FdMode::kCrashTracking;
  cfg.fd.detection_delay_ms = 3.0;
  cfg.with_seed(31);
  cfg.instances = 12;
  cfg.crash_process = 0;
  cfg.crash_before_instance = kCrashBefore;
  cfg.divergent_proposals = true;
  const auto r = sim::run_consensus_sequence(
      cfg, sim::consensus_factory_by_name(protocol));
  for (std::size_t i = 0; i < r.instances.size(); ++i) {
    rows->push_back(with_tail(
        head("recovery", protocol, cfg.group,
             {{"crash_before", integer(kCrashBefore)},
              {"instance", integer(i)}}),
        {{"mean_steps", fixed(r.instances[i].mean_steps, 6)},
         {"first_decision_ms", fixed(r.instances[i].first_decision, 6)},
         {"safe", boolean(r.instances[i].safe)},
         {"complete", boolean(r.all_complete)}},
        cfg.seed));
  }
}

// ---------------------------------------------------------------------------
// The experiments: each is a table of parameters (groups, net model, rates,
// message counts, repeats and seeds) behind one EXPERIMENTS.md section.

GroupParams group_of(const std::string& protocol) {
  return protocol == "paxos" ? GroupParams{3, 1} : GroupParams{4, 1};
}

sim::AbcastRunConfig lan_run(GroupParams group, double throughput,
                             std::uint32_t messages) {
  sim::AbcastRunConfig cfg;
  cfg.with_group(group).with_net(sim::calibrated_lan_2006());
  cfg.throughput_per_s = throughput;
  cfg.message_count = messages;
  return cfg;
}

Rows run_experiments() {
  Rows rows;

  // Table 1: the no-collision (20 msg/s) and collision (500 msg/s) regimes.
  for (const std::string protocol : {"paxos", "wabcast", "c-l", "c-p"}) {
    for (const double rate : {20.0, 500.0}) {
      rows.push_back(abcast_cell(
          "table1", protocol,
          lan_run(group_of(protocol), rate, rate < 50 ? 120 : 600), {7}, 7));
    }
  }

  // Figures 2 and 3: 600 messages per point, three repeats whose seeds
  // common::mix_seed draws from (base, protocol, rate, repeat).
  const std::vector<double> figure_rates = {20,  50,  80,  100, 150, 200,
                                            250, 300, 350, 400, 450, 500};
  struct Figure {
    const char* experiment;
    std::vector<std::string> protocols;
    std::uint64_t seed_base;
  };
  for (const Figure& fig : {Figure{"fig2", {"c-l", "c-p", "wabcast"}, 42},
                            Figure{"fig3", {"c-l", "c-p", "paxos"}, 99}}) {
    for (const double rate : figure_rates) {
      for (const std::string& protocol : fig.protocols) {
        std::vector<std::uint64_t> seeds;
        for (std::uint64_t rep = 0; rep < 3; ++rep) {
          seeds.push_back(common::mix_seed(fig.seed_base, protocol, rate, rep));
        }
        rows.push_back(abcast_cell(fig.experiment, protocol,
                                   lan_run(group_of(protocol), rate, 600),
                                   seeds, fig.seed_base));
      }
    }
  }

  // One-step decisions (Defs. 1-2): 60 instances per cell; each draws
  // unanimous proposals with probability p, else one of n values per
  // process, from an rng seeded per cell.
  for (const std::string protocol :
       {"l", "p", "brasileiro-l", "paxos", "wab", "ct", "fast-paxos"}) {
    const GroupParams group = group_of(protocol);
    for (const double p : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      common::Rng rng(0xabcdef + static_cast<std::uint64_t>(p * 1000));
      const auto proposals = [&rng, p, n = group.n] {
        std::vector<std::string> values;
        if (rng.chance(p)) {
          values.assign(n, "agreed");
        } else {
          for (ProcessId q = 0; q < n; ++q) {
            values.push_back("v" + std::to_string(rng.next_below(n)));
          }
        }
        return values;
      };
      rows.push_back(consensus_cell(
          "onestep", protocol, sim::consensus_factory_by_name(protocol), group,
          0, 1000, 60, proposals, {{"p_unanimous", fixed(p, 2)}}));
    }
  }

  // Zero-degradation (Def. 3): divergent proposals, 40 instances per cell,
  // 0 and c initial crashes at n = 4 (n = 3 for Paxos) and at n = 7, f = 2.
  for (const std::string protocol :
       {"l", "p", "brasileiro-l", "fast-paxos", "ct", "paxos"}) {
    for (const auto& [group, crashes] : {std::pair{group_of(protocol), 1u},
                                         std::pair{GroupParams{7, 2}, 2u}}) {
      if (protocol == "paxos" && group.n == 7) continue;
      const auto divergent = [n = group.n] {
        std::vector<std::string> values;
        for (ProcessId p = 0; p < n; ++p) {
          values.push_back("v" + std::to_string(p));
        }
        return values;
      };
      for (const std::uint32_t c : {0u, crashes}) {
        rows.push_back(consensus_cell(
            "zerodeg", protocol, sim::consensus_factory_by_name(protocol),
            group, c, 9000, 40, divergent));
      }
    }
  }

  for (const std::string protocol : {"l", "p", "ct", "paxos", "brasileiro-l"}) {
    recovery_series(protocol, &rows);
  }

  // Ablation, oracle quality: UDP disorder jitter at 300 msg/s.
  for (const double jitter : {0.0, 0.3, 0.6, 1.2, 2.4}) {
    for (const std::string protocol : {"c-l", "c-p", "wabcast", "paxos"}) {
      sim::AbcastRunConfig cfg = lan_run(group_of(protocol), 300, 500);
      cfg.net.wab_extra_jitter_ms = jitter;
      rows.push_back(abcast_cell("collisions", protocol, cfg, {11}, 11,
                                 {{"jitter_ms", fixed(jitter, 1)}}));
    }
  }

  // Ablation, resilience: per tolerated f, n = 3f+1 for the one-step
  // stacks and n = 2f+1 for Paxos, at 150 msg/s.
  for (const std::uint32_t f : {1u, 2u, 3u}) {
    for (const std::string protocol : {"c-l", "c-p", "paxos"}) {
      const GroupParams group{protocol == "paxos" ? 2 * f + 1 : 3 * f + 1, f};
      rows.push_back(abcast_cell("resilience", protocol,
                                 lan_run(group, 150, 400), {23}, 23));
    }
  }

  // Ablation, Lamport's (e, f) fast consensus over Paxos: unanimous
  // proposals, c <= f initial crashes, seeds 1-20.
  struct EfPoint {
    std::uint32_t n, e, f;
  };
  for (const EfPoint& pt : {EfPoint{4, 1, 1}, EfPoint{5, 1, 2},
                            EfPoint{6, 2, 1}, EfPoint{7, 2, 2},
                            EfPoint{9, 1, 4}}) {
    for (std::uint32_t crashes = 0; crashes <= pt.f; ++crashes) {
      rows.push_back(consensus_cell(
          "ef", "ef-paxos", sim::ef_consensus_factory(pt.e, "paxos"),
          GroupParams{pt.n, pt.f}, crashes, 1, 20,
          [n = pt.n] { return std::vector<std::string>(n, "agreed"); },
          {{"e", integer(pt.e)}}));
    }
  }

  // Ablation, C-Abcast batch cap (0 = the paper's whole estimate), set
  // through the world's batching options.
  for (const std::size_t cap : {1u, 2u, 4u, 8u, 0u}) {
    for (const double rate : {100.0, 300.0, 500.0}) {
      sim::AbcastRunConfig cfg = lan_run(GroupParams{4, 1}, rate, 400);
      cfg.batching.c_abcast_max_batch = cap;
      rows.push_back(abcast_cell("batch", "c-l", cfg, {17}, 17,
                                 {{"batch_cap", integer(cap)}}));
    }
  }

  // Extension: a synthetic WAN (20 ms propagation, ms-scale disorder).
  for (const double rate : {2.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    for (const std::string protocol : {"c-l", "c-p", "wabcast", "paxos"}) {
      sim::AbcastRunConfig cfg = lan_run(group_of(protocol), rate, 150);
      cfg.with_net(sim::synthetic_wan());
      cfg.time_limit_ms = 3'600'000.0;
      rows.push_back(abcast_cell("wan", protocol, cfg, {9}, 9));
    }
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Claims: predicates over the rows, as a reader of the artifact sees them.
// A missing row reads as NaN, which fails every comparison.

double get(const Value& row, const char* key) {
  return row.get(key)->number;
}

/// The rows of one experiment and protocol, in document order.
std::vector<const Value*> series(const Rows& rows, std::string_view experiment,
                                 std::string_view protocol) {
  std::vector<const Value*> out;
  for (const Value& row : rows) {
    if (row.get("experiment")->text == experiment &&
        row.get("protocol")->text == protocol) {
      out.push_back(&row);
    }
  }
  return out;
}

/// Whether x prints as `target` with `decimals` decimals.
bool prints_as(double x, double target, int decimals) {
  return std::abs(x - target) < 0.5 * std::pow(10.0, -decimals);
}

/// Whether each protocol has rows in `experiment` and every one passes.
bool every(const Rows& rows, std::string_view experiment,
           std::initializer_list<const char*> protocols,
           const std::function<bool(const Value&)>& pred) {
  return std::all_of(protocols.begin(), protocols.end(), [&](auto protocol) {
    const auto cells = series(rows, experiment, protocol);
    return !cells.empty() &&
           std::all_of(cells.begin(), cells.end(),
                       [&](const Value* row) { return pred(*row); });
  });
}

/// A row predicate: its mean_steps prints as `target`.
std::function<bool(const Value&)> steps_print_as(double target, int decimals) {
  return [=](const Value& row) {
    return prints_as(get(row, "mean_steps"), target, decimals);
  };
}

/// "Flat", "comparable": every value within 5 % of the smallest.
bool within_5_percent(const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return !values.empty() && *hi <= *lo * 1.05;
}

/// One experiment's measured `key` against its swept variable.
struct Table {
  const Rows& rows;
  const char* experiment;
  const char* swept;
  const char* key;

  double operator()(std::string_view protocol, double value) const {
    for (const Value* row : series(rows, experiment, protocol)) {
      if (get(*row, swept) == value) return get(*row, key);
    }
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<double> column(std::string_view protocol) const {
    std::vector<double> out;
    for (const Value* row : series(rows, experiment, protocol)) {
      out.push_back(get(*row, key));
    }
    return out;
  }
  /// Whether each `slow` protocol measured more than each `fast` one at
  /// every swept value `where` selects, and there is one.
  bool above(const std::function<bool(double)>& where,
             std::initializer_list<const char*> slow,
             std::initializer_list<const char*> fast) const {
    bool any = false;
    for (const Value* row : series(rows, experiment, *fast.begin())) {
      const double v = get(*row, swept);
      if (!where(v)) continue;
      any = true;
      for (const char* s : slow) {
        for (const char* f : fast) {
          if (!((*this)(s, v) > (*this)(f, v))) return false;
        }
      }
    }
    return any;
  }
};

struct Claim {
  const char* id;
  const char* statement;
  bool (*holds)(const Rows&);
};

const Claim kClaims[] = {
    {"table1.paxos_exact",
     "Paxos sends 13.0 messages (n^2+n+1) and takes 3.0δ per a-broadcast in "
     "both regimes",
     [](const Rows& r) {
       return series(r, "table1", "paxos").size() == 2 &&
              every(r, "table1", {"paxos"}, [](const Value& row) {
                return prints_as(get(row, "messages_per_abcast"), 13, 1) &&
                       prints_as(get(row, "latency_delta"), 3, 1);
              });
     }},
    {"table1.one_step_stacks_between_2_and_3_delta",
     "Without collisions (20 msg/s), L, P and WABCast take at least 2δ and "
     "less than Paxos's 3δ",
     [](const Rows& r) {
       const Table delta{r, "table1", "throughput", "latency_delta"};
       return delta.above([](double t) { return t == 20; }, {"paxos"},
                          {"c-l", "c-p", "wabcast"}) &&
              delta("c-l", 20) >= 2 && delta("c-p", 20) >= 2 &&
              delta("wabcast", 20) >= 2;
     }},
    {"table1.wabcast_slowest_under_collisions",
     "Under collisions (500 msg/s), WABCast is the slowest stack",
     [](const Rows& r) {
       return Table{r, "table1", "throughput", "latency_delta"}.above(
           [](double t) { return t == 500; }, {"wabcast"},
           {"c-l", "c-p", "paxos"});
     }},
    {"fig2.comparable_up_to_80",
     "Up to 80 msg/s, L, P and WABCast are within 5 % of each other",
     [](const Rows& r) {
       const Table ms{r, "fig2", "throughput", "mean_latency_ms"};
       return every(r, "fig2", {"c-l"}, [&ms](const Value& row) {
         const double t = get(row, "throughput");
         return t > 80 || within_5_percent({ms("c-l", t), ms("c-p", t),
                                            ms("wabcast", t)});
       });
     }},
    {"fig2.wabcast_behind_from_200",
     "WABCast is slower than L and P at every rate from 200 msg/s",
     [](const Rows& r) {
       return Table{r, "fig2", "throughput", "mean_latency_ms"}.above(
           [](double t) { return t >= 200; }, {"wabcast"}, {"c-l", "c-p"});
     }},
    {"fig3.one_step_stacks_faster_at_20",
     "At 20 msg/s, L and P are faster than Paxos",
     [](const Rows& r) {
       return Table{r, "fig3", "throughput", "mean_latency_ms"}.above(
           [](double t) { return t == 20; }, {"paxos"}, {"c-l", "c-p"});
     }},
    {"fig3.paxos_faster_from_crossover",
     "Paxos is faster than L and P at every rate from a crossover between "
     "20 and 300 msg/s",
     [](const Rows& r) {
       // The crossover: the lowest rate from which Paxos wins at every rate.
       const Table ms{r, "fig3", "throughput", "mean_latency_ms"};
       for (const Value* row : series(r, "fig3", "paxos")) {
         const double c = get(*row, "throughput");
         if (ms.above([c](double t) { return t >= c; }, {"c-l", "c-p"},
                      {"paxos"})) {
           return c > 20 && c <= 300;
         }
       }
       return false;
     }},
    {"onestep.fast_at_unanimity",
     "l, p, brasileiro-l, wab and fast-paxos decide 100 % in one step when "
     "proposals are unanimous",
     [](const Rows& r) {
       const Table fast{r, "onestep", "p_unanimous", "one_step_fraction"};
       for (const char* p : {"l", "p", "brasileiro-l", "wab", "fast-paxos"}) {
         if (!prints_as(100 * fast(p, 1), 100, 0)) return false;
       }
       return true;
     }},
    {"onestep.paxos_ct_never_fast",
     "paxos and ct decide 0 % in one step at every proposal mix",
     [](const Rows& r) {
       return every(r, "onestep", {"paxos", "ct"}, [](const Value& row) {
         return prints_as(100 * get(row, "one_step_fraction"), 0, 0);
       });
     }},
    {"zerodeg.l_p_two_steps",
     "L and P take exactly 2.00 steps with 0 and with c initial crashes "
     "(n=4 and n=7)",
     [](const Rows& r) {
       return series(r, "zerodeg", "l").size() == 4 &&
              series(r, "zerodeg", "p").size() == 4 &&
              every(r, "zerodeg", {"l", "p"}, steps_print_as(2, 2));
     }},
    {"zerodeg.brasileiro_three_steps",
     "Brasileiro takes 3.00 steps in every stable run",
     [](const Rows& r) {
       return every(r, "zerodeg", {"brasileiro-l"}, steps_print_as(3, 2));
     }},
    {"zerodeg.paxos_four_steps_without_owner",
     "Single-decree Paxos takes 4.00 steps once the ballot-0 owner is dead",
     [](const Rows& r) {
       return prints_as(
           Table{r, "zerodeg", "crashes", "mean_steps"}("paxos", 1), 4, 2);
     }},
    {"recovery.l_p_back_at_two",
     "l and p are back at 2 steps from the instance after the crash",
     [](const Rows& r) {
       return every(r, "recovery", {"l", "p"}, [](const Value& row) {
         return get(row, "instance") <= get(row, "crash_before") ||
                steps_print_as(2, 1)(row);
       });
     }},
    {"recovery.paxos_stays_at_four",
     "paxos takes 4 steps in every instance from the crash on",
     [](const Rows& r) {
       return every(r, "recovery", {"paxos"}, [](const Value& row) {
         return get(row, "instance") < get(row, "crash_before") ||
                steps_print_as(4, 1)(row);
       });
     }},
    {"recovery.ct_three_throughout",
     "ct takes 3 steps in every instance",
     [](const Rows& r) {
       return every(r, "recovery", {"ct"}, steps_print_as(3, 1));
     }},
    {"collisions.paxos_flat",
     "Paxos stays within 5 % across oracle jitter",
     [](const Rows& r) {
       return within_5_percent(
           Table{r, "collisions", "jitter_ms", "mean_latency_ms"}.column(
               "paxos"));
     }},
    {"collisions.wabcast_slowest",
     "WABCast is the slowest oracle stack at every jitter above 0",
     [](const Rows& r) {
       return Table{r, "collisions", "jitter_ms", "mean_latency_ms"}.above(
           [](double jitter) { return jitter > 0; }, {"wabcast"},
           {"c-l", "c-p"});
     }},
    {"resilience.one_step_stacks_send_more",
     "At every f, L and P (n=3f+1) send more messages per a-broadcast than "
     "Paxos (n=2f+1)",
     [](const Rows& r) {
       return Table{r, "resilience", "f", "messages_per_abcast"}.above(
           [](double) { return true; }, {"c-l", "c-p"}, {"paxos"});
     }},
    {"ef.fast_path_iff_c_le_e",
     "The (e,f) fast path decides 100 % in one step when c ≤ e and 0 % when "
     "c > e",
     [](const Rows& r) {
       return every(r, "ef", {"ef-paxos"}, [](const Value& row) {
         const bool fast = get(row, "crashes") <= get(row, "e");
         return prints_as(100 * get(row, "one_step_fraction"),
                          fast ? 100 : 0, 0);
       });
     }},
    {"batch.cap_one_costs",
     "At 500 msg/s, a batch cap of 1 is slower and uses more consensus "
     "instances than no cap",
     [](const Rows& r) {
       const auto at_500 = [&r](double cap, const char* key) {
         for (const Value* row : series(r, "batch", "c-l")) {
           if (get(*row, "batch_cap") == cap &&
               get(*row, "throughput") == 500) {
             return get(*row, key);
           }
         }
         return std::numeric_limits<double>::quiet_NaN();
       };
       return at_500(1, "mean_latency_ms") > at_500(0, "mean_latency_ms") &&
              at_500(1, "instances") > at_500(0, "instances");
     }},
    {"wan.paxos_flat",
     "On the WAN, Paxos stays within 5 % across rates",
     [](const Rows& r) {
       return within_5_percent(
           Table{r, "wan", "throughput", "mean_latency_ms"}.column("paxos"));
     }},
    {"wan.oracle_stacks_twice_paxos",
     "On the WAN from 25 msg/s on, L, P and WABCast take at least 2x as long "
     "as Paxos",
     [](const Rows& r) {
       const Table ms{r, "wan", "throughput", "mean_latency_ms"};
       return every(r, "wan", {"paxos"}, [&ms](const Value& row) {
         const double t = get(row, "throughput");
         const double twice = 2 * get(row, "mean_latency_ms");
         return t < 25 || (ms("c-l", t) >= twice && ms("c-p", t) >= twice &&
                           ms("wabcast", t) >= twice);
       });
     }},
};

// ---------------------------------------------------------------------------
// The artifact.

/// The keys every row has, then each runner's own.
constexpr Key kCommonKeys[] = {
    {"experiment", Kind::kString}, {"protocol", Kind::kString},
    {"n", Kind::kNumber},          {"f", Kind::kNumber},
    {"seed", Kind::kNumber},       {"timebase", Kind::kString}};
constexpr Key kAbcastKeys[] = {
    {"throughput", Kind::kNumber},    {"mean_latency_ms", Kind::kNumber},
    {"latency_delta", Kind::kNumber}, {"messages_per_abcast", Kind::kNumber},
    {"instances", Kind::kNumber},     {"rounds_per_instance", Kind::kNumber},
    {"safe", Kind::kBool},            {"complete", Kind::kBool}};
constexpr Key kConsensusKeys[] = {
    {"crashes", Kind::kNumber},    {"one_step_fraction", Kind::kNumber},
    {"mean_steps", Kind::kNumber}, {"mean_latency_ms", Kind::kNumber},
    {"ok", Kind::kBool}};
constexpr Key kSequenceKeys[] = {
    {"crash_before", Kind::kNumber}, {"instance", Kind::kNumber},
    {"mean_steps", Kind::kNumber},   {"first_decision_ms", Kind::kNumber},
    {"safe", Kind::kBool},           {"complete", Kind::kBool}};

/// Each experiment's runner, and the swept variable its keys do not name.
struct Experiment {
  const char* name;
  std::span<const Key> keys;
  const char* swept;
};
const Experiment kExperiments[] = {
    {"table1", kAbcastKeys, nullptr},     {"fig2", kAbcastKeys, nullptr},
    {"fig3", kAbcastKeys, nullptr},       {"wan", kAbcastKeys, nullptr},
    {"resilience", kAbcastKeys, nullptr}, {"batch", kAbcastKeys, "batch_cap"},
    {"collisions", kAbcastKeys, "jitter_ms"},
    {"onestep", kConsensusKeys, "p_unanimous"},
    {"zerodeg", kConsensusKeys, nullptr}, {"ef", kConsensusKeys, "e"},
    {"recovery", kSequenceKeys, nullptr}};

/// Every row has its experiment's keys and is simulated; every claim is
/// the one this binary computes, and it holds on the rows.
std::string check_rows_and_claims(const Value& doc) {
  const Rows& rows = doc.get("rows")->items;
  for (const Value& row : rows) {
    const Value* experiment = row.get("experiment");
    const Experiment* spec = nullptr;
    for (const Experiment& e : kExperiments) {
      if (experiment != nullptr && experiment->text == e.name) spec = &e;
    }
    if (spec == nullptr) return "row without a known experiment";
    std::vector<Key> keys(std::begin(kCommonKeys), std::end(kCommonKeys));
    keys.insert(keys.end(), spec->keys.begin(), spec->keys.end());
    if (spec->swept != nullptr) keys.push_back({spec->swept, Kind::kNumber});
    const std::string err = check_keys(row, keys, experiment->text + " row");
    if (!err.empty()) return err;
    if (row.get("timebase")->text != "simulated") {
      return experiment->text + " row is not simulated";
    }
  }
  const Rows& claims = doc.get("claims")->items;
  if (claims.size() != std::size(kClaims)) return "wrong number of claims";
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const std::string id = kClaims[i].id;
    if (claims[i].get("id")->text != id) return "claim " + id + " missing";
    const bool recorded = claims[i].get("holds")->number != 0;
    if (recorded != kClaims[i].holds(rows)) {
      return "claim " + id + " disagrees with its rows";
    }
    if (!recorded) return "claim " + id + " does not hold";
  }
  return {};
}

constexpr Key kScalars[] = {{"schema", Kind::kString}};
constexpr Key kClaimKeys[] = {{"id", Kind::kString},
                              {"statement", Kind::kString},
                              {"holds", Kind::kBool}};
constexpr ArraySpec kArrays[] = {{"rows", {}, true},
                                 {"claims", kClaimKeys, true}};
const Artifact kArtifact{"bench_paper", "zdc-bench-paper-v1",
                         "BENCH_paper.json", false, kScalars, kArrays,
                         check_rows_and_claims};

int run(int argc, char** argv) {
  Options opts;
  const int status = parse_flags(kArtifact, argc, argv, &opts);
  if (status >= 0) return status;

  Rows rows = run_experiments();
  Rows claims;
  for (const Claim& claim : kClaims) {
    const bool holds = claim.holds(rows);
    std::printf("%-5s  %s: %s\n", holds ? "holds" : "FAILS", claim.id,
                claim.statement);
    claims.push_back(object({{"id", str(claim.id)},
                             {"statement", str(claim.statement)},
                             {"holds", boolean(holds)}}));
  }
  const Value doc = object({{"schema", str(kArtifact.schema)},
                            {"rows", list(std::move(rows))},
                            {"claims", list(std::move(claims))}});
  return write_artifact(kArtifact, doc, opts.out);
}

}  // namespace
}  // namespace zdc::bench

int main(int argc, char** argv) { return zdc::bench::run(argc, argv); }
