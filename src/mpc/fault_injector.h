// Deterministic fault injection for the simulated MPC cluster.
//
// A production-scale executor must *survive* machine faults and resident
// overflow, not just detect them (ROADMAP north star; the batch-dynamic
// MPC line — Nowicki–Onak, arXiv:2002.07800 — leans on exactly the
// recompute-from-sketch idempotence this layer exercises).  The injector
// holds a *fault plan*: a fixed, fully deterministic set of fault records
// built explicitly (add_*) or from a seeded generator (random_plan).  The
// Simulator consults the plan at well-defined points of its serial
// accounting path, so a faulted run is byte-identical for every grid
// thread count — faults are a function of the stream and the plan, never
// of the schedule.
//
// Three fault kinds, keyed on the two deterministic clocks the executor
// already maintains:
//
//   * transient cell failure at step k — fires when the global cell-step
//     counter (Simulator::Stats::cell_steps, which advances only on
//     *successful* deliveries) reaches k.  One-shot: the record is consumed
//     when it fires, so the retried delivery re-runs the same step window
//     without re-hitting it (but DOES hit any later fault in the window —
//     a plan with f faults in one window needs f retries).
//   * machine crash for rounds [a, b) — machine m is unreachable while the
//     cluster's synchronous round counter (Cluster::rounds()) lies in the
//     window.  The executor rejects the delivery pre-charge; a recovering
//     scheduler charges idle wait rounds, which advance the very clock the
//     window is keyed on — a deterministic closed loop.
//   * budget spike ×f on machine m for rounds [a, b) — the machine's
//     memory claim is scaled by factor_num/factor_den (rounded up) in
//     every budget scan and probe inside the window, modelling transient
//     co-tenant pressure.  Fixable spikes trigger scheduler splits;
//     unfixable ones look like resident overflow.
//
// The empty plan never fires and never alters a single byte or charge —
// attaching an empty injector is observationally identical to attaching
// none (asserted in tests/test_mpc_fault.cc).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace streammpc::mpc {

enum class FaultKind : std::uint8_t {
  kCellFailure,
  kMachineCrash,
  kBudgetSpike,
};

// A recoverable fault surfaced by the Simulator: the delivery (or the grid
// work of the delivery) was lost, the sketches and — for mid-grid cell
// faults — the arenas have been rolled back to their pre-batch bytes, and
// the attempt's charged rounds stand (round-compression honesty: a real
// cluster cannot unsend a round either).  The Simulator's batch loop
// retries it; a caller of the single-delivery execute() sees it propagate.
class TransientFault : public std::runtime_error {
 public:
  TransientFault(FaultKind kind, std::uint64_t machine, std::uint64_t round,
                 std::string label, std::uint64_t retry_after_rounds);

  FaultKind kind() const { return kind_; }
  std::uint64_t machine() const { return machine_; }
  // Cluster round (crashes/spikes) or global cell step (cell failures) at
  // which the fault fired.
  std::uint64_t round() const { return round_; }
  const std::string& label() const { return label_; }
  // Idle rounds until a retry can succeed: the remaining crash window for
  // machine crashes, 0 for consumed one-shot cell failures.
  std::uint64_t retry_after_rounds() const { return retry_after_rounds_; }

 private:
  FaultKind kind_;
  std::uint64_t machine_;
  std::uint64_t round_;
  std::uint64_t retry_after_rounds_;
  std::string label_;
};

class FaultInjector {
 public:
  struct CellFault {
    std::uint64_t step = 0;  // global cell-step index at which it fires
    bool fired = false;      // one-shot consumption state
  };
  struct MachineCrash {
    std::uint64_t machine = 0;
    std::uint64_t first_round = 0;  // down while round in [first, last)
    std::uint64_t last_round = 0;
  };
  struct BudgetSpike {
    std::uint64_t machine = 0;
    std::uint64_t first_round = 0;  // active while round in [first, last)
    std::uint64_t last_round = 0;
    std::uint64_t factor_num = 2;  // claim multiplier, as a rational so the
    std::uint64_t factor_den = 1;  // scaling is exact integer arithmetic
  };

  // Seeded random-plan geometry; every field is part of the plan's
  // deterministic identity (same config => same plan, bit for bit).
  struct RandomPlanConfig {
    std::uint64_t seed = 0x5eedfa17;
    std::uint64_t machines = 1;         // machine ids drawn from [0, machines)
    std::uint64_t cell_faults = 0;      // one-shot cell failures
    std::uint64_t step_horizon = 1024;  // cell-fault steps in [0, horizon)
    std::uint64_t crashes = 0;
    std::uint64_t round_horizon = 64;  // crash/spike windows start in [0, h)
    std::uint64_t crash_rounds = 2;    // length of each crash window
    std::uint64_t spikes = 0;
    std::uint64_t spike_rounds = 4;  // length of each spike window
    std::uint64_t spike_factor = 2;  // integer claim multiplier
  };

  // Empty plan: never fires.
  FaultInjector() = default;

  static FaultInjector random_plan(const RandomPlanConfig& config);

  // --- explicit plan construction ------------------------------------------
  void add_cell_fault(std::uint64_t step);
  void add_machine_crash(std::uint64_t machine, std::uint64_t first_round,
                         std::uint64_t last_round);
  void add_budget_spike(std::uint64_t machine, std::uint64_t first_round,
                        std::uint64_t last_round, std::uint64_t factor_num,
                        std::uint64_t factor_den = 1);

  bool empty() const {
    return cell_faults_.empty() && crashes_.empty() && spikes_.empty();
  }

  // --- queries (the Simulator's consultation surface) ----------------------
  // One-shot: true exactly once for an unfired cell fault at `step`.
  // Called only from the executor's *serial* pre-scan, so consumption order
  // is deterministic.
  bool consume_cell_fault(std::uint64_t step);

  // Whether machine `machine` is inside any crash window at `round`.
  bool machine_down(std::uint64_t machine, std::uint64_t round) const;

  // First round >= `round` at which the machine is outside every crash
  // window (== `round` when it is already up); handles overlapping and
  // back-to-back windows.
  std::uint64_t next_up_round(std::uint64_t machine, std::uint64_t round) const;

  // `words` scaled by every spike active on (machine, round), rounded up.
  std::uint64_t scaled_claim(std::uint64_t machine, std::uint64_t round,
                             std::uint64_t words) const;

  struct Stats {
    std::uint64_t cell_faults_fired = 0;  // one-shot records consumed
  };
  const Stats& stats() const { return stats_; }

  const std::vector<CellFault>& cell_faults() const { return cell_faults_; }
  const std::vector<MachineCrash>& crashes() const { return crashes_; }
  const std::vector<BudgetSpike>& spikes() const { return spikes_; }

 private:
  std::vector<CellFault> cell_faults_;
  std::vector<MachineCrash> crashes_;
  std::vector<BudgetSpike> spikes_;
  Stats stats_;
};

}  // namespace streammpc::mpc
