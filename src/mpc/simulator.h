// The simulated MPC executor (paper §1.2, Theorem 6.7): every
// ExecMode::kSimulated batch is routed, budgeted, split, retried or grown,
// delivered, and computed locally here.
//
// The batch loop.  A batch is routed to the machines hosting its endpoints
// (Cluster::route_batch), and each machine's claim on local memory s — the
// sketch shard it hosts permanently (resident) plus the sub-batch it is
// delivered — must stay under the per-machine budget.  The batch-dynamic
// MPC line (Nowicki–Onak, arXiv:2002.07800) sizes batches so exactly this
// sum stays under s, so the loop adapts the batch instead of failing it:
//
//   route the chunk -> probe (would resident + delivered fit every
//   machine?) -> if not, charge one control round, cut the chunk where the
//   offending machine's prefix load crosses its headroom, deliver the left
//   part (re-probing it) and walk the remainder the same way -> deliver
//   once it fits.
//
// The split tree is a comb: its spine is the walk over one chunk, its
// leaves the deliveries, so a skewed batch (one hot machine) costs
// ~load/budget deliveries.  Under SplitPolicy::kNone the loop routes and
// delivers without probing (unless growing is on, see below).  Resident
// words are folded once per leaf, from the arenas' resident counters
// (VertexSketches::resident_words(cluster, out): one prefix per block
// boundary per bank), so a split cascade never scans a page map.
//
// One delivery (a leaf).  Before any mutation the leaf rejects a delivery
// to a machine in a fault window and runs the budget pre-scan: a strict
// cluster throws MemoryBudgetExceeded before any page is allocated, any
// cell has run, or any round is charged; a non-strict one records the
// overrun in Stats and proceeds, so benches can measure headroom.  Then it
// charges one synchronous scatter round (Cluster::charge_routed, the same
// charge kRouted mode pays) with the resident peaks on the CommLedger, and
// runs the local-computation half of the round: the (machine x bank) cell
// grid of VertexSketches::update_edges(routed), or a caller's per-machine
// step.  All accounting runs serially, in machine-major order, outside the
// parallel grid, so Stats and the ledger are identical for every thread
// count.
//
// Properties the tests pin down (tests/test_mpc_scheduler.cc,
// tests/test_mpc_fault.cc, tests/test_mpc_grid.cc):
//
//   * Determinism.  The split tree is a pure function of the stream, the
//     budgets, and the geometry: probes read only deterministic state
//     (loads from the content-independent partitioner, resident from the
//     deterministic page allocation), and each cut is a pure function of
//     the chunk and the probe.  Same stream + same budgets => identical
//     split trees, rounds, and final sketches for every ingest thread
//     count and for strict and non-strict clusters alike.
//   * Honest accounting (the round-compression concern, arXiv:1807.08745:
//     compressing work into fewer rounds must not hide communication).
//     Every leaf pays its own full delivery round, and every split
//     additionally charges a broadcast-tree control round under
//     "<label>/scheduler-split".  Probes precede charges, so a rejected
//     attempt costs no phantom round.
//   * Equivalence.  Splitting a batch never changes the sketch state
//     (linearity) — only the accounting.  A run that never overflows is
//     charge-for-charge identical to one delivery per batch.
//
// When splitting cannot help — the offending machine's resident shard
// plus a single unavoidable delta already exceeds the budget (geometry,
// not batch size, is the problem) — or the chunk is one delta, the chunk
// is delivered immediately with NO split round charged: a strict cluster
// then throws MemoryBudgetExceeded from the leaf's pre-scan, a non-strict
// one records the overrun.  The unfixable case is detected up front from
// BudgetProbe::min_leaf_words, so a permanently-over-budget stream costs
// one probe per batch, never a futile split cascade.
//
// Recovery.  Two reactions close the loop the fault-injection layer
// (mpc/fault_injector.h) opens:
//
//   * Transient faults.  A leaf that throws TransientFault (a cell failure
//     rolled back by the leaf, or a machine in a crash window rejected
//     pre-charge) is retried up to SchedulerConfig::max_retries times,
//     under every split policy.  Each retry first charges deterministic
//     backoff — max(remaining crash window, attempt number) idle rounds,
//     which advances the round clock crash windows are keyed on — and
//     then redelivers, both under "<label>/retry".
//   * Machine-growing.  When the probe says the overflow is UNFIXABLE by
//     splitting and SchedulerConfig::grow allows it, the loop doubles the
//     cluster (Cluster::grow()), charges a broadcast control round plus
//     one shuffle round under "<label>/grow-shuffle" — with the full
//     resident state as the shuffle's volume, recorded per NEW machine on
//     the ledger — then re-routes the chunk and resumes, at most kMaxGrows
//     times per simulator.
//
// Both reactions are pure functions of deterministic inputs (the plan's
// clocks, the attempt number, the probe geometry), so a faulted run's
// sketches, ledger, and recovery stats are byte-identical for every ingest
// thread count.
//
// Atomicity caveat: once a batch splits, the reject-whole guarantee holds
// per comb LEAF, not per top-level execute() call.  Leaves that landed
// before a later leaf throws stay applied and charged — they were genuine
// in-budget rounds a real cluster could not unsend either.  A strict-mode
// caller that catches mid-batch MemoryBudgetExceeded must treat the batch
// as partially applied (split_log and subbatches say how far it got).  In
// practice an unfixable leaf is almost always unfixable at the top-level
// probe too (resident only grows), so the throw usually happens before
// anything was delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/comm_ledger.h"
#include "mpc/config.h"

namespace streammpc {

class VertexSketches;

namespace mpc {

class FaultInjector;

// Structured diagnostic: one simulated machine's claim on local memory —
// resident sketch shard plus delivered sub-batch — does not fit its
// budget.  Derives from std::runtime_error (not CheckError — this is a
// *model capacity* condition the driver chose to enforce, not a library
// invariant violation) and carries the offending geometry so callers can
// react programmatically (shrink the batch, grow phi, ...).
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  MemoryBudgetExceeded(std::uint64_t machine, std::uint64_t needed_words,
                       std::uint64_t budget_words, std::string label,
                       std::uint64_t resident_words = 0);

  std::uint64_t machine() const { return machine_; }
  // Total claim: resident_words() + the delivered sub-batch.
  std::uint64_t needed_words() const { return needed_words_; }
  std::uint64_t budget_words() const { return budget_words_; }
  // Resident component of the claim (0 for executions without sketches).
  std::uint64_t resident_words() const { return resident_words_; }
  const std::string& label() const { return label_; }

 private:
  std::uint64_t machine_;
  std::uint64_t needed_words_;
  std::uint64_t budget_words_;
  std::uint64_t resident_words_;
  std::string label_;
};

class Simulator {
 public:
  // One recorded non-strict budget overrun, in deterministic
  // (delivery, machine-ascending) order.
  struct Overrun {
    std::uint64_t machine = 0;
    std::uint64_t needed_words = 0;    // resident + delivered
    std::uint64_t resident_words = 0;  // resident component
    std::uint64_t budget_words = 0;

    friend bool operator==(const Overrun&, const Overrun&) = default;
  };

  // One split, in deterministic pre-order: the chunk (as an offset +
  // length into the top-level batch), its depth in the split tree, and the
  // probe geometry that triggered the split.
  struct Split {
    std::uint64_t offset = 0;  // first delta of the chunk, top-level index
    std::uint64_t size = 0;    // deltas in the chunk
    std::uint32_t depth = 0;   // 0 = the top-level batch itself
    std::uint64_t machine = 0;       // lowest over-budget machine
    std::uint64_t needed_words = 0;  // its resident + delivered claim
    std::uint64_t budget_words = 0;  // the budget it missed

    friend bool operator==(const Split&, const Split&) = default;
  };

  // One machine-growing event: the chunk that forced it and the geometry
  // before/after.
  struct Grow {
    std::uint64_t offset = 0;         // first delta of the forcing chunk
    std::uint64_t size = 0;           // deltas in the forcing chunk
    std::uint64_t machines_before = 0;
    std::uint64_t machines_after = 0;
    std::uint64_t machine = 0;        // the unfixably over-budget machine
    std::uint64_t resident_words = 0; // its resident shard at the decision
    std::uint64_t shuffled_words = 0; // total resident words re-partitioned

    friend bool operator==(const Grow&, const Grow&) = default;
  };

  struct Stats {
    // --- deliveries ---
    std::uint64_t batches = 0;        // deliveries charged
    std::uint64_t machine_steps = 0;  // non-empty machine sub-batches run
    std::uint64_t cell_steps = 0;     // (machine, bank) grid cells scheduled
    std::uint64_t applied_updates = 0;  // items applied, summed over cells
    std::uint64_t peak_step_words = 0;  // largest sub-batch any step held
    // Largest per-machine resident shard observed at any delivery, and the
    // largest resident + delivered total (the full claim against s).
    std::uint64_t peak_resident_words = 0;
    std::uint64_t peak_machine_words = 0;
    // Non-strict mode only: over-budget machines delivered anyway.  The
    // counters are exact; the list keeps the first kMaxOverrunRecords.
    static constexpr std::size_t kMaxOverrunRecords = 4096;
    std::uint64_t budget_overruns = 0;
    std::uint64_t worst_overrun_words = 0;  // max(needed - budget) observed
    std::vector<Overrun> overruns;
    // --- the batch loop ---
    std::uint64_t submitted = 0;         // top-level batches submitted
    std::uint64_t subbatches = 0;        // leaves delivered successfully
    std::uint64_t scheduler_splits = 0;  // comb cuts performed
    std::uint64_t split_rounds = 0;      // control rounds charged for splits
    std::uint64_t exhausted = 0;  // chunks delivered over budget because no
                                  // split or grow could help
    std::uint64_t max_depth = 0;  // deepest split level reached
    // The split tree in pre-order; capped like the overrun list.
    static constexpr std::size_t kMaxSplitRecords = 4096;
    std::vector<Split> split_log;
    // --- recovery ---
    std::uint64_t retries = 0;      // redeliveries after a TransientFault
    std::uint64_t retry_rounds = 0; // backoff rounds charged under ".../retry"
    std::uint64_t grows = 0;        // machine-growing events
    std::uint64_t grow_rounds = 0;  // control+shuffle rounds charged for grows
    std::uint64_t grow_words = 0;   // resident words shuffled across all grows
    std::vector<Grow> grow_log;     // every grow (never more than kMaxGrows)
    // Fault-injection visibility (0 unless a FaultInjector is attached):
    // transient cell failures fired mid-grid, machine-crash rejections
    // thrown pre-charge, rollbacks performed, and the applied-update counts
    // those rollbacks discarded (cell_steps / applied_updates count only
    // successful deliveries, so a retry re-scans the same step window).
    std::uint64_t cell_faults = 0;
    std::uint64_t crash_faults = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rolled_back_updates = 0;
  };

  // `scratch_words` bounds each simulated machine's claim for one delivery
  // (resident shard + delivered sub-batch); 0 = the cluster's local memory
  // s.  Under a strict cluster the effective budget is min(scratch_words,
  // s), since a load above s would otherwise surface as a post-charge
  // CheckError from charge_routed.  `config` sets the loop's split, retry
  // and grow policies.
  explicit Simulator(Cluster& cluster, std::uint64_t scratch_words = 0,
                     const SchedulerConfig& config = {});

  // The batch loop over vertex sketches: routes `deltas` under the vertex
  // universe [0, universe) and delivers them, splitting, retrying and
  // growing as configured.  The final sketch state is identical to one
  // flat update_edges(deltas) — the loop changes rounds, never bytes.  An
  // empty batch is a no-op.
  void execute(std::span<const EdgeDelta> deltas, std::uint64_t universe,
               const std::string& label, VertexSketches& sketches);

  // The same loop for front ends whose per-machine state is not a
  // VertexSketches arena (the matching sparsifiers).  `resident` adds each
  // machine's resident words under the CURRENT geometry into out[m]
  // (out.size() == cluster machines, zeroed; re-queried after a grow),
  // charged and recorded exactly like a sketch shard.  `step` is the local
  // computation, called serially per non-empty machine in ascending order
  // with that machine's CSR sub-batch.  Crash windows and budget spikes
  // apply; there is no cell grid to inject cell faults into.
  using ResidentFn = std::function<void(std::span<std::uint64_t> out)>;
  using MachineStep =
      std::function<void(std::uint64_t machine,
                         std::span<const RoutedBatch::Item> items)>;
  void execute(std::span<const EdgeDelta> deltas, std::uint64_t universe,
               const std::string& label, const ResidentFn& resident,
               const MachineStep& step);

  // One delivery of an already-routed batch — a leaf of the loop, without
  // probing, splitting or retry.  Throws MemoryBudgetExceeded (strict) or
  // TransientFault exactly as described above.
  void execute(const RoutedBatch& routed, const std::string& label,
               VertexSketches& sketches);

  // Non-mutating budget pre-check: would a delivery of `routed` fit every
  // machine's claim (resident shard + delivered sub-batch, spike-scaled)
  // under the effective budget?  Reports the lowest offending machine (the
  // one a strict delivery would throw for) without charging a round,
  // recording an overrun, or touching the sketches.
  struct BudgetProbe {
    bool fits = true;
    std::uint64_t machine = 0;
    std::uint64_t needed_words = 0;    // resident + delivered (spike-scaled)
    std::uint64_t resident_words = 0;  // resident component (raw shard)
    std::uint64_t budget_words = 0;    // effective per-machine budget
    // Smallest claim any leaf still carrying one of this machine's deltas
    // can make: claim(resident + kWordsPerDelta), spike-scaled.  The loop's
    // fixable-by-splitting test compares THIS against the budget.
    std::uint64_t min_leaf_words = 0;
  };
  // The loop probes internally; this public overload is kept only for
  // callers that time the probe on its own (the bench/e2e replay).
  BudgetProbe probe(const RoutedBatch& routed, const VertexSketches& sketches);

  // Attaches a deterministic fault plan (nullptr = none, the default).
  // With an injector attached, every sketch delivery runs transactionally
  // (VertexSketches::begin_transaction bracketing the grid): a crash
  // window rejects the delivery pre-charge, a fired cell fault loses one
  // grid cell and rolls the whole delivery back post-charge — both surface
  // as TransientFault — and budget spikes scale the affected machine's
  // claim in every gate and probe.  An attached EMPTY plan never fires and
  // leaves sketches, ledger, and stats byte-identical to no injector.  The
  // injector must outlive the simulator.
  void attach_fault_injector(FaultInjector* injector) { injector_ = injector; }
  const FaultInjector* fault_injector() const { return injector_; }

  std::uint64_t scratch_words() const { return scratch_words_; }
  const Stats& stats() const { return stats_; }

 private:
  // Cap on machine-growing events over the simulator's lifetime.
  static constexpr std::uint64_t kMaxGrows = 4;

  // What a delivery applies to: the sketch grid, or a caller's resident
  // fold and per-machine step.
  struct Target {
    VertexSketches* sketches = nullptr;
    const ResidentFn* resident = nullptr;
    const MachineStep* step = nullptr;
  };

  void execute_chunk(std::span<const EdgeDelta> deltas, std::uint64_t universe,
                     const std::string& label, const Target& target,
                     std::uint64_t offset, std::uint32_t depth);
  // Delivers routed_ (against resident_scratch_) with the bounded retry
  // loop.  Throws only after retries are exhausted or on a non-transient
  // error.
  void deliver_chunk(const std::string& label, const Target& target);
  // One leaf: gates, charge, local computation.  `resident` is each
  // machine's resident words right before the delivery.
  void deliver(const RoutedBatch& routed, const std::string& label,
               std::span<const std::uint64_t> resident, const Target& target);
  // Folds the target's resident words under the current geometry into
  // resident_scratch_.
  void fold_resident(const Target& target);
  BudgetProbe probe(const RoutedBatch& routed,
                    std::span<const std::uint64_t> resident) const;
  // The cut point: the largest prefix of `deltas` whose load on the
  // offending machine still fits the budget headroom left after its
  // resident shard, clamped to [1, size - 1].
  std::size_t proportional_cut(std::span<const EdgeDelta> deltas,
                               std::uint64_t universe,
                               const BudgetProbe& report) const;
  // Charges the control + shuffle rounds under "<label>/grow-shuffle",
  // doubles the cluster, and records the re-partitioned resident volume.
  void do_grow(const std::string& label, const Target& target,
               std::uint64_t offset, std::uint64_t size,
               const BudgetProbe& probe);

  // Pre-flight of one leaf, split so the sketch path can open its
  // transaction between the gates (zero mutation on throw) and the charge:
  //   fault_gate      — rejects a delivery to a machine in a crash window
  //                     (TransientFault, nothing charged);
  //   budget_gate     — the spike-scaled budget pre-scan: strict throws
  //                     MemoryBudgetExceeded, non-strict records overruns;
  //   charge_delivery — charge_routed + resident ledger record + the
  //                     serial Stats fold.
  void fault_gate(const RoutedBatch& routed, const std::string& label);
  void budget_gate(const RoutedBatch& routed, const std::string& label,
                   std::span<const std::uint64_t> resident);
  void charge_delivery(const RoutedBatch& routed, const std::string& label,
                       std::span<const std::uint64_t> resident);
  // One machine's spike-scaled memory claim at the current cluster round.
  std::uint64_t claim_words(std::uint64_t machine, std::uint64_t words) const;
  // Serial pre-scan of this delivery's cell-step window against the fault
  // plan: consumes and reports the FIRST matching cell fault (later faults
  // stay armed for the retry, which re-scans the same window because
  // cell_steps only advances on success).  Returns false when none fires.
  bool scan_cell_faults(const RoutedBatch& routed, unsigned banks,
                        std::uint64_t* fault_machine, unsigned* fault_bank);
  // Effective per-machine budget: strict clusters are additionally bound
  // by local memory s (see the ctor comment).
  std::uint64_t effective_budget() const;

  Cluster& cluster_;
  std::uint64_t scratch_words_;
  SchedulerConfig config_;
  FaultInjector* injector_ = nullptr;  // not owned; nullptr = no faults
  Stats stats_;
  RoutedBatch routed_;  // per-chunk routing, reused
  std::vector<std::uint64_t> resident_scratch_;  // [machine], reused
  std::uint64_t fault_step_scratch_ = 0;  // step id of the last fired fault
};

}  // namespace mpc
}  // namespace streammpc
