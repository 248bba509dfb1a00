// Per-machine MPC simulation executor, scheduled as a 2-D work grid.
//
// PR 2's routing layer made per-machine loads *observable*: a batch is
// split into per-machine sub-batches (Cluster::route_batch) and the loads
// are charged on the CommLedger.  PR 3's executor made them *executed*:
// each simulated machine ingests only its own CSR sub-batch under a
// bounded scratch budget, machine by machine.  This version closes the
// remaining gap to the model, in both directions:
//
//  * Parallelism.  In the MPC model every machine computes its round
//    locally, in parallel — but the PR 3 executor serialized the machine
//    steps in wall-clock.  A machine step is itself a loop over the t
//    sketch banks, so the batch's real work grid is machines x banks, and
//    within a bank two machines' cells touch disjoint vertices (the router
//    delivers each endpoint's delta only to the machine hosting it, and
//    machines host disjoint vertex blocks).  After the sketches
//    pre-allocate every page the batch will touch in a deterministic
//    canonical-order pass (VertexSketches::begin_routed_cells), the cells
//    share no mutable state at all, and the executor schedules the whole
//    grid onto the sketches' work-stealing ingest pool (its width is
//    GraphSketchConfig::ingest_threads; the Simulator owns no threads).
//    All cell arithmetic is commutative integer/Mersenne addition into
//    disjoint pre-sized cells, so ANY schedule — any thread count, any
//    completion order — leaves the arenas byte-identical to serial
//    machine-by-machine ingest (asserted across ingest_threads {1, 2, 8}
//    in tests/test_mpc_grid.cc).
//
//  * Memory fidelity.  The model's binding resource is each machine's
//    local memory s, and a machine's claim on it is not just the delivered
//    sub-batch (scratch) but the sketch shard it hosts *permanently* —
//    the arena pages of its vertex block (resident).  Before every
//    delivery (and every probe) the executor folds resident[m] for all
//    machines at once (VertexSketches::resident_words(cluster, out)),
//    charges resident + delivered against the budget, records the peaks
//    on the CommLedger, and surfaces both components in Stats.  Each
//    arena keeps its resident words as counters updated where pages are
//    allocated and freed, so the fold is O(banks * machines * log n) and
//    never scans a page map — nothing is memoized, and insert streams
//    that allocate pages on every batch pay the same as saturated ones.
//    The batch-dynamic MPC line (Nowicki–Onak, arXiv:2002.07800) and the
//    round-compression work (arXiv:1807.08745) both size batches so
//    exactly this sum stays under s; charging only the delivery, as an
//    earlier executor did, understated the claim.
//
// Determinism of accounting: the budget pre-scan, the resident fold, the
// delivery charge, and the Stats fold all run serially, in machine-major
// order, strictly outside the parallel section — cells only write their
// own slot of a pre-sized scratch vector.  Stats (including the overrun
// list) and the CommLedger are therefore identical for every thread count.
//
// Round semantics are unchanged from PR 3: delivering the routed batch is
// one synchronous scatter round (Cluster::charge_routed, same as kRouted
// mode); the grid cells are the local-computation half of that round, so
// phase_rounds() reflects the same O(1/phi) schedule the theorems bound.
//
// The grid itself is no longer this class's private machinery: every
// ingest path — flat, routed, simulated — lowers to the same mpc::ExecPlan
// and executes the same begin_routed_cells + ingest_cell pipeline.  The
// Simulator's added value is purely the model accounting around it
// (delivery rounds, budget enforcement, resident fidelity, stats), plus
// probe(), the non-mutating budget pre-check the adaptive batch scheduler
// (mpc::BatchScheduler) builds its split decisions on.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/comm_ledger.h"
#include "mpc/exec_plan.h"

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
  // (batch, machine-ascending) order — the list two runs of the same
  // stream must reproduce exactly, regardless of thread count.
  struct Overrun {
    std::uint64_t machine = 0;
    std::uint64_t needed_words = 0;    // resident + delivered
    std::uint64_t resident_words = 0;  // resident component
    std::uint64_t budget_words = 0;

    friend bool operator==(const Overrun&, const Overrun&) = default;
  };

  struct Stats {
    std::uint64_t batches = 0;        // routed batches executed
    std::uint64_t machine_steps = 0;  // non-empty machine sub-batches run
    std::uint64_t cell_steps = 0;     // (machine, bank) grid cells scheduled
    std::uint64_t applied_updates = 0;  // items applied, summed over cells
    std::uint64_t peak_step_words = 0;  // largest sub-batch any step held
    // Resident-memory fidelity: largest per-machine sketch shard observed
    // at any delivery, and the largest resident + delivered total — the
    // machine's full claim against local memory s.
    std::uint64_t peak_resident_words = 0;
    std::uint64_t peak_machine_words = 0;
    // Non-strict mode only: over-budget machines that were executed anyway,
    // with the overrun list in deterministic order.  The counters are
    // exact; the list keeps only the first kMaxOverrunRecords entries so a
    // stream that is permanently over budget (the small-phi sweep cells)
    // cannot grow it without bound.
    static constexpr std::size_t kMaxOverrunRecords = 4096;
    std::uint64_t budget_overruns = 0;
    std::uint64_t worst_overrun_words = 0;  // max(needed - budget) observed
    std::vector<Overrun> overruns;
    // Batch-scheduler visibility: splits an attached mpc::BatchScheduler
    // performed on this simulator's behalf (each split turns one rejected
    // delivery into two retried ones; the extra
    // delivery rounds appear in `batches` and on the CommLedger).
    std::uint64_t scheduler_splits = 0;
    // Fault-injection visibility (0 unless a FaultInjector is attached):
    // transient cell failures fired mid-grid, machine-crash rejections
    // thrown pre-charge, batch rollbacks performed, and the applied-update
    // counts those rollbacks discarded (cell_steps / applied_updates only
    // ever count *successful* deliveries, so the retry step window is
    // re-scanned deterministically).
    std::uint64_t cell_faults = 0;
    std::uint64_t crash_faults = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t rolled_back_updates = 0;
  };

  // `scratch_words` bounds each simulated machine's claim for one step
  // (resident shard + delivered sub-batch); 0 = the cluster's local
  // memory s.  Enforcement follows the cluster's strictness: strict
  // clusters throw MemoryBudgetExceeded *before any page has been
  // allocated, any cell has run, and any round has been charged* (the
  // batch is rejected whole, keeping the sketches and accounting
  // untouched) — under a strict cluster the effective per-step budget is
  // min(scratch_words, s), since a load above s would otherwise surface
  // as a post-charge CheckError from charge_routed; non-strict clusters
  // record overruns in stats() and proceed, so benches can measure
  // headroom instead of dying.
  explicit Simulator(Cluster& cluster, std::uint64_t scratch_words = 0);

  // Delivers `routed` (one charge_routed scatter round + ledger record)
  // and runs the machines x banks cell grid.
  void execute(const RoutedBatch& routed, const std::string& label,
               VertexSketches& sketches);

  // Same, but schedules the machine rows in the given order — `order` must
  // be a permutation of [0, machines).  Exists to make the order-invariance
  // property testable; front ends always use ascending order.  (Page
  // preparation is always canonical, so even the byte state is
  // order-independent.)
  void execute(const RoutedBatch& routed, const std::string& label,
               VertexSketches& sketches, std::span<const std::uint64_t> order);

  // Sketch-free executor for front ends whose per-machine state is not a
  // VertexSketches shard (the matching sparsifiers): same delivery charge,
  // budget pre-scan, and stats, with the local computation delegated to
  // `step`, called serially per non-empty machine in ascending order with
  // that machine's CSR sub-batch.  `resident` (one entry per machine) is
  // the caller's per-machine resident state — e.g. AKLY sampler shards —
  // charged against the budget and recorded on the ledger exactly like a
  // sketch shard.  Fault injection applies to crashes and spikes only (there
  // is no cell grid, and the step's state is the caller's to roll back).
  using MachineStep =
      std::function<void(std::uint64_t machine,
                         std::span<const RoutedBatch::Item> items)>;
  void execute(const RoutedBatch& routed, const std::string& label,
               const MachineStep& step,
               std::span<const std::uint64_t> resident);

  // Non-mutating budget pre-check: would execute(routed, ., sketches) fit
  // every machine's claim (resident shard + delivered sub-batch) under the
  // effective budget?  Reports the lowest offending machine (the same one
  // a strict execute would throw for) without charging a round, recording
  // an overrun, or touching the sketches.  This is the mpc::BatchScheduler
  // decision input: probe, split while it reports an overflow, execute
  // once it fits — identical behavior for strict and non-strict clusters.
  struct BudgetProbe {
    bool fits = true;
    std::uint64_t machine = 0;
    std::uint64_t needed_words = 0;    // resident + delivered (spike-scaled)
    std::uint64_t resident_words = 0;  // resident component (raw shard)
    std::uint64_t budget_words = 0;    // effective per-machine budget
    // Smallest claim any leaf still carrying one of this machine's deltas
    // can make: claim(resident + kWordsPerDelta), spike-scaled at the
    // probe round.  The scheduler's fixable-by-splitting test compares
    // THIS against the budget — with no injector it is exactly
    // resident_words + kWordsPerDelta.
    std::uint64_t min_leaf_words = 0;
  };
  BudgetProbe probe(const RoutedBatch& routed, const VertexSketches& sketches);

  // Generic probe over an explicit per-machine resident vector (one entry
  // per machine) — what mpc::BatchScheduler probes against, whatever its
  // Target's per-machine state is.
  BudgetProbe probe(const RoutedBatch& routed,
                    std::span<const std::uint64_t> resident);

  // Records one batch-scheduler split in stats() (called by
  // mpc::BatchScheduler; the matching control-round charge lands on the
  // cluster under "<label>/scheduler-split").
  void note_scheduler_split() { ++stats_.scheduler_splits; }

  // Attaches a deterministic fault plan (nullptr = none, the default).
  // With an injector attached, every sketch delivery runs transactionally
  // (VertexSketches::begin_transaction bracketing the grid): a crash
  // window rejects the delivery pre-charge, a fired cell fault loses one
  // grid cell and rolls the whole batch back post-charge — both surface as
  // TransientFault — and budget spikes scale the affected machine's claim
  // in every gate and probe.  An attached EMPTY plan never fires and
  // leaves sketches, ledger, and stats byte-identical to no injector at
  // all.  The injector must outlive the simulator; attaching does not
  // transfer ownership.
  void attach_fault_injector(FaultInjector* injector) { injector_ = injector; }
  const FaultInjector* fault_injector() const { return injector_; }

  std::uint64_t scratch_words() const { return scratch_words_; }
  const Cluster& cluster() const { return cluster_; }
  const Stats& stats() const { return stats_; }

 private:
  // Pre-flight, split so the sketch path can open its transaction between
  // the gates (zero mutation on throw) and the charge:
  //   fault_gate    — rejects the delivery while a target machine is in a
  //                   crash window (throws TransientFault, nothing charged);
  //   budget_gate   — the spike-scaled budget pre-scan: strict throws
  //                   MemoryBudgetExceeded, non-strict records overruns;
  //   charge_delivery — charge_routed + resident ledger record + the
  //                   serial Stats fold.
  // preflight() chains all three (the MachineStep path).
  void fault_gate(const RoutedBatch& routed, const std::string& label);
  void budget_gate(const RoutedBatch& routed, const std::string& label,
                   std::span<const std::uint64_t> resident);
  void charge_delivery(const RoutedBatch& routed, const std::string& label,
                       std::span<const std::uint64_t> resident);
  void preflight(const RoutedBatch& routed, const std::string& label,
                 std::span<const std::uint64_t> resident);
  // One machine's spike-scaled memory claim at the current cluster round.
  std::uint64_t claim_words(std::uint64_t machine, std::uint64_t words) const;
  // Serial pre-scan of this batch's cell-step window against the fault
  // plan: consumes and reports the FIRST matching cell fault (later faults
  // in the window stay armed for the retry, which re-scans the same window
  // because cell_steps only advances on success).  Returns false when no
  // fault fires.
  bool scan_cell_faults(const RoutedBatch& routed, unsigned banks,
                        std::uint64_t* fault_machine, unsigned* fault_bank);
  // Folds each machine's resident sketch-shard words into
  // resident_scratch_ and returns it: O(banks * machines * log n) from the
  // arenas' resident counters, so it runs before every delivery and probe.
  std::span<const std::uint64_t> resident_fold(const VertexSketches& sketches,
                                               std::uint64_t machines);
  // Effective per-machine budget: strict clusters are additionally bound
  // by local memory s (see the ctor comment).
  std::uint64_t effective_budget() const;

  Cluster& cluster_;
  std::uint64_t scratch_words_;
  FaultInjector* injector_ = nullptr;  // not owned; nullptr = no faults
  Stats stats_;
  std::vector<std::uint64_t> order_scratch_;     // ascending ids, reused
  std::vector<char> seen_scratch_;               // permutation check, reused
  std::vector<std::uint64_t> resident_scratch_;  // [machine], reused
  ExecPlan plan_;  // the shared grid executor, buffers reused
  std::uint64_t fault_step_scratch_ = 0;  // step id of the last fired fault
};

}  // namespace mpc
}  // namespace streammpc
