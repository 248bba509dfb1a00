// Resident-aware adaptive batch scheduler — the closed control loop over
// the Simulator's memory-budget diagnostics, and the one delivery path of
// every ExecMode::kSimulated batch.
//
// Before every delivery the Simulator folds each machine's resident sketch
// shard, charges resident + delivered against local memory s, and rejects
// (strict) or records (non-strict) the overflow.  At small phi / few
// machines resident headroom dips below 1 (bench_mpc_sweep) — the regime
// where the batch-dynamic MPC line (Nowicki–Onak, arXiv:2002.07800) says
// the *front end* must adapt: batches are sized so the per-machine claim
// stays under s, not fixed a priori.  This class closes the loop:
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
// delivers without probing (unless growing is on, see below).
//
// Every probe folds the resident shards afresh (for sketches,
// VertexSketches::resident_words(cluster, out): one prefix per block
// boundary per bank), so a split cascade costs O(banks * machines * log n)
// per probe and never scans a page map.
//
// Properties the tests pin down (tests/test_mpc_scheduler.cc):
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
//     "<label>/scheduler-split" (the machines must report the overflow
//     geometry and receive the re-split schedule).  Probes precede
//     charges, so a rejected attempt costs no phantom round, matching the
//     strict executor's reject-before-charge contract.
//   * Equivalence.  Splitting a batch never changes the sketch state
//     (linearity) — only the accounting.  A run that never overflows is
//     charge-for-charge identical to one Simulator::execute per batch.
//
// When splitting cannot help — the offending machine's *resident shard*
// plus a single unavoidable delta already exceeds the budget (geometry,
// not batch size, is the problem) — or the chunk is one delta, the chunk
// executes immediately with NO split round charged: a strict cluster then
// throws MemoryBudgetExceeded from the executor's preflight (before any
// charge FOR THAT LEAF), and a non-strict cluster records the overrun and
// proceeds.  The unfixable case is detected up front from
// BudgetProbe::min_leaf_words, so a permanently-over-budget stream costs
// one probe per batch, never a futile split cascade.
//
// Recovery.  Two reactions close the loop the fault-injection layer
// (mpc/fault_injector.h) opens:
//
//   * Transient faults.  A leaf delivery that throws TransientFault (cell
//     failure rolled back by the executor, or a machine in a crash window
//     rejected pre-charge) is retried up to SchedulerConfig::max_retries
//     times, under every split policy.  Each retry first charges
//     deterministic backoff-in-rounds under "<label>/retry" —
//     max(remaining crash window, attempt number) idle rounds, which
//     advances the exact round clock crash windows are keyed on — and then
//     redelivers under the same "<label>/retry" label.  Exhausted retries
//     propagate the fault.
//   * Machine-growing.  When the probe says the overflow is UNFIXABLE by
//     splitting and SchedulerConfig::grow allows it, the scheduler
//     requests a cluster of 2x machines (Cluster::grow()), charges a
//     broadcast control round plus one shuffle round under
//     "<label>/grow-shuffle" — with the full resident state as the
//     shuffle's communication volume, recorded per NEW machine on the
//     ledger — then re-routes the chunk under the new geometry and
//     resumes, at most kMaxGrows times per scheduler.  Growing is opt-in
//     (SchedulerConfig::grow defaults to kNone).
//
// Determinism of both reactions follows from the determinism of their
// inputs: faults fire off the plan's deterministic clocks, backoff is a
// pure function of the fault and the attempt number, and growing is a pure
// function of the probe geometry — so a faulted run's sketches, ledger,
// and recovery stats are byte-identical for every ingest thread count
// (tests/test_mpc_fault.cc).
//
// Atomicity caveat: once a batch splits, the reject-whole guarantee holds
// per comb LEAF, not per top-level execute() call.  Leaves that landed
// before a later leaf throws stay applied and charged — they were genuine
// in-budget rounds a real cluster could not unsend either (retries must
// not rewrite history).  A strict-mode caller that catches mid-batch
// MemoryBudgetExceeded must treat the batch as partially applied (the
// split_log + subbatch counters say precisely how far it got).  In
// practice an unfixable leaf is almost always unfixable at the top-level
// probe too (resident only grows), so the throw usually happens before
// anything was delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/comm_ledger.h"
#include "mpc/config.h"
#include "mpc/simulator.h"

namespace streammpc {
class VertexSketches;
}

namespace streammpc::mpc {

class BatchScheduler {
 public:
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

  // One machine-growing event, in deterministic order: the chunk that
  // forced it and the geometry before/after.
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
    std::uint64_t batches = 0;      // top-level batches submitted
    std::uint64_t subbatches = 0;   // leaf chunks actually executed
    std::uint64_t splits = 0;       // comb cuts performed
    std::uint64_t split_rounds = 0; // control rounds charged for splits
    std::uint64_t exhausted = 0;    // chunks executed over budget because
                                    // no split or grow could help
    std::uint64_t max_depth = 0;    // deepest split level reached
    // --- recovery ---
    std::uint64_t retries = 0;      // redeliveries after a TransientFault
    std::uint64_t retry_rounds = 0; // backoff rounds charged under ".../retry"
    std::uint64_t grows = 0;        // machine-growing events
    std::uint64_t grow_rounds = 0;  // control+shuffle rounds charged for grows
    std::uint64_t grow_words = 0;   // resident words shuffled across all grows
    // The split tree in deterministic pre-order; capped like the
    // Simulator's overrun list so a permanently-over-budget stream cannot
    // grow it without bound (the counters stay exact).
    static constexpr std::size_t kMaxSplitRecords = 4096;
    std::vector<Split> split_log;
    // Every grow, in order (never more than kMaxGrows).
    std::vector<Grow> grow_log;
  };

  // A delivery target: the per-machine state the loop probes and delivers
  // into.  Sketch front ends use the VertexSketches overload of execute(),
  // which wraps the sketches in one; front ends whose per-machine state is
  // not a VertexSketches arena (e.g. the AKLY matching sampler shards)
  // build their own.  `resident` fills out[m] with machine m's resident
  // words under the CURRENT cluster geometry (out.size() ==
  // cluster.machines(); it is re-queried after a grow); `deliver` executes
  // one routed leaf under `label` and may throw TransientFault /
  // MemoryBudgetExceeded exactly like Simulator::execute.
  struct Target {
    std::function<void(std::span<std::uint64_t> out)> resident;
    std::function<void(const RoutedBatch& routed, const std::string& label)>
        deliver;
  };

  BatchScheduler(Cluster& cluster, Simulator& simulator,
                 const SchedulerConfig& config = {});

  // Routes `deltas` under the vertex universe [0, universe) and executes
  // them through the simulator, splitting on probe overflow as configured.
  // The final sketch state is identical to a single flat
  // update_edges(deltas) — splitting changes rounds, never bytes.
  void execute(std::span<const EdgeDelta> deltas, std::uint64_t universe,
               const std::string& label, VertexSketches& sketches);

  // Same loop over a generic Target (see above).
  void execute(std::span<const EdgeDelta> deltas, std::uint64_t universe,
               const std::string& label, const Target& target);

  // Whether machine-growing is active.
  bool grow_enabled() const { return config_.grow == GrowPolicy::kDouble; }

  const Stats& stats() const { return stats_; }
  const Cluster& cluster() const { return cluster_; }
  const Simulator& simulator() const { return simulator_; }

 private:
  // Cap on machine-growing events over the scheduler's lifetime.
  static constexpr std::uint64_t kMaxGrows = 4;

  void execute_chunk(std::span<const EdgeDelta> deltas, std::uint64_t universe,
                     const std::string& label, const Target& target,
                     std::uint64_t offset, std::uint32_t depth);
  // Delivers one routed leaf with the bounded retry loop; `routed_` must
  // hold the chunk's routing.  Throws only after retries are exhausted (or
  // on a non-transient error).
  void deliver_chunk(const std::string& label, const Target& target);
  // Folds the target's resident words under the current geometry into
  // resident_scratch_.
  void fold_resident(const Target& target);
  // The cut point: the largest prefix of `deltas` whose load on the
  // offending machine still fits the budget headroom left after its
  // resident shard (scaled out of the probe's spike-adjusted claim),
  // clamped to [1, size - 1].  Deterministic — a pure function of the
  // chunk, the geometry, and the probe.
  std::size_t proportional_cut(std::span<const EdgeDelta> deltas,
                               std::uint64_t universe,
                               const Simulator::BudgetProbe& report) const;
  // The machine-growing step: charge the control + shuffle rounds under
  // "<label>/grow-shuffle", double the cluster, record the re-partitioned
  // resident volume on the ledger.
  void do_grow(const std::string& label, const Target& target,
               std::uint64_t offset, std::uint64_t size,
               const Simulator::BudgetProbe& probe);

  Cluster& cluster_;
  Simulator& simulator_;
  SchedulerConfig config_;
  RoutedBatch routed_;   // per-chunk routing scratch, reused
  std::vector<std::uint64_t> resident_scratch_;  // Target probe + grow fold
  Stats stats_;
};

}  // namespace streammpc::mpc
