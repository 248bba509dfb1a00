// The unified ingest pipeline: every path that mutates the vertex
// sketches — flat update_edges, routed (cluster-accounted) ingest, the
// per-machine simulation executor, and the async gutter's drains (which
// deliver through routed_ingest like any synchronous batch) — lowers to
// ONE form, an ExecPlan, and executes through the same (machine x bank)
// cell grid (VertexSketches::begin_routed_cells + ingest_cell).
//
// Before this pipeline the repo had three divergent ingest code paths:
// the PR-1 bank-parallel flat walk, the PR-3 per-machine slice
// (ingest_machine), and the PR-4 grid.  Only the grid enforced the
// deterministic page-preparation discipline that makes cells race-free and
// lets the resident-memory accounting observe every allocation; the paper's
// simulation theorems assume every phase runs under the same per-machine
// memory discipline, so the divergence was a fidelity gap as much as a
// maintenance one.  Now:
//
//   * lower_flat(deltas)  — stages the span as a 1-machine grid (machine 0
//     owns both endpoints of every delta).  Flat ingest IS the grid with
//     machines = 1: same canonical page-preparation order, same per-bank
//     apply order as the old flat walk, hence byte-identical sketches.
//   * lower_routed(batch) — borrows an already-routed CSR (zero copy).
//     Routed mode inherits the machines x banks parallel schedule and the
//     prepared-cells race-freedom for free.
//
// run() executes the lowered grid: one deterministic canonical-order page
// preparation pass, then every (machine, bank) cell, fanned across the
// sketches' ingest pool (serial machine-major at width 1).  Cell sums are
// commutative into disjoint pre-sized cells, so ANY schedule — any thread
// count, any machine visit order — leaves the arenas byte-identical
// (asserted by the conformance matrix in tests/test_mpc_simulation.cc and
// the thread-invariance suite in tests/test_mpc_grid.cc).
//
// The plan performs no accounting: callers charge delivery (Cluster::
// charge_routed) and budgets (mpc::Simulator) around it.  That split is
// what lets flat (cluster-free) ingest share the executor without
// acquiring a ledger.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpc/comm_ledger.h"

namespace streammpc {
class VertexSketches;
}  // namespace streammpc

namespace streammpc::mpc {

class ExecPlan {
 public:
  // Stages `deltas` as a 1-machine grid: machine 0 receives every delta
  // and owns both endpoints.  The staged CSR's buffers are reused across
  // calls; the deltas themselves are copied (the staged batch must outlive
  // the run, and callers routinely pass transient spans).
  ExecPlan& lower_flat(std::span<const EdgeDelta> deltas);

  // Borrows `routed` as the grid's CSR — zero copy; `routed` must stay
  // alive and unmutated until run() returns.
  ExecPlan& lower_routed(const RoutedBatch& routed);

  bool lowered() const { return view_ != nullptr; }
  const RoutedBatch& routed() const { return *view_; }
  std::uint64_t machines() const { return view_->machines(); }

  // Executes the lowered grid against `sketches`: canonical-order page
  // preparation, then all machines() x sketches.banks() cells (charges
  // and budget gates live outside run()), across the sketches' ingest
  // pool — at width 1 in serial canonical (machine-major, then bank)
  // order.  `order`, when
  // non-empty, permutes the machine rows (the Simulator's order-invariance
  // hook; must be a permutation of [0, machines()) — validated by the
  // caller).  Returns the number of items applied (nonzero delta, at least
  // one owned endpoint), summed over every cell of the grid — folded in
  // machine-major order from per-cell scratch slots, so the value is
  // identical for every schedule (it feeds Simulator::Stats directly).
  //
  // As the single choke point every ingest path executes, run() also bumps
  // `sketches.mutation_epoch()` before touching any arena — the query-cache
  // invalidation hook (core/query_cache.h): a snapshot built at an earlier
  // epoch can no longer be served as fresh, whichever mode, scheduler
  // split, or fault retry delivered the batch.
  //
  // `skip_machine`/`skip_bank` name one cell whose work is *lost* — the
  // Simulator's fault-injection hook (mpc/fault_injector.h): the cell is
  // not executed, modelling a machine that died mid-round.  The caller is
  // responsible for rolling back the whole batch afterwards (the grid's
  // synchronous-round semantics: a failed round is retried whole), so the
  // skip never leaks into observable state.  kNoSkip = run every cell.
  static constexpr std::uint64_t kNoSkip = ~std::uint64_t{0};
  std::uint64_t run(VertexSketches& sketches,
                    std::span<const std::uint64_t> order = {},
                    std::uint64_t skip_machine = kNoSkip,
                    unsigned skip_bank = 0);

 private:
  RoutedBatch staged_;                 // lower_flat's 1-machine CSR
  const RoutedBatch* view_ = nullptr;  // the grid to execute
  std::vector<std::uint64_t> cell_scratch_;  // [machine * banks + bank]
};

}  // namespace streammpc::mpc
