#include "mpc/exec_plan.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "sketch/graphsketch.h"

namespace streammpc::mpc {

ExecPlan& ExecPlan::lower_flat(std::span<const EdgeDelta> deltas) {
  // The staged CSR's offsets are 32-bit and must never wrap (the same
  // bound Cluster::route_batch enforces; the flat path delivers each
  // delta once, so the full 32-bit range is usable).
  SMPC_CHECK_MSG(deltas.size() <= UINT32_MAX,
                 "flat batch too large for 32-bit CSR offsets");
  constexpr std::uint8_t kBoth =
      RoutedBatch::kEndpointU | RoutedBatch::kEndpointV;
  staged_.items.clear();
  staged_.items.reserve(deltas.size());
  for (const EdgeDelta& d : deltas)
    staged_.items.push_back(RoutedBatch::Item{d, kBoth});
  staged_.offsets.assign(
      {0u, static_cast<std::uint32_t>(staged_.items.size())});
  staged_.load_words.assign(
      1, RoutedBatch::kWordsPerDelta * staged_.items.size());
  view_ = &staged_;
  delta_ = nullptr;
  return *this;
}

ExecPlan& ExecPlan::lower_routed(const RoutedBatch& routed) {
  view_ = &routed;
  delta_ = nullptr;
  return *this;
}

ExecPlan& ExecPlan::lower_delta(const RoutedBatch& routed,
                                const DeltaSketch& delta) {
  view_ = &routed;
  delta_ = &delta;
  return *this;
}

std::uint64_t ExecPlan::run(VertexSketches& sketches, ThreadPool* pool,
                            std::span<const std::uint64_t> order,
                            std::uint64_t skip_machine, unsigned skip_bank) {
  SMPC_CHECK_MSG(view_ != nullptr, "ExecPlan::run before lowering");
  // Every ingest path chokes through here, so this is where query caches
  // learn that their snapshots went stale (core/query_cache.h).  Bumped
  // unconditionally — a skipped-cell (faulted) run mutates the other cells
  // before the caller rolls them back, and the rollback bumps again.
  sketches.note_mutation();
  const RoutedBatch& routed = *view_;
  const std::uint64_t machines = routed.machines();
  const unsigned banks = sketches.banks();
  // Deterministic canonical-order page preparation: after this, the cells
  // share no mutable state and allocate nothing, so the schedule below is
  // unobservable in the resulting bytes.
  sketches.begin_routed_cells(routed, pool);
  if (delta_ != nullptr) {
    // Gutter-drain merge: the cells were precomputed into a scratch delta
    // sketch off-thread; fold them in per bank instead of re-hashing.  The
    // preparation pass above already allocated — in canonical order —
    // every page the merge touches, so the resident layout matches direct
    // ingest of `routed` exactly.
    SMPC_CHECK_MSG(skip_machine == kNoSkip,
                   "fault injection is not supported on the delta-merge path");
    return sketches.merge_delta_cells(*delta_, pool);
  }
  const std::size_t cells = static_cast<std::size_t>(machines) * banks;
  cell_scratch_.assign(cells, 0);
  const auto run_cell = [&](std::size_t row, std::size_t bank) {
    const std::uint64_t m = order.empty() ? row : order[row];
    if (routed.load_words[m] == 0) return;
    if (m == skip_machine && bank == skip_bank) return;  // injected fault
    cell_scratch_[m * banks + bank] =
        sketches.ingest_cell(m, static_cast<unsigned>(bank), routed);
  };
  if (pool != nullptr && cells >= 2) {
    pool->parallel_for_grid(machines, banks, run_cell);
  } else {
    for (std::size_t row = 0; row < machines; ++row) {
      for (unsigned b = 0; b < banks; ++b) run_cell(row, b);
    }
  }
  // Deterministic aggregation: machine-major fold of the per-cell scratch,
  // regardless of which thread finished which cell when.
  std::uint64_t applied = 0;
  for (std::size_t c = 0; c < cells; ++c) applied += cell_scratch_[c];
  return applied;
}

}  // namespace streammpc::mpc
