#include "mpc/batch_scheduler.h"

#include <algorithm>

#include "common/check.h"
#include "mpc/fault_injector.h"
#include "sketch/graphsketch.h"

namespace streammpc::mpc {

BatchScheduler::BatchScheduler(Cluster& cluster, Simulator& simulator,
                               const SchedulerConfig& config)
    : cluster_(cluster), simulator_(simulator), config_(config) {}

void BatchScheduler::execute(std::span<const EdgeDelta> deltas,
                             std::uint64_t universe, const std::string& label,
                             VertexSketches& sketches) {
  Target target;
  target.resident = [&](std::span<std::uint64_t> out) {
    sketches.resident_words(cluster_, out);
  };
  target.deliver = [&](const RoutedBatch& routed, const std::string& l) {
    simulator_.execute(routed, l, sketches);
  };
  execute(deltas, universe, label, target);
}

void BatchScheduler::execute(std::span<const EdgeDelta> deltas,
                             std::uint64_t universe, const std::string& label,
                             const Target& target) {
  SMPC_CHECK_MSG(target.resident && target.deliver,
                 "scheduler Target needs both a resident and a deliver hook");
  if (deltas.empty()) return;
  ++stats_.batches;
  execute_chunk(deltas, universe, label, target, /*offset=*/0, /*depth=*/0);
}

void BatchScheduler::fold_resident(const Target& target) {
  resident_scratch_.assign(cluster_.machines(), 0);
  target.resident(resident_scratch_);
}

void BatchScheduler::execute_chunk(std::span<const EdgeDelta> deltas,
                                   std::uint64_t universe,
                                   const std::string& label,
                                   const Target& target, std::uint64_t offset,
                                   std::uint32_t depth) {
  const bool split = config_.policy == SplitPolicy::kProportional;
  for (;;) {
    cluster_.route_batch(deltas, universe, routed_);
    if (!split && !grow_enabled()) break;
    fold_resident(target);
    const Simulator::BudgetProbe report =
        simulator_.probe(routed_, resident_scratch_);
    if (report.fits) break;
    // Splitting shrinks only the *delivered* part of the claim; the
    // resident shard rides along into every leaf, and any leaf that
    // still carries one of the machine's deltas delivers at least
    // kWordsPerDelta to it.  So an overflow is fixable by splitting only
    // when the minimal leaf claim — spike-scaled resident + one delta —
    // fits; otherwise a split cascade would charge control and delivery
    // rounds and every leaf would overflow anyway (the geometry, not the
    // batch size, is the problem: grow the machine count or phi).
    const bool fixable = report.min_leaf_words <= report.budget_words;
    if (split && fixable && deltas.size() > 1) {
      // One control round per split: the over-budget machines report
      // their geometry up the broadcast tree and the re-split schedule
      // comes back down.  Charged BEFORE the parts deliver, so the
      // ledger reads in causal order: detect, re-split, retry.
      const std::uint64_t control =
          std::max<std::uint64_t>(1, cluster_.broadcast_rounds());
      cluster_.add_rounds(control, label + "/scheduler-split");
      stats_.split_rounds += control;
      ++stats_.splits;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth + 1);
      simulator_.note_scheduler_split();
      if (stats_.split_log.size() < Stats::kMaxSplitRecords) {
        stats_.split_log.push_back(Split{offset, deltas.size(), depth,
                                         report.machine, report.needed_words,
                                         report.budget_words});
      }
      // Size the left chunk so the offending machine's delivered load
      // fits its remaining budget, then keep walking the remainder at the
      // SAME depth — the comb's spine is this loop.  The left chunk runs
      // to completion (its pages allocate, growing the resident shards)
      // and re-probes (other machines, or resident growth, may still split
      // it further) before the remainder is routed and probed, so every
      // probe sees the resident state a real cluster would see.
      const std::size_t cut = proportional_cut(deltas, universe, report);
      execute_chunk(deltas.first(cut), universe, label, target, offset,
                    depth + 1);
      deltas = deltas.subspan(cut);
      offset += cut;
      continue;
    }
    if (!fixable && grow_enabled() && stats_.grows < kMaxGrows) {
      // The resident shard alone is (within one delta of) the budget:
      // no batch sizing helps, but halving every vertex block does.
      // Grow, then loop — the chunk re-routes and re-probes under the
      // new geometry (possibly growing again, up to kMaxGrows).
      do_grow(label, target, offset, deltas.size(), report);
      continue;
    }
    // Exhausted — splitting off, unfixable, or a single delta: execute
    // regardless, without charging any split round.  Strict clusters
    // throw from the executor's preflight (before any charge, keeping
    // the reject-before-charge contract), non-strict record the overrun.
    ++stats_.exhausted;
    break;
  }
  deliver_chunk(label, target);
}

void BatchScheduler::deliver_chunk(const std::string& label,
                                   const Target& target) {
  for (unsigned attempt = 0;; ++attempt) {
    const std::string attempt_label =
        attempt == 0 ? label : label + "/retry";
    try {
      target.deliver(routed_, attempt_label);
      ++stats_.subbatches;
      return;
    } catch (const TransientFault& fault) {
      if (attempt >= config_.max_retries) throw;
      // Deterministic backoff-in-rounds: sit out at least the rest of the
      // fault's crash window (so the round clock the window is keyed on
      // provably passes it), and at least attempt+1 rounds (linear
      // backoff, so repeated faults on the same leaf spread out).  The
      // idle rounds are charged under the SAME "/retry" label as the
      // redelivery — every recovery is visible on the ledger.
      const std::uint64_t wait = std::max<std::uint64_t>(
          fault.retry_after_rounds(), attempt + 1);
      cluster_.add_rounds(wait, label + "/retry");
      ++stats_.retries;
      stats_.retry_rounds += wait;
    } catch (const MemoryBudgetExceeded& oom) {
      if (attempt == 0) throw;
      // A retry attempt overflowed (e.g. a budget spike window opened
      // between attempts): re-throw under the chunk's ORIGINAL phase
      // label so the diagnostic names the phase, not the retry alias.
      throw MemoryBudgetExceeded(oom.machine(), oom.needed_words(),
                                 oom.budget_words(), label,
                                 oom.resident_words());
    }
  }
}

std::size_t BatchScheduler::proportional_cut(
    std::span<const EdgeDelta> deltas, std::uint64_t universe,
    const Simulator::BudgetProbe& report) const {
  // The probe's claim is spike-scaled; recover the machine's allowed RAW
  // words from the ratio (claims are proportional in the raw words, so
  // raw_total * budget / needed is the raw volume that would just fit).
  // Any residual approximation only shifts where the next probe lands —
  // the left chunk is re-probed, so bytes and determinism are unaffected.
  const std::uint64_t raw_load = routed_.load_words[report.machine];
  const std::uint64_t raw_total = report.resident_words + raw_load;
  const std::uint64_t needed = std::max<std::uint64_t>(report.needed_words, 1);
  const std::uint64_t allowed_raw = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(raw_total) * report.budget_words /
      needed);
  const std::uint64_t allowed_load =
      allowed_raw > report.resident_words
          ? allowed_raw - report.resident_words
          : 0;
  // Walk the chunk accumulating the offending machine's prefix load (each
  // delta with an endpoint it hosts delivers kWordsPerDelta words to it —
  // one CSR item whether one or both endpoints land there, matching
  // route_batch's accounting) and cut just before the budget crossing.
  std::uint64_t prefix = 0;
  std::size_t cut = deltas.size();
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const Edge e = deltas[i].e;
    if (cluster_.machine_of(e.u, universe) == report.machine ||
        cluster_.machine_of(e.v, universe) == report.machine) {
      prefix += RoutedBatch::kWordsPerDelta;
      if (prefix > allowed_load) {
        cut = i;
        break;
      }
    }
  }
  // The chunk must actually split: at least one delta on each side.
  return std::clamp<std::size_t>(cut, 1, deltas.size() - 1);
}

void BatchScheduler::do_grow(const std::string& label, const Target& target,
                             std::uint64_t offset, std::uint64_t size,
                             const Simulator::BudgetProbe& probe) {
  // Control rounds at the OLD geometry: the over-budget machine reports up
  // the broadcast tree and the new partitioning map comes back down.
  const std::uint64_t before = cluster_.machines();
  const std::uint64_t control =
      std::max<std::uint64_t>(1, cluster_.broadcast_rounds());
  const std::uint64_t after = cluster_.grow();
  // One shuffle round re-partitions the resident shards: the contiguous-
  // block partitioner at 2x machines splits every old vertex block in
  // half, so each shard's words land on the machine that now hosts it.
  // Fold the resident distribution at the NEW count — those are exactly
  // the words each new machine receives — and put the full volume on the
  // ledger (honest accounting: re-partitioning is not free).
  fold_resident(target);
  std::uint64_t moved = 0;
  for (const std::uint64_t w : resident_scratch_) moved += w;
  cluster_.add_rounds(control + 1, label + "/grow-shuffle");
  cluster_.charge_comm(moved);
  cluster_.comm_ledger().record_round(resident_scratch_);
  ++stats_.grows;
  stats_.grow_rounds += control + 1;
  stats_.grow_words += moved;
  stats_.grow_log.push_back(Grow{offset, size, before, after, probe.machine,
                                 probe.resident_words, moved});
}

}  // namespace streammpc::mpc
