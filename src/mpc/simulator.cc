#include "mpc/simulator.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "mpc/fault_injector.h"
#include "sketch/graphsketch.h"

namespace streammpc::mpc {

namespace {

std::string budget_message(std::uint64_t machine, std::uint64_t needed,
                           std::uint64_t budget, std::uint64_t resident,
                           const std::string& label) {
  std::ostringstream os;
  os << "memory budget exceeded: machine " << machine << " needs " << needed
     << " words (" << resident << " resident) for '" << label
     << "' but its scratch budget is " << budget << " words";
  return os.str();
}

}  // namespace

MemoryBudgetExceeded::MemoryBudgetExceeded(std::uint64_t machine,
                                           std::uint64_t needed_words,
                                           std::uint64_t budget_words,
                                           std::string label,
                                           std::uint64_t resident_words)
    : std::runtime_error(budget_message(machine, needed_words, budget_words,
                                        resident_words, label)),
      machine_(machine),
      needed_words_(needed_words),
      budget_words_(budget_words),
      resident_words_(resident_words),
      label_(std::move(label)) {}

Simulator::Simulator(Cluster& cluster, std::uint64_t scratch_words,
                     const SchedulerConfig& config)
    : cluster_(cluster),
      scratch_words_(scratch_words != 0 ? scratch_words
                                        : cluster.local_capacity_words()),
      config_(config) {}

// --- the batch loop ---------------------------------------------------------

void Simulator::execute(std::span<const EdgeDelta> deltas,
                        std::uint64_t universe, const std::string& label,
                        VertexSketches& sketches) {
  if (deltas.empty()) return;
  execute_chunk(deltas, universe, label, Target{&sketches}, /*offset=*/0,
                /*depth=*/0);
}

void Simulator::execute(std::span<const EdgeDelta> deltas,
                        std::uint64_t universe, const std::string& label,
                        const ResidentFn& resident, const MachineStep& step) {
  SMPC_CHECK_MSG(resident && step,
                 "the simulator needs both a resident fold and a step");
  if (deltas.empty()) return;
  execute_chunk(deltas, universe, label, Target{nullptr, &resident, &step},
                /*offset=*/0, /*depth=*/0);
}

void Simulator::fold_resident(const Target& target) {
  resident_scratch_.assign(cluster_.machines(), 0);
  if (target.sketches != nullptr) {
    target.sketches->resident_words(cluster_, resident_scratch_);
  } else {
    (*target.resident)(resident_scratch_);
  }
}

void Simulator::execute_chunk(std::span<const EdgeDelta> deltas,
                              std::uint64_t universe, const std::string& label,
                              const Target& target, std::uint64_t offset,
                              std::uint32_t depth) {
  const bool split = config_.policy == SplitPolicy::kProportional;
  const bool grow = config_.grow == GrowPolicy::kDouble;
  for (bool first = true;; first = false) {
    // Routing rejects a malformed edge before anything is counted or
    // charged.
    cluster_.route_batch(deltas, universe, routed_);
    if (first && depth == 0) ++stats_.submitted;
    // The fold serves both the probe and the leaf: nothing mutates
    // between them.
    fold_resident(target);
    if (!split && !grow) break;
    const BudgetProbe report = probe(routed_, resident_scratch_);
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
      ++stats_.scheduler_splits;
      stats_.max_depth = std::max<std::uint64_t>(stats_.max_depth, depth + 1);
      if (stats_.split_log.size() < Stats::kMaxSplitRecords) {
        stats_.split_log.push_back(Split{offset, deltas.size(), depth,
                                         report.machine, report.needed_words,
                                         report.budget_words});
      }
      // Size the left chunk so the offending machine's delivered load
      // fits its remaining budget, then keep walking the remainder at the
      // SAME depth — the comb's spine is this loop.  The left chunk runs
      // to completion (its pages allocate, growing the resident shards)
      // and re-probes before the remainder is routed and probed, so every
      // probe sees the resident state a real cluster would see.
      const std::size_t cut = proportional_cut(deltas, universe, report);
      execute_chunk(deltas.first(cut), universe, label, target, offset,
                    depth + 1);
      deltas = deltas.subspan(cut);
      offset += cut;
      continue;
    }
    if (!fixable && grow && stats_.grows < kMaxGrows) {
      // The resident shard alone is (within one delta of) the budget:
      // no batch sizing helps, but halving every vertex block does.
      // Grow, then loop — the chunk re-routes and re-probes under the
      // new geometry (possibly growing again, up to kMaxGrows).
      do_grow(label, target, offset, deltas.size(), report);
      continue;
    }
    // Exhausted — splitting off, unfixable, or a single delta: deliver
    // regardless, without charging any split round.  Strict clusters
    // throw from the leaf's pre-scan (before any charge), non-strict
    // record the overrun.
    ++stats_.exhausted;
    break;
  }
  deliver_chunk(label, target);
}

void Simulator::deliver_chunk(const std::string& label, const Target& target) {
  // A failed attempt leaves the resident shards as they were (a crash is
  // rejected before any mutation, a cell fault rolls back), so the fold
  // taken for this leaf stays valid across retries.
  for (unsigned attempt = 0;; ++attempt) {
    const std::string attempt_label =
        attempt == 0 ? label : label + "/retry";
    try {
      deliver(routed_, attempt_label, resident_scratch_, target);
      ++stats_.subbatches;
      return;
    } catch (const TransientFault& fault) {
      if (attempt >= config_.max_retries) throw;
      // Deterministic backoff-in-rounds: sit out at least the rest of the
      // fault's crash window (so the round clock the window is keyed on
      // provably passes it), and at least attempt+1 rounds (linear
      // backoff, so repeated faults on the same leaf spread out).
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

std::size_t Simulator::proportional_cut(std::span<const EdgeDelta> deltas,
                                        std::uint64_t universe,
                                        const BudgetProbe& report) const {
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

void Simulator::do_grow(const std::string& label, const Target& target,
                        std::uint64_t offset, std::uint64_t size,
                        const BudgetProbe& probe) {
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

// --- one delivery -----------------------------------------------------------

std::uint64_t Simulator::effective_budget() const {
  // Under a strict cluster the machine's local memory s binds too, even
  // when the scratch override is larger — otherwise charge_routed would
  // throw CheckError *after* mutating the round/comm/ledger state,
  // breaking the reject-whole contract.
  return cluster_.strict()
             ? std::min(scratch_words_, cluster_.local_capacity_words())
             : scratch_words_;
}

std::uint64_t Simulator::claim_words(std::uint64_t machine,
                                     std::uint64_t words) const {
  if (injector_ == nullptr) return words;
  return injector_->scaled_claim(machine, cluster_.rounds(), words);
}

void Simulator::fault_gate(const RoutedBatch& routed,
                           const std::string& label) {
  if (injector_ == nullptr) return;
  // A machine in a crash window cannot receive its sub-batch: reject the
  // delivery before any charge or mutation (lowest crashed target machine
  // wins, so the diagnostic is deterministic).  The wait the exception
  // carries is keyed on the same round counter the window is — charging
  // that many idle rounds deterministically clears the crash.
  const std::uint64_t round = cluster_.rounds();
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    if (routed.load_words[m] == 0) continue;
    if (injector_->machine_down(m, round)) {
      ++stats_.crash_faults;
      throw TransientFault(FaultKind::kMachineCrash, m, round, label,
                           injector_->next_up_round(m, round) - round);
    }
  }
}

void Simulator::budget_gate(const RoutedBatch& routed, const std::string& label,
                            std::span<const std::uint64_t> resident) {
  // Budget pre-scan over each machine's full claim — resident shard plus
  // delivered sub-batch, scaled by any active budget spike.  A strict
  // cluster rejects the whole delivery before any page has been allocated
  // or any round charged (lowest offending machine id wins, so the
  // diagnostic is deterministic and independent of the cell schedule).
  const std::uint64_t strict_limit = effective_budget();
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    const std::uint64_t shard = resident[m];
    const std::uint64_t need =
        claim_words(m, shard + routed.load_words[m]);
    if (cluster_.strict()) {
      if (need > strict_limit)
        throw MemoryBudgetExceeded(m, need, strict_limit, label, shard);
    } else if (need > scratch_words_) {
      ++stats_.budget_overruns;
      stats_.worst_overrun_words =
          std::max(stats_.worst_overrun_words, need - scratch_words_);
      if (stats_.overruns.size() < Stats::kMaxOverrunRecords)
        stats_.overruns.push_back(Overrun{m, need, shard, scratch_words_});
    }
  }
}

void Simulator::charge_delivery(const RoutedBatch& routed,
                                const std::string& label,
                                std::span<const std::uint64_t> resident) {
  // Delivery: one synchronous scatter round, per-machine loads on the
  // ledger (and, when scratch == s, the same overflow the pre-scan saw is
  // recorded as a Cluster capacity violation).  The resident peaks ride
  // along on the ledger — folded here, serially, never from a cell.
  cluster_.charge_routed(routed, label);
  cluster_.comm_ledger().record_resident(resident, routed.load_words);
  ++stats_.batches;
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    const std::uint64_t shard = resident[m];
    stats_.peak_resident_words = std::max(stats_.peak_resident_words, shard);
    stats_.peak_machine_words =
        std::max(stats_.peak_machine_words, shard + routed.load_words[m]);
    if (routed.load_words[m] == 0) continue;
    ++stats_.machine_steps;
    stats_.peak_step_words =
        std::max(stats_.peak_step_words, routed.load_words[m]);
  }
}

bool Simulator::scan_cell_faults(const RoutedBatch& routed, unsigned banks,
                                 std::uint64_t* fault_machine,
                                 unsigned* fault_bank) {
  if (injector_ == nullptr) return false;
  // The delivery covers the cell-step window [cell_steps, cell_steps + k)
  // in machine-major (machine-ascending, bank-ascending) enumeration over
  // the non-empty machines — the same order the success path uses to
  // advance cell_steps.  Stop at the FIRST firing fault: later faults in
  // the window stay armed and fire on the retry, which re-scans the same
  // window (cell_steps advances only on success).
  std::uint64_t id = stats_.cell_steps;
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    if (routed.load_words[m] == 0) continue;
    for (unsigned b = 0; b < banks; ++b, ++id) {
      if (injector_->consume_cell_fault(id)) {
        *fault_machine = m;
        *fault_bank = b;
        fault_step_scratch_ = id;
        return true;
      }
    }
  }
  return false;
}

Simulator::BudgetProbe Simulator::probe(const RoutedBatch& routed,
                                        const VertexSketches& sketches) {
  SMPC_CHECK_MSG(routed.machines() == cluster_.machines(),
                 "routed batch was built for a different machine count");
  resident_scratch_.resize(routed.machines());
  sketches.resident_words(cluster_, resident_scratch_);
  return probe(routed, resident_scratch_);
}

Simulator::BudgetProbe Simulator::probe(
    const RoutedBatch& routed, std::span<const std::uint64_t> resident) const {
  BudgetProbe report;
  report.budget_words = effective_budget();
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    const std::uint64_t shard = resident[m];
    const std::uint64_t need = claim_words(m, shard + routed.load_words[m]);
    if (need > report.budget_words) {
      report.fits = false;
      report.machine = m;
      report.needed_words = need;
      report.resident_words = shard;
      report.min_leaf_words =
          claim_words(m, shard + RoutedBatch::kWordsPerDelta);
      return report;
    }
  }
  return report;
}

void Simulator::execute(const RoutedBatch& routed, const std::string& label,
                        VertexSketches& sketches) {
  SMPC_CHECK_MSG(routed.machines() == cluster_.machines(),
                 "routed batch was built for a different machine count");
  const Target target{&sketches};
  fold_resident(target);
  deliver(routed, label, resident_scratch_, target);
}

void Simulator::deliver(const RoutedBatch& routed, const std::string& label,
                        std::span<const std::uint64_t> resident,
                        const Target& target) {
  // Gates first — a crashed target machine or a strict budget overflow
  // rejects the delivery with zero mutation and zero charge.
  fault_gate(routed, label);
  budget_gate(routed, label, resident);
  if (target.sketches == nullptr) {
    charge_delivery(routed, label, resident);
    for (std::uint64_t m = 0; m < routed.machines(); ++m) {
      if (routed.load_words[m] == 0) continue;
      ++stats_.cell_steps;
      (*target.step)(m, routed.machine_items(m));
    }
    return;
  }
  // With a fault plan attached the delivery runs transactionally: the
  // snapshot is taken BEFORE any page preparation (it walks the batch in
  // the preparation pass's own per-bank pattern), the delivery round is
  // charged (it happened — round-compression honesty says a lost round is
  // still a round), and a fired cell fault rolls the whole delivery back
  // to the snapshot bytes.  The serial pre-scan consumes the fault before
  // the grid runs, so which cell dies is a function of the plan and the
  // stream, never of the thread schedule.
  VertexSketches& sketches = *target.sketches;
  const unsigned banks = sketches.banks();
  const bool transactional = injector_ != nullptr;
  std::uint64_t fault_machine = VertexSketches::kNoSkip;
  unsigned fault_bank = 0;
  const bool faulted =
      scan_cell_faults(routed, banks, &fault_machine, &fault_bank);
  if (transactional) sketches.begin_transaction(routed);
  charge_delivery(routed, label, resident);
  std::uint64_t applied = 0;
  try {
    applied = sketches.update_edges(routed, fault_machine, fault_bank);
  } catch (...) {
    // Exception safety by construction: ANY mid-grid throw unwinds to the
    // snapshot bytes (transactional mode), instead of leaving a partially
    // applied delivery in the arenas.
    if (transactional) {
      sketches.rollback_transaction();
      ++stats_.rollbacks;
    }
    throw;
  }
  if (faulted) {
    sketches.rollback_transaction();
    ++stats_.rollbacks;
    ++stats_.cell_faults;
    stats_.rolled_back_updates += applied;
    throw TransientFault(FaultKind::kCellFailure, fault_machine,
                         fault_step_scratch_, label, /*retry_after_rounds=*/0);
  }
  if (transactional) sketches.commit_transaction();
  stats_.applied_updates += applied;
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    if (routed.load_words[m] != 0) stats_.cell_steps += banks;
  }
}

}  // namespace streammpc::mpc
