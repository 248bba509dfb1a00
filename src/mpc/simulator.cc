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

Simulator::Simulator(Cluster& cluster, std::uint64_t scratch_words)
    : cluster_(cluster),
      scratch_words_(scratch_words != 0 ? scratch_words
                                        : cluster.local_capacity_words()) {}

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
  const std::uint64_t machines = routed.machines();
  // Budget pre-scan over each machine's full claim — resident shard plus
  // delivered sub-batch, scaled by any active budget spike.  A strict
  // cluster rejects the whole batch before any page has been allocated or
  // any round charged (lowest offending machine id wins, so the diagnostic
  // is deterministic and independent of the cell schedule).
  const std::uint64_t strict_limit = effective_budget();
  for (std::uint64_t m = 0; m < machines; ++m) {
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
  const std::uint64_t machines = routed.machines();
  // Delivery: one synchronous scatter round, per-machine loads on the
  // ledger (and, when scratch == s, the same overflow the pre-scan saw is
  // recorded as a Cluster capacity violation).  The resident peaks ride
  // along on the ledger — folded here, serially, never from a cell.
  cluster_.charge_routed(routed, label);
  cluster_.comm_ledger().record_resident(resident, routed.load_words);
  ++stats_.batches;
  for (std::uint64_t m = 0; m < machines; ++m) {
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

void Simulator::preflight(const RoutedBatch& routed, const std::string& label,
                          std::span<const std::uint64_t> resident) {
  fault_gate(routed, label);
  budget_gate(routed, label, resident);
  charge_delivery(routed, label, resident);
}

bool Simulator::scan_cell_faults(const RoutedBatch& routed, unsigned banks,
                                 std::uint64_t* fault_machine,
                                 unsigned* fault_bank) {
  if (injector_ == nullptr) return false;
  // The batch covers the cell-step window [cell_steps, cell_steps + k) in
  // machine-major (machine-ascending, bank-ascending) enumeration over the
  // non-empty machines — the same accounting order the success path uses
  // to advance cell_steps.  Stop at the FIRST firing fault: later faults
  // in the window stay armed and fire on the retry, which re-scans the
  // same window (cell_steps advances only on success).
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

void Simulator::execute(const RoutedBatch& routed, const std::string& label,
                        VertexSketches& sketches) {
  const std::uint64_t machines = routed.machines();
  order_scratch_.resize(machines);
  for (std::uint64_t m = 0; m < machines; ++m) order_scratch_[m] = m;
  execute(routed, label, sketches, order_scratch_);
}

std::span<const std::uint64_t> Simulator::resident_fold(
    const VertexSketches& sketches, std::uint64_t machines) {
  // Resident fold (pre-mutation): the sketch shard each machine already
  // hosts, against which a delivery's scratch claim stacks.  The arenas
  // keep their resident words as counters, so the fold costs one prefix
  // per block boundary per bank and runs on every call.
  resident_scratch_.resize(machines);
  sketches.resident_words(cluster_, resident_scratch_);
  return resident_scratch_;
}

Simulator::BudgetProbe Simulator::probe(const RoutedBatch& routed,
                                        const VertexSketches& sketches) {
  SMPC_CHECK_MSG(routed.machines() == cluster_.machines(),
                 "routed batch was built for a different machine count");
  return probe(routed, resident_fold(sketches, routed.machines()));
}

Simulator::BudgetProbe Simulator::probe(
    const RoutedBatch& routed, std::span<const std::uint64_t> resident) {
  SMPC_CHECK_MSG(routed.machines() == cluster_.machines(),
                 "routed batch was built for a different machine count");
  SMPC_CHECK_MSG(resident.size() == routed.machines(),
                 "resident vector does not match the machine count");
  const std::uint64_t machines = routed.machines();
  BudgetProbe report;
  report.budget_words = effective_budget();
  for (std::uint64_t m = 0; m < machines; ++m) {
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
                        VertexSketches& sketches,
                        std::span<const std::uint64_t> order) {
  const std::uint64_t machines = routed.machines();
  SMPC_CHECK_MSG(machines == cluster_.machines(),
                 "routed batch was built for a different machine count");
  SMPC_CHECK_MSG(order.size() == machines,
                 "machine visit order must cover every machine");
  seen_scratch_.assign(machines, 0);
  for (const std::uint64_t m : order) {
    SMPC_CHECK_MSG(m < machines && !seen_scratch_[m],
                   "machine visit order must be a permutation");
    seen_scratch_[m] = 1;
  }

  const std::span<const std::uint64_t> resident =
      resident_fold(sketches, machines);
  // Gates first — a crashed target machine or a strict budget overflow
  // rejects the batch with zero mutation and zero charge.
  fault_gate(routed, label);
  budget_gate(routed, label, resident);

  // With a fault plan attached the delivery runs transactionally: the
  // snapshot is taken BEFORE any page preparation (it walks the batch in
  // the preparation pass's own per-bank pattern), the delivery round is
  // charged (it happened — round-compression honesty says a lost round is
  // still a round), and a fired cell fault rolls the whole batch back to
  // the snapshot bytes.  The serial pre-scan consumes the fault before the
  // grid runs, so which cell dies is a function of the plan and the
  // stream, never of the thread schedule.
  const unsigned banks = sketches.banks();
  const bool transactional = injector_ != nullptr;
  std::uint64_t fault_machine = ExecPlan::kNoSkip;
  unsigned fault_bank = 0;
  const bool faulted =
      scan_cell_faults(routed, banks, &fault_machine, &fault_bank);
  if (transactional) sketches.begin_transaction(routed);
  charge_delivery(routed, label, resident);
  std::uint64_t applied = 0;
  try {
    applied = plan_.lower_routed(routed).run(
        sketches, order, faulted ? fault_machine : ExecPlan::kNoSkip,
        fault_bank);
  } catch (...) {
    // Exception safety by construction: ANY mid-grid throw unwinds to the
    // snapshot bytes (transactional mode), instead of leaving a partially
    // applied batch in the arenas.
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
  for (std::uint64_t m = 0; m < machines; ++m) {
    if (routed.load_words[m] != 0) stats_.cell_steps += banks;
  }
}

void Simulator::execute(const RoutedBatch& routed, const std::string& label,
                        const MachineStep& step,
                        std::span<const std::uint64_t> resident) {
  SMPC_CHECK_MSG(routed.machines() == cluster_.machines(),
                 "routed batch was built for a different machine count");
  SMPC_CHECK_MSG(resident.size() == routed.machines(),
                 "resident vector does not match the machine count");
  preflight(routed, label, resident);
  for (std::uint64_t m = 0; m < routed.machines(); ++m) {
    if (routed.load_words[m] == 0) continue;
    ++stats_.cell_steps;
    step(m, routed.machine_items(m));
  }
}

}  // namespace streammpc::mpc
