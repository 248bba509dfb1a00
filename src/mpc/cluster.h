// Simulated MPC cluster with round, memory, and communication accounting.
//
// This is the substrate substitution documented in DESIGN.md §3(1): the
// algorithms execute in-process, but every step of their MPC implementation
// plan is charged here — synchronous rounds (add_rounds and the derived
// costs broadcast_rounds / aggregate_rounds / sort_rounds), per-label memory
// usage validated against machines * s, indivisible-object sizes validated
// against s, and per-round communication volume.  The quantities the
// paper's theorems bound are exactly the quantities this class meters.
//
// Phase structure mirrors the paper: a *phase* is the processing of one
// update batch (or one query); begin_phase()/phase_rounds() let callers
// report rounds-per-phase, the paper's headline O(1/phi) metric.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpc/comm_ledger.h"
#include "mpc/config.h"

namespace streammpc::mpc {

class Cluster {
 public:
  explicit Cluster(const MpcConfig& config);

  // --- deployment geometry -------------------------------------------------
  std::uint64_t machines() const { return machines_; }
  std::uint64_t local_capacity_words() const { return local_capacity_; }
  std::uint64_t total_capacity_words() const {
    return machines_ * local_capacity_;
  }
  // Records (polylog-word objects) a machine can hold: ceil(n^phi).  Round
  // arithmetic for trees/sorting uses this (the paper's fan-in), while
  // capacity checks use words.
  std::uint64_t record_capacity() const { return record_capacity_; }
  double phi() const { return config_.phi; }
  // Whether capacity violations throw (strict) or are only recorded.  The
  // Simulator mirrors this policy for its memory-budget diagnostics.
  bool strict() const { return config_.strict; }

  // Machine-growing (the mpc::Simulator recovery path for unfixable
  // resident overflow): doubles the machine count in place and returns the
  // new count.  The contiguous-block partitioner is a pure function of
  // (v, universe, machines), so the re-partitioned vertex blocks — each
  // old block split in half — are implicit: the next route_batch and
  // resident fold see the new geometry with no further bookkeeping.  The
  // CommLedger is *grown*, never reset (history is preserved; the new
  // machines start with zero cumulative words).  The CALLER charges the
  // shuffle that moves the resident shards — growing itself is free here,
  // because what it models is a re-allocation request to the platform,
  // not a round.  Local memory s per machine is unchanged.
  std::uint64_t grow();

  // --- rounds ---------------------------------------------------------------
  // Charges `r` synchronous rounds attributed to `label`.
  void add_rounds(std::uint64_t r, const std::string& label);

  std::uint64_t rounds() const { return rounds_; }
  const std::map<std::string, std::uint64_t>& rounds_by_label() const {
    return rounds_by_label_;
  }

  // Rounds to broadcast O(1) words to all machines, or to aggregate one
  // value from all machines: a fan-out-s tree over P machines.
  std::uint64_t broadcast_rounds() const;

  // Rounds to combine `items` objects with a fan-in-s aggregation tree
  // (e.g. merging component sketches, Lemma 6.5's O(1/phi) merging step).
  std::uint64_t aggregate_rounds(std::uint64_t items) const;

  // Rounds for a constant-round MPC sort of `items` objects [GSZ11].
  std::uint64_t sort_rounds(std::uint64_t items) const;

  // --- phases ---------------------------------------------------------------
  void begin_phase();
  std::uint64_t phase_rounds() const { return rounds_ - phase_start_rounds_; }
  std::uint64_t phases() const { return phases_; }

  // --- memory ledger ----------------------------------------------------------
  // Declares the current total footprint of a labelled structure, in words
  // (absolute, not a delta).  The structure is assumed to be spread across
  // machines by the algorithm's partitioning scheme.
  void set_usage(const std::string& label, std::uint64_t words);

  // Declares that a single indivisible object of `words` words must reside
  // on one machine (e.g. the auxiliary graph H of Claim 6.1, a merged
  // sketch, one update batch).  Violates capacity if words > s.
  void note_object(std::uint64_t words, const std::string& label);

  std::uint64_t usage_total() const;
  std::uint64_t peak_usage_total() const { return peak_usage_; }
  std::uint64_t peak_object_words() const { return peak_object_; }
  const std::map<std::string, std::uint64_t>& usage_by_label() const {
    return usage_;
  }

  // --- communication ----------------------------------------------------------
  // Charges `words` of global communication in the current phase.
  void charge_comm(std::uint64_t words);
  std::uint64_t comm_total() const { return comm_total_; }
  std::uint64_t phase_comm() const { return comm_total_ - phase_start_comm_; }
  std::uint64_t peak_phase_comm() const { return peak_phase_comm_; }

  // --- batch routing -----------------------------------------------------------
  // Vertex -> machine partitioner: machine hosting vertex v's sketch state
  // when a structure over the universe [0, universe) is spread across this
  // cluster.  Contiguous blocks, balanced to within one vertex:
  // machine_of(v) = floor(v * machines / universe).  Deterministic (a pure
  // function of (v, universe, machines)), monotone in v, and independent of
  // any batch content — so routing never depends on update history.
  // Precondition: v < universe, universe >= 1.
  std::uint64_t machine_of(std::uint64_t v, std::uint64_t universe) const;

  // Inverse view of machine_of: the contiguous vertex block [first, last)
  // hosted by `machine` under the universe [0, universe).  Blocks of all
  // machines partition the universe; a machine past the populated prefix
  // (machines > universe) gets an empty block.  This is what the resident-
  // memory accounting walks: the vertices whose sketch shard lives on the
  // machine permanently, as opposed to the delivered sub-batch that only
  // passes through its scratch space.
  std::pair<std::uint64_t, std::uint64_t> vertex_block(
      std::uint64_t machine, std::uint64_t universe) const;

  // Splits a flat delta batch into per-machine sub-batches under
  // machine_of(., universe): each delta is sent to the machine(s) hosting
  // its endpoints' sketches (twice when they differ — that duplication is
  // the communication the model charges).  Within each sub-batch, deltas
  // keep their batch order, so routed ingest is deterministic.  `out`'s
  // buffers are reused across calls; no accounting happens here — pair with
  // charge_routed() when the batch is actually delivered.  Throws
  // CheckError on a malformed edge (u >= v, or v >= universe), so callers
  // reject it before charging anything.  Thread-safe (const, writes only
  // `out`).
  void route_batch(std::span<const EdgeDelta> batch, std::uint64_t universe,
                   RoutedBatch& out) const;

  // Charges the delivery of a routed batch: one synchronous round (a
  // point-to-point scatter), its total words of communication, and the
  // per-machine loads into the comm ledger.  A per-machine load exceeding
  // local memory s is a capacity violation — the §5/§6 reason batches are
  // capped at ~O(n^phi) updates.
  void charge_routed(const RoutedBatch& routed, const std::string& label);

  const CommLedger& comm_ledger() const { return ledger_; }
  CommLedger& comm_ledger() { return ledger_; }

  // --- violations ---------------------------------------------------------------
  const std::vector<std::string>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }

  // Human-readable accounting report.
  std::string report() const;

 private:
  void violate(const std::string& what);

  MpcConfig config_;
  std::uint64_t local_capacity_ = 0;
  std::uint64_t record_capacity_ = 0;
  std::uint64_t machines_ = 0;

  std::uint64_t rounds_ = 0;
  std::map<std::string, std::uint64_t> rounds_by_label_;

  std::uint64_t phases_ = 0;
  std::uint64_t phase_start_rounds_ = 0;
  std::uint64_t phase_start_comm_ = 0;
  std::uint64_t peak_phase_comm_ = 0;

  std::map<std::string, std::uint64_t> usage_;
  std::uint64_t peak_usage_ = 0;
  std::uint64_t peak_object_ = 0;

  std::uint64_t comm_total_ = 0;

  CommLedger ledger_;

  std::vector<std::string> violations_;
};

}  // namespace streammpc::mpc
