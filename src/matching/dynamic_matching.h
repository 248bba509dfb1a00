// O(alpha)-approximate maximum matching for fully dynamic streams
// (Theorem 8.2 / Corollary 1.5, §8.1).
//
// Theta(log n) parallel guesses OPT' = n, n/2, n/4, ..., 1; each guess
// runs an AKLY sparsifier whose output graph H feeds a batch-dynamic
// maximal-matching maintainer (the NO21 black box of Proposition 8.4,
// DESIGN.md §3(2)).  A graph batch of O(s^{1-kappa}) updates becomes an
// H-delta per instance, processed in O(log 1/kappa) rounds; the reported
// matching is the best across instances, an O(alpha) approximation w.h.p.
// (Lemma 8.3).
//
// Total memory is dominated by the largest guess:
// ~O(max{n^2/alpha^3, n/alpha}).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sketch_frontend.h"
#include "matching/akly_sparsifier.h"
#include "matching/batch_maximal_matching.h"

namespace streammpc {

struct DynamicMatchingConfig {
  double alpha = 4.0;
  double kappa = 0.5;  // batch-size exponent slack; rounds = O(log 1/kappa)
  L0Shape shape{2, 8};
  std::uint64_t seed = 0xd1a2;
  // How each batch's sketch updates execute against an attached cluster
  // (see mpc::ExecMode): routed per endpoint-hosting machine with
  // per-machine load accounting, or machine-by-machine simulation under
  // scratch budgets — in kSimulated mode an update is applied to the
  // sparsifiers by the machine hosting the edge's min endpoint (the
  // duplicate delivery to the other endpoint's machine is the
  // communication the ledger charges).  Both modes leave the sparsifier
  // state (samplers are linear), and hence the matching, identical to flat
  // in-process ingest, which runs when no cluster is attached.
  mpc::ExecMode exec_mode = mpc::ExecMode::kRouted;
  // Adaptive batch scheduling (kSimulated mode only): every batch goes
  // through the scheduler, with the AKLY sampler shards reporting their
  // per-machine resident words (AklySparsifier::add_resident_words)
  // through a scheduler Target: the budget charges them, transient faults
  // are retried, and with a split policy or growing on an over-budget
  // batch is split or grown exactly like the vertex-sketch front ends'.
  mpc::SchedulerConfig scheduler;
  // Per-machine scratch budget for the simulated executor, in words
  // (0 = the cluster's local memory s).
  std::uint64_t simulator_scratch_words = 0;
  // Deterministic fault plan attached to the simulated executor
  // (kSimulated mode only; crashes and budget spikes apply — there is no
  // sketch grid to inject cell faults into).  Not owned; may be null.
  mpc::FaultInjector* fault_injector = nullptr;
};

class DynamicApproxMatching {
 public:
  DynamicApproxMatching(VertexId n, const DynamicMatchingConfig& config,
                        mpc::Cluster* cluster = nullptr);

  VertexId n() const { return n_; }
  std::size_t instances() const { return guesses_.size(); }

  void apply_batch(const Batch& batch);

  // The best matching across all OPT' guesses.
  std::vector<Edge> matching() const;
  std::size_t matching_size() const;

  std::uint64_t memory_words() const;

  // Non-null iff exec_mode == kSimulated and a cluster is attached.
  const mpc::Simulator* simulator() const { return exec_.simulator(); }
  // Non-null under the same condition.
  const mpc::BatchScheduler* scheduler() const { return exec_.scheduler(); }

  struct Instance {
    std::uint64_t opt_guess = 0;
    std::unique_ptr<AklySparsifier> sparsifier;
    std::unique_ptr<BatchMaximalMatching> maximal;
  };
  const std::vector<Instance>& guesses() const { return guesses_; }

 private:
  VertexId n_;
  DynamicMatchingConfig config_;
  // The executor only (no VertexSketches): cluster, mode, simulator and
  // scheduler.  Delivery into the AKLY samplers is apply_batch's own.
  SketchFrontend exec_;
  std::vector<EdgeDelta> delta_scratch_;       // reused batch-ingest buffer
  mpc::RoutedBatch routed_scratch_;  // reused per-machine sub-batches
  std::vector<std::uint64_t> resident_scratch_;  // per-delivery resident fold
  std::vector<Instance> guesses_;
};

}  // namespace streammpc
