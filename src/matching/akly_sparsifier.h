// The AKLY16 dynamic-stream matching sparsifier (paper §8.1, one OPT'
// guess).
//
//  * A pairwise-independent side hash splits V into L and R (the matching
//    restricted to L-R edges is a constant-factor loss, §8.1).
//  * h_L : L -> [beta], h_R : R -> [beta] with beta = ceil(OPT'/alpha)
//    partition each side into beta groups.
//  * Every group L_i is assigned gamma = ceil(OPT'/alpha^2) groups R_j
//    uniformly with replacement; each such (L_i, R_j) is an *active pair*
//    and carries one L0-sampler over its edge set E(L_i, R_j) (Lemma 3.6).
//  * The sparsified graph H is the set of current sampler outputs; any
//    maximal matching of H is an O(alpha)-approximation (Lemma 8.3).
//
// A batch of graph updates touches at most |batch| samplers; the sparsifier
// reports which H-edges disappear (old outputs of touched samplers) and
// which appear (new outputs), exactly the delta the paper feeds to the
// NO21 maximal-matching black box.
//
// Memory: beta * gamma = OPT'^2 / alpha^3 samplers of O(log^3 n) bits each
// — the ~O(max{n^2/alpha^3, n/alpha}) of Theorem 8.2 at OPT' = n.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hashing.h"
#include "graph/types.h"
#include "sketch/coord.h"
#include "sketch/l0sampler.h"

namespace streammpc {

struct AklyConfig {
  double alpha = 4.0;
  std::uint64_t opt_guess = 0;  // OPT' (required, >= 1)
  L0Shape shape{2, 8};
  std::uint64_t seed = 0xa1b2;
};

class AklySparsifier {
 public:
  AklySparsifier(VertexId n, const AklyConfig& config);

  // Edges leaving / entering the sparsified graph H due to this batch.
  struct HDelta {
    std::vector<Edge> remove;
    std::vector<Edge> add;
  };
  HDelta apply_batch(const Batch& batch);

  // Phase API — apply_batch split into its three stages, so the machine-
  // sliced simulated execution path (DynamicApproxMatching in kSimulated
  // mode) can interleave the sketch updates with the Simulator's machine
  // steps:
  //   begin_batch   records the old output of every sampler the batch
  //                 touches (keys in deterministic first-appearance order);
  //   apply_delta   applies one signed sketch update — samplers are linear,
  //                 so any update order (any machine schedule) yields the
  //                 same state;
  //   finish_batch  re-samples the touched pairs and returns the H-delta,
  //                 in the recorded key order.
  // apply_batch == begin_batch; apply_delta per update; finish_batch.
  // begin/finish must bracket exactly the updates of one batch.
  void begin_batch(const Batch& batch);
  void apply_delta(Edge e, std::int64_t delta);
  HDelta finish_batch();

  std::uint64_t beta() const { return beta_; }
  std::uint64_t gamma() const { return gamma_; }
  std::uint64_t active_pair_count() const { return active_.size(); }

  // Current sparsified edge set (for tests).
  std::vector<Edge> current_h() const;

  std::uint64_t memory_words() const;

  // Per-machine resident footprint of this sparsifier's shards under a
  // cluster of out.size() machines: active-pair key k's state — its
  // active-set entry (1 word), current H-output (2 words), and sampler
  // (words() + 1) — lives on machine k % machines, a pure function of the
  // key.  ADDS into `out` so the parallel OPT' guesses accumulate into one
  // vector; one instance's contribution sums to exactly memory_words().
  // This is what lets the matching front end report resident state to the
  // Simulator's batch loop, which budgets, splits and retries on it.
  void add_resident_words(std::span<std::uint64_t> out) const;

 private:
  // Maps an edge to its active-pair key, or nullopt if the edge is not
  // monitored (same side, or inactive pair).
  std::optional<std::uint64_t> pair_key_of(Edge e) const;

  VertexId n_;
  AklyConfig config_;
  EdgeCoordCodec codec_;
  std::uint64_t beta_;
  std::uint64_t gamma_;
  PairwiseHash side_hash_;
  PairwiseHash left_hash_;
  PairwiseHash right_hash_;
  std::unique_ptr<L0Params> params_;
  std::unordered_set<std::uint64_t> active_;
  std::unordered_map<std::uint64_t, L0Sampler> samplers_;
  std::unordered_map<std::uint64_t, Edge> current_out_;
  // In-flight batch state (begin_batch .. finish_batch): touched keys in
  // first-appearance order and their pre-batch outputs.
  std::vector<std::uint64_t> pending_keys_;
  std::unordered_map<std::uint64_t, std::optional<Edge>> pending_old_;
};

}  // namespace streammpc
