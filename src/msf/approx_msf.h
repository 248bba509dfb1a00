// (1 + eps)-approximate minimum spanning forest under fully dynamic batch
// updates (Theorem 1.2(ii), §7.2) — a reduction to connectivity à la
// Chazelle–Rubinfeld–Trevisan [CRT05] / [AGM12, Lemma 3.4].
//
// Weights lie in [1, W].  Maintain t + 1 = ceil(log_{1+eps} W) + 1
// connectivity instances: G_i holds exactly the edges of weight
// <= (1+eps)^i, so a weight-w update is routed to every instance with
// (1+eps)^i >= w.  Then with cc_i = #components of G_i and
// lambda_i = (1+eps)^{i+1} - (1+eps)^i, formula (1) of §7.2.1 gives
//
//   w(MSF) <= n - (1+eps)^t + sum_{i=0..t} lambda_i * cc_i <= (1+eps) w(MSF).
//
// The forest itself (§7.2.2): an edge e of F_i joins the output forest F
// iff its endpoints are in different components of G_{i-1} (all of F_0
// joins).  Every such edge has true weight in ((1+eps)^{i-1}, (1+eps)^i],
// so reporting the bucket cap (1+eps)^i as its weight is itself within
// (1+eps) per edge.
//
// Total memory: (t+1) x ~O(n) = ~O(n) for constant eps and poly-bounded W.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/atomic_shared_ptr.h"
#include "core/dynamic_connectivity.h"
#include "graph/types.h"
#include "mpc/cluster.h"

namespace streammpc {

struct ApproxMsfConfig {
  double eps = 0.25;
  Weight w_max = 64;  // W: all update weights must lie in [1, w_max]
  ConnectivityConfig connectivity;
  std::uint64_t seed = 0xa99a;
};

class ApproxMsf {
 public:
  ApproxMsf(VertexId n, const ApproxMsfConfig& config,
            mpc::Cluster* cluster = nullptr);

  VertexId n() const { return n_; }
  std::size_t instances() const { return levels_.size(); }
  double threshold(std::size_t i) const;  // (1+eps)^i

  // Routes one batch of weighted updates to every relevant instance.
  void apply_batch(const Batch& batch);

  // Formula (1): a (1+eps)-approximation of the MSF weight.
  double weight_estimate() const;

  // §7.2.2: forest edges with their bucket-cap weights; the sum of the
  // reported weights is a (1+eps)^2-ish approximation of w(MSF).
  std::vector<std::pair<Edge, double>> forest() const;
  double forest_weight() const;

  std::size_t num_components() const { return levels_.back()->num_components(); }

  // Serve-heavy path (core/query_cache.h pattern): forest(), forest_weight()
  // and weight_estimate() walk all t+1 levels per call; the snapshot runs
  // that walk once per mutation and publishes the result immutably, so
  // concurrent readers get estimate + forest with one atomic load.
  struct MsfSnapshot {
    std::uint64_t version = 0;
    std::uint64_t epoch = 0;  // sum of the levels' sketch mutation epochs
    double weight_estimate = 0.0;
    double forest_weight = 0.0;
    std::vector<std::pair<Edge, double>> forest;  // §7.2.2, bucket-capped
    std::size_t components = 0;
  };
  using MsfSnapshotPtr = std::shared_ptr<const MsfSnapshot>;
  // Writer-side: serves the cached snapshot while no level mutated,
  // rebuilds (one full forest + estimate walk) otherwise.
  MsfSnapshotPtr snapshot();
  // Reader-side: last published snapshot, nullptr before the first
  // snapshot() call.  Callable from any thread concurrently with the
  // writer (core/atomic_shared_ptr.h).
  MsfSnapshotPtr snapshot_view() const { return snapshot_.load(); }
  // Sum of the levels' mutation epochs — monotone, so it identifies the
  // batch-sequence point a snapshot reflects.
  std::uint64_t mutation_epoch() const;
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t rebuilds = 0;
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

  // Execution-mode plumbing: config.connectivity.exec_mode selects Flat |
  // Routed | Simulated for every level; the cluster (and hence the
  // Simulator) is attached to the top-threshold instance, whose bill
  // dominates.  Non-null iff kSimulated and a cluster is attached.
  // config.connectivity.scheduler configures every level's batch loop.
  const mpc::Simulator* simulator() const {
    return levels_.back()->simulator();
  }

  std::uint64_t memory_words() const;

 private:
  VertexId n_;
  ApproxMsfConfig config_;
  mpc::Cluster* cluster_;
  std::vector<double> thresholds_;
  std::vector<std::unique_ptr<DynamicConnectivity>> levels_;
  // Serve-heavy snapshot cache (single writer, concurrent readers).
  AtomicSharedPtr<const MsfSnapshot> snapshot_;
  std::uint64_t built_epoch_ = ~std::uint64_t{0};
  std::uint64_t next_version_ = 1;
  CacheStats cache_stats_;
};

}  // namespace streammpc
