// Dynamic bipartiteness testing (Theorem 7.3, §7.3).
//
// Reduction of [AGM12, Lemma 3.3] (paper's Lemma 7.4): build the double
// cover G' on 2n vertices — every vertex v becomes v1 = v, v2 = n + v,
// every edge {u, v} becomes {u1, v2} and {u2, v1}.  Then G is bipartite
// iff cc(G') = 2 * cc(G).  Maintain both connectivity instances; each
// graph update maps to one update in G and two in G', so a batch of k
// updates costs O(1/phi) rounds and ~O(n) total memory.
#pragma once

#include <cstdint>

#include "core/dynamic_connectivity.h"
#include "graph/types.h"
#include "mpc/cluster.h"

namespace streammpc {

struct BipartitenessConfig {
  ConnectivityConfig connectivity;
  std::uint64_t seed = 0xb17a;
};

class DynamicBipartiteness {
 public:
  explicit DynamicBipartiteness(VertexId n,
                                const BipartitenessConfig& config = {},
                                mpc::Cluster* cluster = nullptr);

  VertexId n() const { return n_; }

  void apply_batch(const Batch& batch);

  // True iff the current graph is bipartite (w.h.p.).
  bool is_bipartite() const {
    return cover_.num_components() == 2 * base_.num_components();
  }

  // Per-component refinement: v's component contains an odd cycle iff the
  // two copies v1 = v and v2 = n + v fall into one double-cover component
  // (an odd closed walk through v lifts to a v1..v2 path in G').
  bool is_component_bipartite(VertexId v) const {
    return !cover_.same_component(v, static_cast<VertexId>(n_ + v));
  }

  std::size_t num_components() const { return base_.num_components(); }
  const DynamicConnectivity& base() const { return base_; }
  const DynamicConnectivity& double_cover() const { return cover_; }

  // Serve-heavy path (core/query_cache.h): a consistent pair of base /
  // double-cover snapshots taken at the same point in the batch sequence.
  // The struct is a value — copies share the immutable snapshots, so any
  // reader thread can answer from its copy while further batches apply.
  struct Snapshot {
    VertexId n = 0;
    QueryCache::SnapshotPtr base;
    QueryCache::SnapshotPtr cover;
    bool is_bipartite() const {
      return cover->components() == 2 * base->components();
    }
    bool is_component_bipartite(VertexId v) const {
      return !cover->connected(v, n + v);
    }
    std::size_t num_components() const { return base->components(); }
  };
  // Writer-side (refreshes both nested caches when stale).
  Snapshot snapshot() {
    return Snapshot{n_, base_.snapshot(), cover_.snapshot()};
  }

  // Execution-mode plumbing: config.connectivity.exec_mode selects Flat |
  // Routed | Simulated for both maintained instances; the cluster (and
  // hence the Simulator) is attached to the double cover, whose 2n-vertex
  // bill dominates.  Non-null iff kSimulated and a cluster is attached.
  // config.connectivity.scheduler configures both instances' batch loops.
  const mpc::Simulator* simulator() const { return cover_.simulator(); }

  std::uint64_t memory_words() const {
    return base_.memory_words() + cover_.memory_words();
  }

 private:
  VertexId n_;
  mpc::Cluster* cluster_;
  DynamicConnectivity base_;
  DynamicConnectivity cover_;
};

}  // namespace streammpc
