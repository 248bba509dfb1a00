// The paper's §4 *sequential streaming* connectivity algorithm
// (Algorithms 1–4) — the single-machine counterpart of the MPC structure,
// and the algorithm Section 5 then implements in MPC.
//
// State (§4.2): component ids C[v] (minimum vertex id of the component),
// an explicit spanning forest F, and a linear AGM sketch per vertex.
//
//   Insert {u,v} (Algorithm 2): update the endpoint sketches; if the
//   components differ, add {u,v} to F and relabel the losing side.
//
//   Delete {u,v} (Algorithm 3): update the endpoint sketches; if {u,v} is
//   a tree edge, split F into Z_u and Z_v, merge the sketches of Z_u, and
//   query for a replacement edge across the cut (Observation 4.3); rejoin
//   or relabel.
//
//   Query (Algorithm 4): report the maintained forest — O(1) time.
//
// Update time is ~O(n) (the paper's trade-off against AGM's polylog
// updates: AGM pays O(log n) rounds at query time, this structure none),
// space is O(n log^3 n) bits.  Correctness is w.h.p. against an oblivious
// adversary for poly(n)-length streams.
//
// The class keeps t >= 1 independent sketch banks and rotates the bank
// used per deletion so repeated deletions do not re-query the same
// randomness (the single-sketch variant of the paper corresponds to
// banks = 1; §6.3 upgrades to t = O(log n), which is the default here).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/sketch_frontend.h"
#include "graph/types.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class StreamingConnectivity {
 public:
  // With a non-null `cluster`, every sketch-delta flush is routed through
  // mpc::Cluster::route_batch and charged per machine on the cluster's
  // CommLedger (the §5 view of the §4 algorithm); with nullptr the
  // structure runs unaccounted, single-machine.  Routing never changes the
  // sketch state, so results are identical either way.  `mode` selects how
  // buffered delta flushes execute against the cluster (routed /
  // machine-by-machine simulation); ignored when `cluster` is null.
  // `scheduler` configures the simulated mode's batch loop: splitting,
  // fault retry and machine-growing (see mpc::Simulator).
  // `fault_injector` (not owned, may be null)
  // attaches a deterministic fault plan to the simulated executor (see
  // mpc::FaultInjector).
  explicit StreamingConnectivity(VertexId n, GraphSketchConfig sketch = {},
                                 mpc::Cluster* cluster = nullptr,
                                 mpc::ExecMode mode = mpc::ExecMode::kRouted,
                                 const mpc::SchedulerConfig& scheduler = {},
                                 mpc::FaultInjector* fault_injector = nullptr);

  VertexId n() const { return n_; }

  // Single-update stream interface (Algorithm 1's dispatch).  A throwing
  // update call poisons the snapshot's forest delta: the next snapshot()
  // rebuilds.
  void insert(VertexId u, VertexId v);
  void erase(VertexId u, VertexId v);
  void apply(const Update& update);

  // Applies a whole stream segment.  Equivalent to apply() in order, but
  // sketch deltas are buffered and flushed through the batched bank-
  // parallel ingest path; the buffer is flushed before every tree-edge
  // deletion so each cut query sees exactly the prefix it would have seen
  // under single-update processing.
  //
  // Preconditions: endpoints < n() (checked for the whole segment before
  // any update applies); deletions only of edges whose endpoints are
  // currently connected (a valid stream).  Not thread-safe against
  // concurrent mutation or queries.  Deterministic: for a fixed sketch
  // seed, the resulting forest/labels are identical to per-update apply()
  // processing, with or without an attached cluster.
  void apply_stream(std::span<const Update> updates);

  // Async ingest front door (ingest/gutter_ingest.h): after this, sketch
  // deltas buffer in per-vertex-block gutters, and each full gutter is
  // delivered as one batch through the same routed ingest as
  // apply_stream; flushed automatically before every sketch read (cut
  // queries, snapshot()).  Forest/label bookkeeping is unaffected — it
  // never reads the sketches between flushes.  A default-constructed label
  // becomes "streaming/sketch-update" so ledger charges land exactly where
  // direct ingest puts them.
  void enable_async_ingest(const GutterIngestConfig& config = {}) {
    ingest_.enable_async(config, "streaming/sketch-update");
  }
  // Non-null once async ingest is enabled; exposes buffered()/stats().
  const GutterIngest* gutter() const { return ingest_.gutter(); }
  // Drains buffered deltas (no-op when async ingest is off).  A throwing
  // flush poisons the snapshot's forest delta: the next snapshot()
  // rebuilds.
  void flush_ingest() { ingest_.flush(); }

  // --- queries ---------------------------------------------------------------
  VertexId component_of(VertexId v) const { return labels_[v]; }
  bool same_component(VertexId u, VertexId v) const {
    return labels_[u] == labels_[v];
  }
  std::size_t num_components() const { return components_; }
  const std::vector<VertexId>& labels() const { return labels_; }
  std::vector<Edge> spanning_forest() const;  // sorted
  bool is_tree_edge(Edge e) const;

  // Serve-heavy path (core/query_cache.h): immutable snapshot of
  // labels/forest/components for lock-free concurrent readers, derived
  // from the last published one (labels_ plus the forest links and cuts
  // since), rebuilt only on the first query or after a throwing update or
  // flush.  Writer-side, like the updates.
  QueryCache::SnapshotPtr snapshot();
  QueryCache& query_cache() { return ingest_.cache(); }
  const QueryCache& query_cache() const { return ingest_.cache(); }

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t tree_deletes = 0;
    std::uint64_t replacements_found = 0;
    std::uint64_t splits = 0;  // deletions that disconnected a component
  };
  const Stats& stats() const { return stats_; }

  std::uint64_t memory_words() const;

  const VertexSketches& sketches() const { return sketches_; }
  // Non-null iff constructed with kSimulated mode and a cluster.
  const mpc::Simulator* simulator() const { return ingest_.simulator(); }

 private:
  // Collects the vertices of u's tree in F via BFS (the Z_u of §4.2).
  std::vector<VertexId> collect_tree(VertexId u) const;
  void relabel(const std::vector<VertexId>& vertices, VertexId label);
  // Forest-only halves of insert/erase, shared by the single-update and
  // buffered-stream paths (the sketch delta is applied separately).
  void insert_forest(VertexId u, VertexId v);
  void erase_forest(VertexId u, VertexId v);
  // Applies deltas to the sketches — routed per machine (and charged on
  // the cluster) when a cluster is attached, flat otherwise.
  void ingest(std::span<const EdgeDelta> deltas) {
    ingest_.deliver(deltas, "streaming/sketch-update");
  }

  VertexId n_;
  VertexSketches sketches_;
  // After sketches_: its destructor's implicit flush writes them.
  SketchFrontend ingest_;
  std::vector<std::set<VertexId>> forest_adj_;
  std::vector<VertexId> labels_;
  std::size_t components_;
  std::size_t forest_edges_ = 0;
  unsigned next_bank_ = 0;
  Stats stats_;
};

}  // namespace streammpc
