// Direct MPC implementation of the Ahn–Guha–McGregor sketch algorithm
// (paper §4.1) — the baseline the paper's maintained-forest design is
// measured against (§2.1, bench E8).
//
// State: only the t = O(log n) independent sketch banks per vertex; no
// forest, no component ids.  Every update is a sketch update (O(1)
// rounds).  A spanning-forest query runs the AGM Boruvka procedure: level
// i merges the sketches of the current supernodes using bank i and samples
// one outgoing edge per supernode — O(log n) levels, hence O(log n) MPC
// rounds per query, versus O(1) for the paper's structure.
//
// Space is the same O(n log^3 n) as the maintained structure; the trade is
// purely update-versus-query rounds.
//
// Two things a query never recomputes, both leaving every sample byte-
// identical to a full rerun:
//   * round zero.  Level 0 samples every singleton from bank 0, and a
//     singleton's sample reads only that vertex's own bank-0 records.  The
//     structure caches one sample per vertex and marks both endpoints of
//     every update stale before delivering it (which covers gutter drains,
//     fault rollbacks and throwing deliveries alike); a query resamples
//     only the stale vertices and unions in vertex order, the order the
//     singleton groups would have.  The n cached samples are query state,
//     like the snapshot's labels, and are not counted in memory_words().
//   * the giant component.  Every delivered delta lands on both endpoints
//     with opposite signs, so the sketches of all of V sum to exactly zero
//     in every bank at every level.  The supernodes of a level partition V,
//     so levels >= 1 put them all in one zero-sum class
//     (VertexSketches::sample_boundaries' complement variant): the largest
//     supernode is never walked, its cells are minus everyone else's.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/sketch_frontend.h"
#include "graph/types.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class AgmStaticConnectivity {
 public:
  // `mode` selects how update batches execute against the cluster
  // (routed-with-accounting / per-machine simulation); ignored when
  // `cluster` is null (flat ingest).  `scheduler` configures the simulated
  // mode's batch loop: splitting, fault retry and machine-growing (see
  // mpc::Simulator).
  // `fault_injector` (not owned, may be null) attaches a deterministic
  // fault plan to the simulated executor (see mpc::FaultInjector).
  AgmStaticConnectivity(VertexId n, const GraphSketchConfig& sketch,
                        mpc::Cluster* cluster = nullptr,
                        mpc::ExecMode mode = mpc::ExecMode::kRouted,
                        const mpc::SchedulerConfig& scheduler = {},
                        mpc::FaultInjector* fault_injector = nullptr);

  VertexId n() const { return n_; }

  // O(1)-round updates: only the endpoint sketches change.  With a cluster
  // attached, the batch is routed per machine (Cluster::route_batch) and
  // its per-machine delta loads are charged on the cluster's CommLedger.
  // apply(u) is apply_batch({u}).  A throwing call poisons the snapshot
  // repair state: the next snapshot() rebuilds.  Both endpoints of every
  // update lose their cached round-zero sample, even when the call throws.
  void apply(const Update& update) { apply_batch({update}); }
  void apply_batch(const Batch& batch);

  // Async ingest front door (ingest/gutter_ingest.h): after this, updates
  // buffer in per-vertex-block gutters, and each full gutter is delivered
  // as one batch through the same routed ingest as apply_batch; flushed
  // automatically before every query.  A default-constructed label
  // becomes "agm/sketch-update" so ledger charges land exactly where
  // direct ingest puts them.
  void enable_async_ingest(const GutterIngestConfig& config = {}) {
    ingest_.enable_async(config, "agm/sketch-update");
  }
  // Non-null once async ingest is enabled; exposes buffered()/stats().
  const GutterIngest* gutter() const { return ingest_.gutter(); }
  // Drains buffered updates (no-op when async ingest is off).  A throwing
  // flush poisons the repair state: the next snapshot() rebuilds.
  void flush_ingest() { ingest_.flush(); }

  struct QueryResult {
    std::vector<Edge> forest;   // sampled spanning forest (sorted)
    std::size_t components = 0; // supernode count at termination
    unsigned levels = 0;        // Boruvka levels executed
    std::uint64_t rounds = 0;   // MPC rounds charged for this query
  };

  // Reconstructs a spanning forest from the sketches alone (§4.1's t
  // iterative steps).  Consumes one bank per level; correct w.h.p. when
  // banks >= ~2 log2 n.  Level 0 resamples only the vertices updated since
  // the last query; every level, level 0 included, charges one
  // "agm/query-level" step.
  QueryResult query_spanning_forest();

  // Serve-heavy path (core/query_cache.h): the first query after a
  // mutation runs the Boruvka above ONCE and publishes labels + forest as
  // an immutable snapshot; point queries then cost one atomic load instead
  // of O(log n) Boruvka levels.  Insert-only runs since the last publish
  // are repaired with a local DSU pass over the buffered inserted edges
  // (capped at ~8n, beyond which a rebuild is cheaper than the buffer);
  // any deletion forces a rebuild.  Writer-side, like the updates.
  QueryCache::SnapshotPtr snapshot();
  // Point queries against the current snapshot (refreshing it if stale).
  bool connected(VertexId u, VertexId v) { return snapshot()->connected(u, v); }
  std::size_t num_components() { return snapshot()->components(); }
  QueryCache& query_cache() { return ingest_.cache(); }
  const QueryCache& query_cache() const { return ingest_.cache(); }

  std::uint64_t memory_words() const { return sketches_.allocated_words(); }
  const VertexSketches& sketches() const { return sketches_; }
  // Read-only view of the round-zero cache: entry v is the bank-0 sample
  // of singleton {v} as of the last query (sketches().sample_boundary(0,
  // {v}) then).  The inspection hook for the cache-equals-kernel tests;
  // not a query API.
  std::span<const std::optional<Edge>> round_zero_samples() const {
    return round_zero_;
  }
  // Non-null iff constructed with kSimulated mode and a cluster.
  const mpc::Simulator* simulator() const { return ingest_.simulator(); }

 private:
  mpc::Cluster* cluster() const { return ingest_.cluster(); }
  // Marks vertex x's cached round-zero sample stale (x < n_ only: a bad
  // edge must still reach the ingest validation that rejects it).
  void mark_stale(VertexId x);
  // Resamples every stale vertex's round-zero sample from bank 0.
  void refresh_round_zero();

  VertexId n_;
  VertexSketches sketches_;
  // After sketches_: its destructor's implicit flush writes them.  This
  // structure keeps no forest, so EVERY insert is a candidate repair edge
  // in its cache, unlike DynamicConnectivity's accepted links.
  SketchFrontend ingest_;
  // Reused buffers for the level-at-a-time Boruvka queries.
  GroupCsr group_csr_;
  std::vector<std::optional<Edge>> group_samples_;
  std::vector<std::uint32_t> one_class_;  // all zeros: V is one class
  // Round-zero cache: per-vertex sample and stale flag, plus the stale
  // vertices in marking order and their singleton CSR offsets.
  std::vector<std::optional<Edge>> round_zero_;
  std::vector<std::uint8_t> stale_;
  std::vector<VertexId> dirty_;
  std::vector<std::uint32_t> dirty_offsets_;
};

}  // namespace streammpc
