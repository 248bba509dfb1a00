// Batch-dynamic connectivity and spanning forest in streaming MPC —
// the paper's main contribution (Theorem 1.1 / Theorem 6.7, §4–§6).
//
// State maintained (paper §4.2):
//   * component ids C[v]  — the minimum vertex id of v's component,
//   * an explicit spanning forest F stored as Euler tours (§5),
//   * t = O(log n) independent AGM sketch banks per vertex (§6.3).
//
// A phase processes one batch of <= ~O(n^phi) updates in O(1/phi) rounds:
//
//   Insertions (§6.1): update sketches; build the auxiliary graph H over
//   affected components on one machine (Claim 6.1); its spanning forest
//   F_H gives exactly the new tree edges; splice the Euler tours with one
//   batch join (Lemma 6.4).
//
//   Deletions (§6.3): update sketches; batch-split the deleted tree edges;
//   the affected trees shatter into fragments Z_1..Z_p; per fragment and
//   bank, merge the member sketches (O(1/phi) rounds) and gather them on
//   one machine (Lemma 6.5); run AGM/Boruvka locally — level i queries
//   bank i for a replacement edge out of each current group — and
//   batch-join the accepted replacement edges.  The groups carved out of
//   one pre-cut tree sum to the zero sketch (Remark 3.2), so per tree the
//   largest group's sketch is taken as minus the sum of the others and
//   its members are never read (the class-aware
//   VertexSketches::sample_boundaries); on the churn workload that group
//   is most of the giant component.
//
// INVARIANT: every forest tree spans exactly one connected component of
// the sketched graph.  The replacement search relies on it twice: a
// sampled edge must land in the fragment set (checked), and each pre-cut
// tree's fragments must sum to zero (the complement above is exact only
// then).  It holds w.h.p.; a sampler failure that leaves a component split
// into two trees breaks it for later batches.
//
// Correctness is with high probability against an oblivious adversary for
// poly(n)-length streams (§1.1); failures are observable as over-counted
// components and are metered in Stats (see bench_sketch_ablation).
//
// Total memory is ~O(n): sketches + tours + labels, independent of the
// number of edges m — the key difference from [ILMP19, DDK+20, NO21].
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/sketch_frontend.h"
#include "euler/tour_forest.h"
#include "graph/types.h"
#include "sketch/graphsketch.h"

namespace streammpc {

struct ConnectivityConfig {
  GraphSketchConfig sketch;
  // How sketch-delta batches execute against the attached cluster:
  // routed-with-accounting, or machine-by-machine simulation under
  // per-machine scratch budgets (see mpc::ExecMode / mpc::Simulator).
  // Ignored when no cluster is attached (flat ingest).
  mpc::ExecMode exec_mode = mpc::ExecMode::kRouted;
  // The simulator's batch loop (kSimulated mode only): every update batch
  // goes through it, which retries transient faults and, with a split
  // policy active, splits over-budget batches instead of throwing
  // MemoryBudgetExceeded (see mpc::Simulator; default kNone = never
  // split).
  mpc::SchedulerConfig scheduler;
  // Per-machine scratch budget for the simulated executor, in words
  // (0 = the cluster's local memory s) — the Simulator ctor's
  // scratch_words knob, exposed so a front end can run a tighter memory
  // discipline than s without shrinking the cluster itself.
  std::uint64_t simulator_scratch_words = 0;
  // Deterministic fault plan attached to the simulated executor
  // (kSimulated mode only; see mpc::FaultInjector).  Not owned; must
  // outlive the structure.  nullptr (default) = no faults, no
  // transactional overhead.
  mpc::FaultInjector* fault_injector = nullptr;
  // Prefix for this instance's memory-ledger labels on the cluster.
  // Wrappers that run several connectivity instances in parallel (approx
  // MSF levels, the double cover) give each a distinct prefix so the
  // ledger sums rather than overwrites.
  std::string ledger_prefix = "connectivity";
  // Async ingest front door (ingest/gutter_ingest.h): sketch deltas are
  // buffered in per-vertex-block gutters, and each full gutter is
  // delivered as one batch through the same routed ingest (in this
  // structure's ExecMode) instead of one delivery per apply_batch.
  // Flushed automatically before any sketch read (replacement-edge
  // sampling, snapshot()) and by flush_ingest(); the resident sketch state
  // after a flush is byte-identical to synchronous ingest of the same
  // drain batches.  Labels/forest/queries are unaffected — only the sketch
  // delta delivery is deferred.
  bool async_ingest = false;
  // Buffering geometry for the gutter (used iff async_ingest).  A
  // default-constructed label is replaced by "connectivity/sketch-update"
  // so ledger charges land exactly where direct ingest puts them.
  GutterIngestConfig gutter;
};

class DynamicConnectivity {
 public:
  DynamicConnectivity(VertexId n, const ConnectivityConfig& config = {},
                      mpc::Cluster* cluster = nullptr);

  VertexId n() const { return n_; }

  // Processes one phase's batch: insertions first, then deletions (§1.2).
  // Offsetting insert/delete pairs of the same edge within one batch are
  // cancelled out first; a batch in which some edge's net multiplicity
  // leaves {-1, 0, +1} throws CheckError before any round is charged or
  // any state changes.  With a cluster attached, sketch deltas are routed
  // per machine (Cluster::route_batch) and charged on its CommLedger.
  void apply_batch(const Batch& batch);

  // Pre-computation phase (§1.1): initialize from an arbitrary static
  // graph using a static MPC algorithm in O(log n) rounds ([AGM12, NO21])
  // instead of feeding ~m/n^phi insert batches.  Must be called on a
  // structure that has processed no updates yet; edges must be distinct.
  void bootstrap(std::span<const Edge> edges);

  // --- queries: the solution is maintained, so all are O(1) rounds -----------
  VertexId component_of(VertexId v) const { return labels_[v]; }
  bool same_component(VertexId u, VertexId v) const {
    return labels_[u] == labels_[v];
  }
  std::size_t num_components() const { return forest_.num_trees(); }
  std::vector<Edge> spanning_forest() const;  // sorted

  // Batch of connectivity queries (à la [DDK+20]): up to ~O(n^phi) pairs
  // answered in O(1) rounds (route pairs to label holders, sort back).
  std::vector<bool> batch_query(
      std::span<const std::pair<VertexId, VertexId>> pairs);

  // All components as vertex lists, keyed by their label, produced by
  // sorting the label array (O(1) rounds, §1.1).  Served from the query
  // snapshot's first-appearance CSR — built once per mutation epoch, not
  // regrouped on every call.
  std::vector<std::vector<VertexId>> components();

  // The serve-heavy query path (core/query_cache.h): returns the cached
  // immutable snapshot when the sketches' mutation epoch still matches;
  // otherwise derives the next one from it (labels_ plus the forest links
  // and cuts since), rebuilding from labels_/forest_ only on the first
  // query or after a throwing update or flush.  The returned
  // snapshot answers connected/component_of/components from any thread;
  // snapshot() itself is writer-side (same thread as apply_batch).
  QueryCache::SnapshotPtr snapshot();
  QueryCache& query_cache() { return ingest_.cache(); }
  const QueryCache& query_cache() const { return ingest_.cache(); }
  const std::vector<VertexId>& labels() const { return labels_; }
  const EulerTourForest& forest() const { return forest_; }
  const VertexSketches& sketches() const { return sketches_; }
  // Non-null iff exec_mode == kSimulated and a cluster is attached.
  const mpc::Simulator* simulator() const { return ingest_.simulator(); }
  // Non-null iff config.async_ingest; exposes buffered()/stats().
  const GutterIngest* gutter() const { return ingest_.gutter(); }
  // Drains every buffered sketch delta into the resident shard (no-op when
  // async_ingest is off).  Called automatically before every sketch read;
  // call it explicitly to observe delivery errors (strict budget
  // rejection, an exhausted retry) at a deterministic point.  A throwing
  // flush — like a throwing apply_batch or bootstrap — poisons the
  // snapshot's forest delta: the next snapshot() rebuilds.
  void flush_ingest() { ingest_.flush(); }

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t tree_inserts = 0;       // edges that joined components
    std::uint64_t tree_deletes = 0;       // deleted spanning-forest edges
    std::uint64_t replacements_found = 0; // sketch-recovered replacement edges
    std::uint64_t boruvka_levels = 0;     // total levels over all batches
    std::uint64_t max_banks_used = 0;     // max banks consumed in one phase
    std::uint64_t empty_levels = 0;       // levels where every sample failed
  };
  const Stats& stats() const { return stats_; }

  // Words of total memory currently used (sketches + forest + labels);
  // also pushed to the cluster ledger after every batch.
  std::uint64_t memory_words() const;

 private:
  void apply_inserts(const std::vector<Update>& ins);
  void apply_deletes(const std::vector<Update>& del);
  void relabel_trees_of(const std::vector<VertexId>& touched);
  void publish_usage();
  mpc::Cluster* cluster() const { return ingest_.cluster(); }

  VertexId n_;
  ConnectivityConfig config_;
  VertexSketches sketches_;
  // After sketches_: its destructor's implicit flush writes them.
  SketchFrontend ingest_;
  EulerTourForest forest_;
  std::vector<VertexId> labels_;
  // Reused buffers for the level-at-a-time Boruvka queries.
  GroupCsr group_csr_;
  std::vector<std::uint32_t> fragment_class_;  // [fragment] -> zero-sum class
  std::vector<std::uint32_t> group_class_;     // [group] -> zero-sum class
  std::vector<std::optional<Edge>> group_samples_;
  Stats stats_;
};

// Cancels offsetting insert/delete pairs of the same edge and splits the
// batch into (inserts, deletes).  Exposed for the other problem layers.
std::pair<std::vector<Update>, std::vector<Update>> normalize_batch(
    const Batch& batch);

}  // namespace streammpc
