// Serve-heavy query layer (ISSUE 7): cached connectivity query state,
// published as an immutable atomic snapshot for concurrent readers.
//
// The paper's structures answer connected(u,v) / spanning-forest queries
// interleaved with update batches.  A single caller can afford to rerun
// Boruvka from the resident sketches per query (AgmStaticConnectivity) or
// to regroup the maintained labels per call (DynamicConnectivity); a
// serve-heavy deployment — the ROADMAP's millions-of-users traffic — needs
// the batch-dynamic split Nowicki–Onak make explicit: expensive batch
// maintenance, cheap point queries against maintained state.
// GraphStreamingCC's MCSketchAlg (dsu_valid / shared_dsu_valid) is the
// production shape this follows: cache the query result, invalidate on
// updates, serve readers from a snapshot.
//
// Shape:
//   * a connectivity front end owns a QueryCache;
//   * the first query after a mutation builds the result ONCE — canonical
//     min-vertex labels, the sorted spanning forest, and the deterministic
//     first-appearance component CSR — and publishes it as an immutable
//     QuerySnapshot behind an atomic shared_ptr swap;
//   * any number of concurrent reader threads answer connected(u,v) /
//     component_of(v) / components() from a snapshot without touching
//     sketch state and without ever waiting on the writer's rebuild work
//     (snapshot() copies the published pointer — core/atomic_shared_ptr.h;
//     the snapshot itself is never mutated after publish);
//   * invalidation rides the sketches' mutation epoch, bumped at the ONE
//     choke point every ingest path executes (VertexSketches::update_edges)
//     and on transactional rollback — so flat, routed, simulated, split,
//     and fault-retry deliveries all invalidate identically, and a
//     rolled-back cell can never leave a stale-valid cache;
//   * repair-vs-rebuild rule: a run of pure insertions can only MERGE
//     components, so a still-published snapshot is repaired with a local
//     DSU pass over the inserted (or already-accepted tree) edges — no
//     sketch reads, no Boruvka.  Any deletion may split a component and
//     demands a rebuild from the front end's authoritative state.  The
//     cache owns this rule for every front end: they report edges with
//     note_link() and deletions with note_split(), a throwing update or
//     flush poisons the pending set (PoisonOnThrow), and serve() runs
//     acquire -> repair -> rebuild.
//
// Thread-safety contract: ONE writer (the thread applying update batches
// and calling valid/acquire/publish/repair/invalidate) and any number of
// readers calling snapshot() + the QuerySnapshot accessors.  Stats are
// writer-side only.  Readers see each published snapshot atomically, so
// every answer is consistent with the exact prefix of batches that
// snapshot reflects — published versions are monotone (version strictly
// increases), which is what the concurrent-reader stress test asserts.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/atomic_shared_ptr.h"
#include "graph/types.h"

namespace streammpc {

// One immutable, self-contained query result.  Never mutated after
// publish; safe to read from any thread for as long as the shared_ptr is
// held, regardless of what the owning front end does meanwhile.
struct QuerySnapshot {
  // Publish sequence number (1-based, strictly increasing per cache).
  std::uint64_t version = 0;
  // The owning sketches' mutation epoch this snapshot reflects.
  std::uint64_t epoch = 0;

  // Canonical component ids: labels[v] = minimum vertex id of v's
  // component (the paper's §4.2 component id).
  std::vector<VertexId> labels;
  // Spanning forest, normalized (u < v) and sorted.
  std::vector<Edge> forest;
  // Components as one CSR, in deterministic first-appearance order (group
  // g holds the g-th distinct label encountered scanning v = 0..n-1; since
  // labels are min-vertex canonical this is ascending-min-vertex order).
  // Built once here instead of per components() call — the hoist of the
  // first-appearance grouping that DynamicConnectivity used to redo on
  // every query.
  std::vector<VertexId> comp_members;        // size n
  std::vector<std::uint32_t> comp_offsets;   // size components + 1
  std::vector<VertexId> comp_labels;         // label of group g

  VertexId n() const { return static_cast<VertexId>(labels.size()); }
  std::size_t components() const {
    return comp_offsets.empty() ? 0 : comp_offsets.size() - 1;
  }
  bool connected(VertexId u, VertexId v) const {
    return labels[u] == labels[v];
  }
  VertexId component_of(VertexId v) const { return labels[v]; }
  std::span<const VertexId> component(std::size_t g) const {
    return std::span<const VertexId>(comp_members)
        .subspan(comp_offsets[g], comp_offsets[g + 1] - comp_offsets[g]);
  }
};

class QueryCache {
 public:
  using SnapshotPtr = std::shared_ptr<const QuerySnapshot>;

  // Epoch value no snapshot was ever built at.
  static constexpr std::uint64_t kNeverBuilt = ~std::uint64_t{0};

  // `n` sizes the pending-edge cap at 8n + 64: past it the buffer rivals
  // the sketches, so the cache stops buffering and the next serve()
  // rebuilds.  Front ends that note only accepted tree edges (at most
  // n - 1 between deletions) never reach it.
  explicit QueryCache(VertexId n = 0)
      : pending_cap_(8 * static_cast<std::size_t>(n) + 64) {}

  // --- reader side (lock-free, any thread) -----------------------------------
  // Latest published snapshot; nullptr before the first publish.  A stale
  // snapshot stays published until the writer replaces it — readers always
  // see SOME consistent prefix of the applied batches, never a torn state.
  SnapshotPtr snapshot() const { return snapshot_.load(); }

  // --- writer side -----------------------------------------------------------
  // True iff the published snapshot was built at exactly `epoch` (and has
  // not been invalidated since).
  bool valid(std::uint64_t epoch) const { return built_epoch_ == epoch; }

  // Hit path: returns the published snapshot when it is valid at `epoch`
  // (counts a hit), nullptr otherwise (counts a miss — the caller repairs
  // or rebuilds and publishes).
  SnapshotPtr acquire(std::uint64_t epoch);

  // Rebuild path: builds the component CSR from `labels` (which must be
  // min-vertex canonical), sorts nothing (`forest` must arrive sorted),
  // and atomically publishes the result as valid at `epoch`.
  SnapshotPtr publish(std::uint64_t epoch, std::vector<VertexId> labels,
                      std::vector<Edge> forest);

  // Repair path (insert-only rule): derives the next snapshot from the
  // currently published one by uniting the endpoints of every edge in
  // `inserted` — merges only, exactly what a run of pure insertions can do
  // to the partition.  Edges joining distinct components enter the forest;
  // merged components adopt the minimum of their labels, keeping the
  // canonical form.  Publishes valid-at-`epoch` and returns the new
  // snapshot, or nullptr when nothing was ever published (caller falls
  // back to a rebuild).  Cost: O(|inserted| + n), zero sketch reads.
  SnapshotPtr repair(std::uint64_t epoch, std::span<const Edge> inserted);

  // Marks the cache stale without unpublishing: the next acquire misses,
  // but concurrent readers keep the last consistent snapshot.
  void invalidate();

  // --- repair bookkeeping (writer side) --------------------------------------
  // Records an edge that may merge two components since the last publish.
  // Call it only after the edge's delta was accepted for delivery, so a
  // rejected update never leaves a phantom repair edge.
  void note_link(const Edge& e);
  // A deletion: the partition may split, which no repair can express —
  // drops the pending edges and invalidates; the next serve() rebuilds.
  void note_split();

  // Scope guard for a writer-side update or flush: if the scope exits by an
  // exception, the sketches may hold any subset of the call's deltas, so
  // the pending edges no longer describe them — handled like a split.
  class PoisonOnThrow {
   public:
    explicit PoisonOnThrow(QueryCache& cache)
        : cache_(cache), uncaught_(std::uncaught_exceptions()) {}
    ~PoisonOnThrow() {
      if (std::uncaught_exceptions() > uncaught_) cache_.note_split();
    }
    PoisonOnThrow(const PoisonOnThrow&) = delete;
    PoisonOnThrow& operator=(const PoisonOnThrow&) = delete;

   private:
    QueryCache& cache_;
    int uncaught_;
  };

  // What a rebuild produces: min-vertex canonical labels and the sorted
  // spanning forest (publish()'s inputs).
  struct Rebuilt {
    std::vector<VertexId> labels;
    std::vector<Edge> forest;
  };
  // The front ends' query path at `epoch`: the published snapshot when it
  // is still valid; else a repair with the pending edges when no deletion
  // or failure intervened; else a publish of `rebuild()`.  Either way the
  // pending set is consumed.
  SnapshotPtr serve(std::uint64_t epoch,
                    const std::function<Rebuilt()>& rebuild);

  struct Stats {
    std::uint64_t hits = 0;       // acquire() served the published snapshot
    std::uint64_t misses = 0;     // acquire() found it stale
    std::uint64_t rebuilds = 0;   // publish() calls (full builds)
    std::uint64_t repairs = 0;    // repair() publishes (incremental)
    std::uint64_t invalidations = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Fills comp_members/comp_offsets/comp_labels from snap.labels in
  // first-appearance (vertex-ascending) order.
  static void build_components(QuerySnapshot& snap);
  void install(std::shared_ptr<QuerySnapshot> snap, std::uint64_t epoch);

  AtomicSharedPtr<const QuerySnapshot> snapshot_;
  std::uint64_t built_epoch_ = kNeverBuilt;
  std::uint64_t next_version_ = 1;
  // Edges noted since the last publish; meaningful only while repairable_.
  std::vector<Edge> pending_;
  std::size_t pending_cap_;
  bool repairable_ = true;
  Stats stats_;
};

}  // namespace streammpc
