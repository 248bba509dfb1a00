// AGM graph sketches (paper §3.1, Lemmas 3.3–3.5).
//
// For each vertex v the signed incidence vector X_v over edge coordinates:
//   X_v(coord{i,j}) = +1 if {i,j} is an edge and v = max(i,j)
//                     -1 if {i,j} is an edge and v = min(i,j)
// so that for any vertex set A, X_A = sum_{v in A} X_v has support exactly
// E(A, V \ A) (internal edges cancel) — Lemma 3.3.
//
// VertexSketches keeps t independent *banks* of L0-samplers per vertex
// (§6.3 maintains t = O(log n) independent sketches per vertex); bank b of
// a vertex set is the merge of bank b over its vertices and yields a random
// boundary edge (Lemma 3.5).  Banks are consumed one per Boruvka level so
// that each query uses fresh randomness.
//
// Storage and ingest (this repo's performance layer, see DESIGN.md):
//   * each bank's cells live in a flat arena of packed 32-byte AoS records
//     (sketch/arena.h) instead of nested per-vertex vectors;
//   * ALL ingest runs one pipeline, update_edges(routed): the batch —
//     flat span or routed CSR — becomes a (machines x banks) cell grid,
//     executed as a deterministic canonical-order page-preparation pass
//     (begin_routed_cells) followed by race-free per-cell application
//     (ingest_cell).  A flat batch is simply the 1-machine grid.  Cells
//     share no mutable state after preparation, so any thread count and
//     any schedule gives bit-identical sketches;
//   * boundary queries (sample_boundary / sample_boundaries) never build a
//     merged sampler: one fused kernel sums each group one level at a time
//     from the sparsest down and stops at the first level that recovers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpc/comm_ledger.h"
#include "mpc/config.h"
#include "sketch/arena.h"
#include "sketch/coord.h"
#include "sketch/l0sampler.h"

namespace streammpc {

class ThreadPool;

namespace mpc {
class Cluster;
class Simulator;
}

struct GraphSketchConfig {
  unsigned banks = 12;  // t: independent sketches per vertex
  L0Shape shape{2, 8};  // per-level s-sparse geometry
  std::uint64_t seed = 0x5eedULL;
  // Width of the cell grid's thread pool, shared by every ingest path
  // (flat, routed, simulated, transactions, gutter drains) and by every
  // structure of the same width (ThreadPool::shared): 0 = hardware
  // concurrency, 1 = serial.  The sketch contents never depend on it.
  unsigned ingest_threads = 0;
};

class VertexSketches {
 public:
  VertexSketches(VertexId n, const GraphSketchConfig& config);

  VertexId n() const { return n_; }
  unsigned banks() const { return static_cast<unsigned>(params_.size()); }
  const EdgeCoordCodec& codec() const { return codec_; }

  // Applies an edge insertion (delta = +1) or deletion (delta = -1) to the
  // sketches of both endpoints in every bank.
  void update_edge(Edge e, std::int64_t delta);

  // Batched ingest: applies every delta to both endpoints in every bank.
  // Equivalent to calling update_edge per element (linearity).  Stages
  // the span as a 1-machine cell grid (machine 0 owns both endpoints of
  // every delta) and runs the routed overload below on it — the same
  // pipeline every other ingest path executes.
  //
  // Preconditions: every edge normalized (u < v) and v < n(); a bad edge
  // throws before any bank is mutated.  Not thread-safe against concurrent
  // calls or queries on the same object (internally cell-parallel; cells
  // share no state after preparation).  Deterministic: for a fixed seed
  // the resulting sketch state is byte-identical for any thread count and
  // any batch chunking.
  void update_edges(std::span<const EdgeDelta> batch);

  // Routed ingest (MPC-cluster-aware batching): consumes the per-machine
  // sub-batches produced by mpc::Cluster::route_batch, applying each routed
  // delta only to the endpoint(s) the receiving machine owns.  Runs the
  // machines x banks cell grid: prepares pages in canonical order
  // (begin_routed_cells, which rejects a malformed edge before any
  // mutation), bumps mutation_epoch(), then runs every non-empty machine's
  // cells (ingest_cell) across the ingest pool — at width 1 in serial
  // machine-major order.  Because the cells are linear and
  // commutative, the final sketch state is byte-identical to flat
  // update_edges() over the original batch, for any machine count and
  // schedule — routing changes the accounting, never the sketches.  Same
  // preconditions, thread-safety, and determinism as the flat overload.
  //
  // Returns the number of items applied (nonzero delta, at least one owned
  // endpoint), summed over every cell in machine-major order, so the value
  // is identical for every schedule.  `skip_machine`/`skip_bank` name one
  // cell whose work is lost — the simulator's fault-injection hook: the
  // caller rolls the whole batch back afterwards (begin_transaction), so
  // the skip never leaks into observable state.  kNoSkip = run every cell.
  static constexpr std::uint64_t kNoSkip = ~std::uint64_t{0};
  std::uint64_t update_edges(const mpc::RoutedBatch& routed,
                             std::uint64_t skip_machine = kNoSkip,
                             unsigned skip_bank = 0);

  // The ingest pool for a batch of `items`: null when serial (width 1, or
  // a batch too small to be worth waking the workers).
  ThreadPool* pool(std::size_t items) const;

  // --- (machine, bank) cell ingest: THE execution grid ----------------------
  // The primitive every ingest path runs (via update_edges(routed)): one
  // machine's CSR sub-batch applied to one bank.  Within a bank, two
  // machines' cells touch disjoint vertices (the router sends each
  // endpoint's delta only to the machine hosting it, and machines host
  // disjoint vertex blocks), so after a deterministic preparation pass the
  // grid's cells can run concurrently in ANY schedule and still leave the
  // arenas byte-identical to serial machine-by-machine ingest.
  //
  // begin_routed_cells() validates and encodes every routed item once and
  // pre-allocates — in the canonical order serial ingest would use
  // (machine-ascending, batch order, max endpoint first, hot page then
  // deepening overflow levels) — every arena page any cell will touch.
  // The pass is independent per bank and may fan out across the ingest
  // pool; page numbering never depends on the thread count.  After it
  // returns, the arenas are fully sized and ingest_cell() performs no
  // allocation.
  void begin_routed_cells(const mpc::RoutedBatch& routed);

  // One grid cell: applies machine `machine`'s CSR sub-batch to bank
  // `bank` alone, using that cell's private plan scratch.  Returns the
  // number of items applied (nonzero delta, at least one owned endpoint).
  // Requires a begin_routed_cells(routed) call since the last mutation;
  // distinct (machine, bank) cells may run concurrently, a single cell is
  // not reentrant.  Running every cell of the grid, in any order, is
  // byte-identical to update_edges(routed).
  std::uint64_t ingest_cell(std::uint64_t machine, unsigned bank,
                            const mpc::RoutedBatch& routed);

  // Always 0 (intra-cell sharding was removed); bench/e2e still reports it.
  std::uint64_t auto_sharded_batches() const { return 0; }

  // --- transactional ingest (fault tolerance) --------------------------------
  // Brackets the begin_routed_cells + ingest_cell pipeline of ONE routed
  // batch so a faulted delivery's partial grid work can be undone:
  //
  //   begin_transaction(routed);         // BEFORE begin_routed_cells: walks
  //                                      // the batch in the same per-bank
  //                                      // pattern as the preparation pass
  //                                      // and snapshots every page it will
  //                                      // touch (BankArena::snapshot_pages)
  //   ...begin_routed_cells + cells...
  //   rollback_transaction();            // arenas byte-identical to the
  //                                      // snapshot point, cells invalidated
  //   — or —
  //   commit_transaction();              // drop the snapshot
  //
  // Banks share nothing, so the snapshot pass fans across the ingest pool
  // exactly like the preparation pass.  Validation mirrors
  // begin_routed_cells: a bad edge throws here, before any page is saved or
  // allocated.  Cost is O(touched pages) words — paid only when the
  // executor runs with a fault injector attached; untransacted ingest is
  // unchanged.
  void begin_transaction(const mpc::RoutedBatch& routed);
  void rollback_transaction();
  void commit_transaction();

  // Words of sketch-shard state resident on `machine`: the arena pages (and
  // page-map share) of the vertex block the cluster's partitioner assigns
  // it, summed over banks.  This is the memory the machine holds *between*
  // rounds — charged against local memory s alongside the delivered
  // sub-batch by the Simulator's resident-fidelity accounting.  `universe`
  // for the block is n().
  std::uint64_t resident_words(std::uint64_t machine,
                               const mpc::Cluster& cluster) const;
  // Every machine's resident words at once: out[m] = resident_words(m,
  // cluster), with one counter prefix per block boundary per bank
  // (O(banks * machines * log n)).  out.size() must be cluster.machines().
  // The fold the Simulator runs once per delivery and after a grow.
  void resident_words(const mpc::Cluster& cluster,
                      std::span<std::uint64_t> out) const;

  // Merged sampler of bank `bank` over a vertex set (Lemma 3.5's S_A),
  // every level materialized.  The _into variant reuses `out`'s buffer
  // across calls.  merged_into + decode_sample is the materializing oracle
  // of the sampling kernel below: same sample, byte for byte.
  L0Sampler merged(unsigned bank, std::span<const VertexId> vertices) const;
  void merged_into(unsigned bank, std::span<const VertexId> vertices,
                   L0Sampler& out) const;

  // Samples a boundary edge of the vertex set from bank `bank`; nullopt if
  // the boundary is (w.h.p.) empty or the sampler failed.  The one-group
  // case of sample_boundaries: no merged sampler is built, and the answer
  // equals decode_sample(bank, merged(bank, vertices)).
  std::optional<Edge> sample_boundary(unsigned bank,
                                      std::span<const VertexId> vertices) const;

  // Batched group queries (the Boruvka inner loop): `members` is the
  // concatenation of every group's vertex list, `offsets` the CSR group
  // boundaries ([group g] = members[offsets[g]..offsets[g+1]), an empty
  // group allowed).  Decodes one boundary-edge sample per group into
  // out[g] (resized to the group count) with one fused kernel: levels are
  // visited from the sparsest (L-1) down, levels no vertex reaches are
  // skipped for every group at once, and each still-live group sums its
  // members' level records into one cells_per_level buffer
  // (BankArena::add_level) and tries recovery.  The first level that
  // recovers gives the min-rank coordinate (L0Params::sample_level) — the
  // level L0Sampler::sample picks on the full merge — and the group
  // retires.  Cell sums commute, so out[g] equals
  // decode_sample(bank, merged(bank, group g)) exactly.  Buffers are
  // thread-local, so concurrent calls on one const object are safe.
  void sample_boundaries(unsigned bank, std::span<const VertexId> members,
                         std::span<const std::uint32_t> offsets,
                         std::vector<std::optional<Edge>>& out) const {
    sample_boundaries(bank, members, offsets, {}, out);
  }
  // The same call with a `scratch` argument that is never read or written.
  // Kept only for callers that still pass a scratch sampler vector (the
  // bench/e2e replay); new code uses the overload above.
  void sample_boundaries(unsigned bank, std::span<const VertexId> members,
                         std::span<const std::uint32_t> offsets,
                         std::vector<L0Sampler>& /*scratch, unread*/,
                         std::vector<std::optional<Edge>>& out) const {
    sample_boundaries(bank, members, offsets, {}, out);
  }

  // Zero-sum complement variant.  `classes[g]` is group g's class id (keep
  // ids dense: a table is sized by the largest).  PRECONDITION: the groups
  // of one class together cover whole connected components of the
  // sketched graph, so by linearity (Remark 3.2) their sketches sum to
  // exactly the zero sketch.  Per class, the group with the most members
  // (ties to the lowest g) — the complement — is therefore never walked:
  // at each level its cells are one per-class buffer into which the
  // class-mates' level sums are subtracted (OneSparseCell::subtract).
  // Class-mates stay live, even after their own sample is decided, until
  // the complement recovers; a class of one group stays zero and samples
  // nothing.  Under the precondition every sample equals the class-free
  // call's.  An empty `classes` is the class-free call.
  void sample_boundaries(unsigned bank, std::span<const VertexId> members,
                         std::span<const std::uint32_t> offsets,
                         std::span<const std::uint32_t> classes,
                         std::vector<std::optional<Edge>>& out) const;

  // Decodes a sampler's output into an edge.
  std::optional<Edge> decode_sample(unsigned bank, const L0Sampler& s) const;

  const L0Params& params(unsigned bank) const { return params_[bank]; }
  // Copy of one vertex's sampler in one bank (zero sampler if untouched).
  L0Sampler sampler(unsigned bank, VertexId v) const {
    return arenas_[bank].extract(params_[bank], v);
  }
  // Read-only view of bank `bank`'s resident arena — the record-level
  // inspection hook (BankArena::level_records) for the byte-exactness
  // tests and the measured cache-line census; not a query API.
  const BankArena& arena(unsigned bank) const { return arenas_[bank]; }

  // --- mutation epoch (query-cache invalidation) -----------------------------
  // Monotone count of sketch mutation events.  Bumped by update_edges
  // (routed) — the one choke point every flat, routed, simulated, split,
  // and fault-retry delivery executes — and by rollback_transaction() (a
  // rollback restores the pre-batch bytes, but a consumer cannot know that
  // without re-reading them, so a rolled-back delivery must never leave a
  // stale-valid cache).  A QueryCache snapshot built at epoch E is
  // servable as fresh iff mutation_epoch() is still E (see
  // core/query_cache.h).
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  // --- memory accounting -----------------------------------------------------
  // Words actually allocated across all banks and vertices.
  std::uint64_t allocated_words() const;
  // Nominal per-vertex footprint (Lemma 3.4's O(log^2 n log(1/delta)) words
  // per sketch, times banks).
  std::uint64_t nominal_words_per_vertex() const;

 private:
  // The fused kernel behind sample_boundary / sample_boundaries, writing
  // one sample per group into `out` (out.size() == groups).
  void sample_groups(unsigned bank, std::span<const VertexId> members,
                     std::span<const std::uint32_t> offsets,
                     std::span<const std::uint32_t> classes,
                     std::span<std::optional<Edge>> out) const;

  VertexId n_;
  EdgeCoordCodec codec_;
  ThreadPool* pool_;  // ThreadPool::shared(ingest_threads); null = serial
  std::vector<L0Params> params_;   // one per bank
  std::vector<BankArena> arenas_;  // one per bank
  std::vector<Coord> coord_scratch_;
  // Cell-ingest state: per-(machine, bank) plan scratch (cells never share
  // a buffer) plus the identity (object + item count) of the batch the
  // last begin_routed_cells prepared — ingest_cell refuses any other
  // batch, so a stale or foreign RoutedBatch fails the check instead of
  // applying deltas against another batch's cached coordinates.  (A batch
  // mutated in place between prepare and ingest at the same size is still
  // the caller's bug; the documented contract is prepare-then-ingest with
  // no intervening mutation.)
  std::vector<CoordPlan> cell_plans_;  // [machine * banks + bank]
  static constexpr std::size_t kCellsNotReady = ~std::size_t{0};
  const mpc::RoutedBatch* cells_ready_batch_ = nullptr;
  std::size_t cells_ready_items_ = kCellsNotReady;
  mpc::RoutedBatch staged_;  // the flat update_edges' 1-machine CSR
  std::vector<std::uint64_t> cell_applied_;  // [machine * banks + bank]
  std::uint64_t mutation_epoch_ = 0;  // see mutation_epoch()
};

// Deterministic CSR grouping for sample_boundaries(): assigns items
// 0..count-1 to groups by first appearance of their key in item order (so
// group ids never depend on hash-map iteration order) and scatters each
// item's member vertices into one contiguous members/offsets CSR via a
// counts + cursor pass.  Shared by the Boruvka loops of
// DynamicConnectivity (items = tree fragments) and AgmStaticConnectivity
// (items = single vertices).  All buffers are reused across calls.
class GroupCsr {
 public:
  // key_of(i) -> the item's group key; members_of(i) -> the item's member
  // vertices (a span that must stay valid through the call).
  template <typename KeyOf, typename MembersOf>
  void build(std::size_t items, const KeyOf& key_of,
             const MembersOf& members_of) {
    index_.clear();  // keeps its buckets: no rehash once warm
    counts_.clear();
    item_group_.resize(items);
    for (std::size_t i = 0; i < items; ++i) {
      const auto [it, fresh] = index_.try_emplace(
          key_of(i), static_cast<std::uint32_t>(counts_.size()));
      if (fresh) counts_.push_back(0);
      item_group_[i] = it->second;
      counts_[it->second] += static_cast<std::uint32_t>(members_of(i).size());
    }
    offsets_.assign(counts_.size() + 1, 0);
    for (std::size_t g = 0; g < counts_.size(); ++g)
      offsets_[g + 1] = offsets_[g] + counts_[g];
    members_.resize(offsets_.back());
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < items; ++i) {
      const auto ms = members_of(i);
      std::copy(ms.begin(), ms.end(),
                members_.begin() + cursor_[item_group_[i]]);
      cursor_[item_group_[i]] += static_cast<std::uint32_t>(ms.size());
    }
  }

  std::size_t groups() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::span<const VertexId> members() const { return members_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  // [item] -> the item's group id.
  std::span<const std::uint32_t> item_groups() const { return item_group_; }

 private:
  std::unordered_map<VertexId, std::uint32_t> index_;  // key -> group id
  std::vector<VertexId> members_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> item_group_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> cursor_;
};

// The shared front-end ingest step of every tier-1 structure.  Every path
// runs the same (machine x bank) cell grid (VertexSketches::update_edges);
// they differ only in routing, accounting, and enforcement:
//   no cluster — stage `deltas` as a 1-machine grid; no routing or
//                accounting (flat ingest);
//   no simulator (ExecMode::kRouted) — route `deltas` through `cluster`
//                under the vertex universe [0, universe) (scratch-reusing
//                `routed`), charge the per-machine loads on the cluster's
//                CommLedger under `label`, then run the grid;
//   a simulator (ExecMode::kSimulated) — hand the batch to it: it routes,
//                budgets each machine's resident shard + delivered
//                sub-batch against s, splits, retries or grows as its
//                SchedulerConfig says, and runs the grid (mpc/simulator.h).
// All paths leave identical sketch state.  A malformed edge (u >= v, or
// v >= universe) throws from routing or staging, before any round is
// charged.  An empty batch is a no-op (no round charged).
void routed_ingest(mpc::Cluster* cluster, VertexId universe,
                   std::span<const EdgeDelta> deltas, const std::string& label,
                   VertexSketches& sketches, mpc::RoutedBatch& routed,
                   mpc::Simulator* simulator = nullptr);

}  // namespace streammpc
