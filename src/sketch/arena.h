// Flat per-bank arena for the AGM vertex sketches.
//
// The seed implementation stored bank b as vector<L0Sampler> with each
// sampler owning vector<SSparseRecovery> owning vector<OneSparseCell> —
// three levels of pointer chasing and one small heap allocation per
// (vertex, level) on the edge-update hot path.  The arena replaces that
// with contiguous cell storage: one *store* per sketch level, each a
// lazily sized page map (vertex -> page, kNoPage when untouched) plus a
// packed array of ArenaCell pages of one level's cells each — cell
// (vertex, level, row, bucket) lives in stores[level] at
// page(vertex) * rows * buckets + row * buckets + bucket.  An update of
// depth d touches the pages of levels 0..d (depth >= j with probability
// 2^-j), so a vertex holds a page at a level only once some coordinate
// reached it: allocation granularity matches the seed's lazy
// per-(vertex, level) grids, a level nobody reaches costs nothing, and
// total memory stays ~O(n).  An empty vertex costs one kNoPage entry in
// each mapped level's map and nothing else.
//
// Cell layout is AoS (one 32-byte record per cell) rather than the
// earlier three SoA parallel arrays: an edge update touches every field
// of each cell it hits, so the record layout costs ONE cache line per
// (cell row) instead of three (w, s, fp lived ~pages apart).  E10c
// measures ~24 lines per update under SoA vs ~8 under AoS at the default
// 2x8 geometry; merges walk pages sequentially either way and tie.
//
// Banks share no state, which is what makes batched ingest embarrassingly
// parallel across banks (see VertexSketches::update_edges).  All cell
// arithmetic matches OneSparseCell exactly, so for a fixed seed the arena
// is bit-identical to the seed's nested storage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/types.h"
#include "sketch/l0sampler.h"

namespace streammpc {

// One sketch cell as a packed 32-byte record: {w, s_lo, s_hi, fp}.
// The s accumulator is a signed __int128 stored as two uint64_t halves
// and recombined at the field boundary — embedding a __int128 member
// directly would give the record 16-byte alignment and (with the three
// 8-byte neighbors) 48 bytes of padded size.  alignas(32) keeps sizeof
// at 32 AND guarantees a record never straddles a 64-byte cache line,
// so the update hot path pays exactly one line per cell row.
struct alignas(32) ArenaCell {
  std::int64_t w = 0;       // sum of applied deltas
  std::uint64_t s_lo = 0;   // low half of the __int128 coord-weighted sum
  std::uint64_t s_hi = 0;   // high half (two's complement)
  std::uint64_t fp = 0;     // Mersenne-61 fingerprint accumulator

  __int128 s() const {
    return static_cast<__int128>(
        (static_cast<unsigned __int128>(s_hi) << 64) | s_lo);
  }
  void set_s(__int128 value) {
    const auto bits = static_cast<unsigned __int128>(value);
    s_lo = static_cast<std::uint64_t>(bits);
    s_hi = static_cast<std::uint64_t>(bits >> 64);
  }
  // apply()'s per-cell arithmetic: w and s by integer addition, fp in
  // the Mersenne-61 field.  Identical to OneSparseCell::add_term.
  void add_delta(std::int64_t dw, __int128 ds, std::uint64_t term) {
    w += dw;
    set_s(s() + ds);
    fp = Mersenne61::add(fp, term);
  }
};
static_assert(sizeof(ArenaCell) == 32, "cell record must stay 32B packed");
static_assert(alignof(ArenaCell) == 32,
              "cell records must never straddle a cache line");

class BankArena {
 public:
  BankArena(VertexId n, const L0Params& params);

  // Applies a planned coordinate update to vertex v's cells.  `delta` is
  // the signed weight for THIS endpoint (already negated for the min
  // endpoint); `negated` selects the matching precomputed fingerprint
  // terms from the plan.
  void apply(VertexId v, Coord c, std::int64_t delta, const CoordPlan& plan,
             bool negated);

  // Allocates (if absent) every page an apply(v, ...) of depth `depth`
  // would touch: vertex v's pages at levels 0..depth.  Mirrors apply's
  // first-touch allocation sequence exactly, so a serial preparation pass
  // in canonical order yields the same page numbering as serial ingest —
  // after which apply() on prepared vertices performs no allocation and
  // concurrent apply() calls on DISJOINT vertex sets are race-free (they
  // write disjoint, pre-sized cells).
  // This is what makes the Simulator's (machine, bank) grid cells
  // schedulable in any order while staying byte-identical to serial
  // machine-by-machine ingest.
  void prepare_pages(VertexId v, unsigned depth);

  // Words of cell and page-map storage attributable to the vertex block
  // [lo, hi) — the *resident* footprint of the machine hosting those
  // vertices under the contiguous-block partitioner.  Page-map words are
  // charged at the same half-word-per-entry rate as allocated_words(), so
  // summing over a partition of [0, n) reproduces allocated_words() up to
  // one word of rounding per block.
  //
  // O(log n), for any block boundary: the arena keeps a Fenwick tree over
  // vertices of each vertex's cell words (4 per record, summed over
  // stores), and counts the stores whose page map is populated (O(stores)
  // per call), so the answer is
  //   prefix(hi) - prefix(lo) + mapped_stores * ((hi - lo) / 2),
  // exactly resident_words_scan(lo, hi), rounding included.  The tree is
  // built from the stores' owner lists on the first resident query, so an
  // arena nobody asks (flat or routed ingest) pays nothing; from then on
  // two places keep it up to date: page_for (a page allocated) and
  // snap_rollback_store (pages past the watermark freed).  The tree is
  // host bookkeeping — a real machine knows its own
  // shard size locally — so neither this nor allocated_words() charges it
  // to the model.  The first call writes the (mutable) tree, so it must
  // not race with another call on the same arena.
  std::uint64_t resident_words(VertexId lo, VertexId hi) const;

  // Bulk form: adds the words of block block(i) = [lo, hi) (a pair of
  // vertex ids) to out[i] for every i < out.size().  A block that starts
  // where the previous one ended reuses that boundary's prefix, so a
  // tiling (Cluster::vertex_block) costs one prefix per boundary.
  template <class BlockFn>
  void add_resident_words(std::span<std::uint64_t> out,
                          BlockFn&& block) const {
    const std::uint64_t mapped = resident_counters();
    VertexId prev_hi = 0;
    std::uint64_t prev_prefix = 0;  // prefix(0)
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto [lo, hi] = block(i);
      SMPC_CHECK(lo <= hi && hi <= n_);
      const std::uint64_t lo_prefix =
          lo == prev_hi ? prev_prefix : resident_prefix(lo);
      prev_hi = hi;
      prev_prefix = resident_prefix(hi);
      out[i] += prev_prefix - lo_prefix + mapped * ((hi - lo) / 2);
    }
  }

  // The same quantity by scanning every store's page map over [lo, hi):
  // O(stores * (hi - lo)).  Test-only oracle for the counters above (and
  // the bench that times them); no library code calls it.
  std::uint64_t resident_words_scan(VertexId lo, VertexId hi) const;

  // --- transactional ingest (fault tolerance, see mpc/fault_injector.h) -----
  // Brackets one batch's page preparation + apply pipeline so a faulted or
  // over-budget machine's partial grid work can be rolled back instead of
  // poisoning the arena.  Protocol, per batch:
  //
  //   snapshot_begin();                       // record page watermarks
  //   snapshot_pages(v, depth) per endpoint;  // save pre-images, mirror of
  //                                           // the prepare_pages pass
  //   ...prepare_pages + apply as usual...
  //   rollback_pages() or snapshot_commit();
  //
  // snapshot_pages saves the pre-image cell records of every
  // already-allocated page an apply(v, <= depth) would touch (first save
  // wins; all saves happen before any apply, so every saved image is the
  // true pre-batch state) and remembers v as a fresh-page candidate
  // otherwise.  Pages allocated after snapshot_begin are recognized by the
  // watermark, so rollback restores saved images record-wise, truncates
  // each store back to its watermark (taking the truncated pages out of
  // the resident counters), and clears the fresh candidates' page-map
  // entries — leaving the arena byte-identical to the snapshot point and
  // the counters at their snapshot values.  The contract that makes this
  // exact is the grid discipline prepare_pages already guarantees: every
  // page the batch touches is allocated during the preparation pass over
  // exactly the (vertex, depth) set the snapshot walked.
  void snapshot_begin();
  void snapshot_pages(VertexId v, unsigned depth);
  void rollback_pages();
  void snapshot_commit();

  // Element-wise sum of the vertices' cells into `out` (Lemma 3.5's S_A),
  // every level materialized.  Resets `out` first and reuses its buffer —
  // no allocation after the first call with the same scratch sampler.
  // The materializing path behind VertexSketches::merged / sampler, and
  // the oracle the fused sampling kernel is tested against; Boruvka
  // queries go through add_level instead.
  void merge_into(const L0Params& params, std::span<const VertexId> vertices,
                  L0Sampler& out) const;

  // Adds the level-`level` records of every vertex in `vertices` into
  // `out` (cells_per_level cells, row-major [row][bucket]): w and s by
  // integer addition, fp in the field, exactly merge_into's arithmetic for
  // that level.  Vertices without a page at the level add nothing.
  // Returns whether any vertex owns a page there; on false `out` is
  // untouched.  VertexSketches::sample_boundaries, the fused Boruvka
  // kernel, calls it once per live group per level, from the sparsest
  // level down, so a group stops costing anything at the first level that
  // recovers.
  bool add_level(unsigned level, std::span<const VertexId> vertices,
                 std::span<OneSparseCell> out) const;
  // Whether any vertex owns a page at `level` (its store's page map is
  // populated).  A level nobody reaches is all zero for every vertex set,
  // so the kernel skips it for all groups at once.
  bool level_mapped(unsigned level) const {
    return !stores_[level].page_of.empty();
  }

  // Copy of one vertex's sampler (zero sampler if the vertex is untouched).
  L0Sampler extract(const L0Params& params, VertexId v) const;

  // Hints an upcoming edge's hot-path lines into cache; the ingest loop
  // calls this one edge ahead so the loads overlap with the current
  // edge's hash computation.  Two-stage: the page-map entries first, then
  // — when the endpoints already own level-0 pages — the first cell record
  // of each page, so the record line streams in behind the map line.  The
  // map reads here are plain loads (safe: a non-empty map is fully
  // sized), typically hitting the line the previous edge's map prefetch
  // pulled.
  void prefetch_hot(Edge e) const {
    const Store& level0 = stores_[0];
    if (level0.page_of.empty()) return;
    const std::uint32_t* map = level0.page_of.data();
    __builtin_prefetch(map + e.u);
    __builtin_prefetch(map + e.v);
    const ArenaCell* cells = level0.cells.data();
    const std::uint32_t pu = map[e.u];
    const std::uint32_t pv = map[e.v];
    if (pu != kNoPage)
      __builtin_prefetch(cells + std::size_t{pu} * cells_per_level_);
    if (pv != kNoPage)
      __builtin_prefetch(cells + std::size_t{pv} * cells_per_level_);
  }

  // Exact-cell prefetch for a PLANNED upcoming update: hints, with write
  // intent, every record at every level that apply(e.v)/apply(e.u)
  // with this plan will touch.  This is the strong form of the ingest hint the AoS record
  // makes worthwhile: one 32-byte record per (level, row) is one line, so
  // the plan's offsets name the exact lines — under SoA the same
  // information cost three lines per cell and the hint was left at the
  // page map.  The pipelined ingest loop (ingest_cell) calls prefetch_hot
  // for item i+1 BEFORE hashing its plan and this AFTER, so the map
  // demand-reads here land on lines already in flight and the record
  // lines arrive while item i applies.
  // Deepening this hint from "deep-level maps only" to the exact deep-level
  // records is what moved the measured layout speedup from ~1.2x to
  // ~1.7x: about half the items carry depth >= 1, and their deep-level
  // cell misses otherwise serialize behind the level-0 applies.  The
  // level walk goes through level_records on purpose — one page lookup
  // and one branch per (level, endpoint) ahead of a straight-line
  // prefetch burst measured faster than per-row page-presence tests.
  void prefetch_planned(Edge e, const CoordPlan& plan) const {
    const unsigned limit = plan.depth < levels_ ? plan.depth : levels_ - 1;
    for (unsigned j = 0; j <= limit; ++j) {
      const std::uint32_t* offsets =
          plan.offsets.data() + static_cast<std::size_t>(j) * rows_;
      for (const VertexId vtx : {e.v, e.u}) {
        const std::span<const ArenaCell> records = level_records(j, vtx);
        if (records.empty()) continue;
        for (unsigned r = 0; r < rows_; ++r)
          __builtin_prefetch(records.data() + offsets[r], 1);
      }
    }
  }

  // Words of cell and page-map storage currently allocated.
  std::uint64_t allocated_words() const;

  // Per-bank scratch plan, owned here so concurrent bank tasks never share
  // a buffer.
  CoordPlan& plan_scratch() { return plan_; }

  // Read-only view of vertex v's cells_per_level records at `level`
  // (empty span when the vertex owns no page there).  Layout-inspection
  // hook for the byte-exactness tests and the measured E10c cache-line
  // census; not on any hot path.
  std::span<const ArenaCell> level_records(unsigned level, VertexId v) const;
  unsigned levels() const { return levels_; }

 private:
  static constexpr std::uint32_t kNoPage = ~0u;

  // One level's page map plus packed cell-record pages of
  // cells_per_level_ records each.
  struct Store {
    std::vector<std::uint32_t> page_of;  // [vertex] -> page index or kNoPage
    std::vector<ArenaCell> cells;        // [page * cells_per_level_ + cell]
    std::vector<VertexId> owner;  // [page] -> owning vertex (reverse map)
    std::uint32_t pages = 0;
  };

  // Per-store snapshot: the page watermark at snapshot_begin, saved
  // pre-image records of pages the batch will touch, and the vertices
  // that may receive fresh (post-watermark) pages.
  struct StoreSnap {
    std::uint32_t watermark = 0;  // store.pages at snapshot_begin
    bool had_map = false;         // page_of was populated at snapshot_begin
    std::vector<char> saved_mark;            // [page < watermark] image saved
    std::vector<std::uint32_t> saved_pages;  // pages with saved images
    std::vector<ArenaCell> saved_cells;      // images, one page each
    std::vector<VertexId> fresh_candidates;  // had no page at snapshot time
  };

  std::uint32_t page_for(Store& store, VertexId v);
  static void snap_begin_store(StoreSnap& snap, const Store& store);
  void snap_save_page(StoreSnap& snap, const Store& store, VertexId v) const;
  void snap_rollback_store(StoreSnap& snap, Store& store);
  // Resident-word counters (see resident_words): add `words` (modulo 2^64,
  // so a negated count subtracts) at vertex v — a no-op until the tree is
  // built — and the tree's sum over [0, end).  resident_counters() builds
  // the tree if it is not built yet and returns the number of stores whose
  // page map is populated.
  void resident_add(VertexId v, std::uint64_t words);
  std::uint64_t resident_prefix(VertexId end) const;
  std::uint64_t resident_counters() const;

  VertexId n_;
  unsigned levels_;
  unsigned rows_;
  std::size_t cells_per_level_;
  std::vector<Store> stores_;  // [level], maps sized on first page
  CoordPlan plan_;
  // Fenwick tree (1-based, n_ + 1 entries once built; empty until the
  // first resident query) over each vertex's cell words.
  mutable std::vector<std::uint64_t> resident_tree_;
  bool txn_active_ = false;
  std::vector<StoreSnap> snaps_;  // [level], sized by the first snapshot
};

}  // namespace streammpc
