// E10 — ablation for §6.3: how many independent sketch banks does the
// deletion path need?
//
// The paper maintains t = O(log n) independent sketches per vertex; each
// Boruvka level of the replacement search consumes one, and an individual
// L0-sampler only succeeds with constant probability.  Sweeping t shows
// the failure rate (phases whose component count drifts from the oracle)
// decaying as banks are added — and the memory cost of each extra bank.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/dynamic_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "sketch/arena.h"
#include "sketch/coord.h"
#include "sketch/l0sampler.h"

namespace streammpc {
namespace {

void sweep_banks() {
  bench::section("E10: sketch banks vs deletion recovery (n = 128)",
                 "failure rate decays geometrically in t; memory grows "
                 "linearly in t");
  Table t({"banks t", "phases", "phases correct", "failure rate",
           "empty levels", "memory words"});
  const VertexId n = 128;
  const int kTrials = 6;
  for (const unsigned banks : {1u, 2u, 4u, 6u, 8u, 12u}) {
    std::size_t phases = 0, correct = 0;
    std::uint64_t empty_levels = 0;
    std::uint64_t memory = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(10000 + banks * 31 + trial);
      ConnectivityConfig cc;
      cc.sketch.banks = banks;
      cc.sketch.shape = L0Shape{1, 8};
      cc.sketch.seed = 10100 + banks * 97 + trial;
      DynamicConnectivity dc(n, cc);
      AdjGraph ref(n);
      gen::ChurnOptions opt;
      opt.n = n;
      opt.initial_edges = 300;
      opt.num_batches = 20;
      opt.batch_size = 12;
      opt.delete_fraction = 0.5;
      for (const auto& b : gen::churn_stream(opt, rng)) {
        dc.apply_batch(b);
        ref.apply(b);
        ++phases;
        // A sketch failure shows up as an over-count of components (a
        // replacement edge existed but was not recovered).
        if (dc.num_components() == num_components(ref)) ++correct;
      }
      empty_levels += dc.stats().empty_levels;
      memory = dc.memory_words();
    }
    t.add_row()
        .cell(static_cast<std::uint64_t>(banks))
        .cell(static_cast<std::uint64_t>(phases))
        .cell(static_cast<std::uint64_t>(correct))
        .cell(1.0 - static_cast<double>(correct) /
                        static_cast<double>(phases),
              4)
        .cell(empty_levels)
        .cell(memory);
  }
  t.print(std::cout);
}

void sweep_geometry() {
  bench::section("E10b: s-sparse grid geometry vs single-sampler success",
                 "bigger grids recover denser boundaries (Lemma 3.1 space/"
                 "success tradeoff)");
  Table t({"rows x buckets", "success rate", "words per sampler"});
  const std::uint64_t kDim = 1 << 16;
  Rng support_rng(10200);
  for (const L0Shape shape :
       {L0Shape{1, 4}, L0Shape{1, 8}, L0Shape{2, 8}, L0Shape{3, 16}}) {
    int found = 0;
    const int kTrials = 300;
    std::uint64_t words = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      L0Params params(kDim, shape, 10300 + trial);
      L0Sampler s;
      const int size = 1 + static_cast<int>(support_rng.below(64));
      for (int i = 0; i < size; ++i)
        s.update(params, support_rng.below(kDim), 1);
      if (s.sample(params)) ++found;
      words = s.words();
    }
    t.add_row()
        .cell(std::to_string(shape.rows) + "x" + std::to_string(shape.buckets))
        .cell(static_cast<double>(found) / kTrials, 3)
        .cell(words);
  }
  t.print(std::cout);
}

// E10c — cell-layout census: cache lines touched per edge update and per
// page merge under the packed AoS records.
//
// The arena (sketch/arena.h) packs each cell into one 32 B record
// {w, s_lo, s_hi, fp}.  An update touches `rows` cells out of the
// cells_per_level in each level it reaches (level 0 up to the item's
// depth, one page per level), one line per
// touched record; a merge scans whole pages.  DESIGN.md ("Cell layout: AoS
// record") compares these counts with the pre-switch SoA layout.
//
// The counts are MEASURED, not modeled: the arena is built for real,
// every page a sampled edge reaches is allocated up front (so the stores
// stop reallocating and addresses are final), and each update's footprint
// is the set of distinct 64-byte lines among the ACTUAL record addresses
// its applies dereference (BankArena::level_records).  Whatever the
// allocator did about alignment or page adjacency is therefore captured,
// instead of assumed away by in-page offset arithmetic.
void sweep_cell_layout() {
  bench::section("E10c: cell layout (AoS) — cache lines touched",
                 "updates touch `rows` records per level and endpoint; "
                 "merges scan whole pages");
  bench::BenchJson json("sketch_ablation");

  const std::uint64_t n = 1 << 16;
  const L0Shape shape{2, 8};  // the default GraphSketchConfig geometry
  const EdgeCoordCodec codec(n);
  const L0Params params(codec.dimension(), shape, 10400);
  const std::size_t cpl = params.cells_per_level();
  constexpr std::size_t kLine = 64;

  BankArena aos(n, params);

  // Sample the edge set once, then allocate every page it will touch
  // BEFORE any address is recorded — vector growth would otherwise move
  // the stores mid-census.
  Rng rng(10500);
  CoordPlan plan;
  const int kEdges = 20000;
  std::vector<Edge> edges;
  edges.reserve(kEdges);
  for (int i = 0; i < kEdges; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  for (const Edge e : edges) {
    params.plan_coord(codec.encode(e), +1, plan);
    for (const VertexId vtx : {e.v, e.u}) aos.prepare_pages(vtx, plan.depth);
  }

  // Census pass: per update, the distinct lines among the record
  // addresses the apply loop dereferences for that edge's plan.
  std::vector<std::uintptr_t> seen;  // reused per edge
  std::uint64_t update_lines = 0;
  std::uint64_t levels_touched = 0;
  for (const Edge e : edges) {
    params.plan_coord(codec.encode(e), +1, plan);
    seen.clear();
    const unsigned limit =
        plan.depth < params.levels() ? plan.depth : params.levels() - 1;
    for (unsigned j = 0; j <= limit; ++j) {
      ++levels_touched;
      const std::uint32_t* offsets =
          plan.offsets.data() + static_cast<std::size_t>(j) * shape.rows;
      for (const VertexId vtx : {e.v, e.u}) {
        const std::span<const ArenaCell> records = aos.level_records(j, vtx);
        for (unsigned r = 0; r < shape.rows; ++r) {
          seen.push_back(
              reinterpret_cast<std::uintptr_t>(records.data() + offsets[r]) /
              kLine);
        }
      }
    }
    std::sort(seen.begin(), seen.end());
    update_lines += static_cast<std::uint64_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
  }

  // Merge path: one vertex's level-0 page scanned end to end, measured
  // from the real address of its first and last record.
  const std::span<const ArenaCell> probe = aos.level_records(0, edges[0].v);
  const auto first = reinterpret_cast<std::uintptr_t>(probe.data());
  const std::uint64_t merge_lines =
      (first + cpl * sizeof(ArenaCell) - 1) / kLine - first / kLine + 1;

  const double per_update = static_cast<double>(update_lines) / kEdges;
  Table t({"layout", "bytes/cell", "lines/update (meas.)",
           "lines/page-merge"});
  t.add_row()
      .cell("AoS")
      .cell(static_cast<std::uint64_t>(sizeof(ArenaCell)))
      .cell(per_update, 2)
      .cell(merge_lines);
  t.print(std::cout);
  std::cout << "measured from live arena addresses over " << kEdges
            << " random edges ("
            << static_cast<double>(levels_touched) / kEdges
            << " levels touched per edge, both endpoints counted, "
            << shape.rows << "x" << shape.buckets << " grids)\n";

  json.set("cell_layout.method", std::string("measured-addresses"));
  json.set("cell_layout.edges_sampled", static_cast<std::uint64_t>(kEdges));
  json.set("cell_layout.levels_per_edge",
           static_cast<double>(levels_touched) / kEdges);
  json.set("cell_layout.aos_lines_per_update", per_update);
  json.set("cell_layout.aos_lines_per_page_merge", merge_lines);
}

}  // namespace
}  // namespace streammpc

int main() {
  std::cout << "E10 — sketch-bank ablation (§6.3, Lemma 3.1)\n";
  streammpc::sweep_banks();
  streammpc::sweep_geometry();
  streammpc::sweep_cell_layout();
  return 0;
}
