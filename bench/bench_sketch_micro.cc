// M1 — microbenchmarks for the sketching substrate: coordinate codec,
// 1-sparse cells, L0-sampler update/merge/query, full edge updates on the
// per-vertex sketch banks; plus the flat-arena engine against the frozen
// seed implementation (legacy_sketch_ref.h) at the default config
// (n = 2^16, 12 banks), recorded in BENCH_sketch_micro.json.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "legacy_sketch_ref.h"
#include "sketch/coord.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"

namespace streammpc {
namespace {

std::vector<Edge> random_edges(VertexId n, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  return edges;
}

void BM_CoordEncode(benchmark::State& state) {
  EdgeCoordCodec codec(1 << 16);
  Rng rng(1);
  std::vector<Edge> edges;
  for (int i = 0; i < 1024; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(1 << 16));
    VertexId v = static_cast<VertexId>(rng.below((1 << 16) - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(edges[i++ & 1023]));
  }
}
BENCHMARK(BM_CoordEncode);

void BM_CoordDecode(benchmark::State& state) {
  EdgeCoordCodec codec(1 << 16);
  Rng rng(2);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(codec.dimension()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(coords[i++ & 1023]));
  }
}
BENCHMARK(BM_CoordDecode);

void BM_OneSparseUpdate(benchmark::State& state) {
  OneSparseCell cell;
  Rng rng(3);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(1ULL << 30));
  std::size_t i = 0;
  for (auto _ : state) {
    cell.update(coords[i & 1023], (i & 1) ? 1 : -1, 0x1234567);
    ++i;
  }
  benchmark::DoNotOptimize(cell);
}
BENCHMARK(BM_OneSparseUpdate);

void BM_L0SamplerUpdate(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 4);
  L0Sampler sampler;
  Rng rng(5);
  std::vector<Coord> coords;
  for (int i = 0; i < 1024; ++i) coords.push_back(rng.below(1ULL << 30));
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.update(params, coords[i++ & 1023], 1);
  }
  benchmark::DoNotOptimize(sampler);
}
BENCHMARK(BM_L0SamplerUpdate);

void BM_L0SamplerMerge(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 6);
  Rng rng(7);
  L0Sampler a, b;
  for (int i = 0; i < 256; ++i) {
    a.update(params, rng.below(1ULL << 30), 1);
    b.update(params, rng.below(1ULL << 30), 1);
  }
  for (auto _ : state) {
    L0Sampler acc = a;
    acc.merge(params, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_L0SamplerMerge);

void BM_L0SamplerQuery(benchmark::State& state) {
  L0Params params(1ULL << 30, {2, 8}, 8);
  Rng rng(9);
  L0Sampler sampler;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    sampler.update(params, rng.below(1ULL << 30), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(params));
  }
}
BENCHMARK(BM_L0SamplerQuery)->Arg(1)->Arg(64)->Arg(4096);

void BM_VertexSketchEdgeUpdate(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = static_cast<unsigned>(state.range(0));
  cfg.seed = 10;
  const VertexId n = 4096;
  VertexSketches vs(n, cfg);
  Rng rng(11);
  std::vector<Edge> edges;
  for (int i = 0; i < 1024; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    edges.push_back(make_edge(u, v));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    vs.update_edge(edges[i & 1023], (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_VertexSketchEdgeUpdate)->Arg(4)->Arg(12);

void BM_VertexSketchEdgeUpdateLegacy(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = static_cast<unsigned>(state.range(0));
  cfg.seed = 10;
  const VertexId n = 4096;
  legacy::LegacyVertexSketches vs(n, cfg);
  const auto edges = random_edges(n, 1024, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    vs.update_edge(edges[i & 1023], (i & 1) ? 1 : -1);
    ++i;
  }
}
BENCHMARK(BM_VertexSketchEdgeUpdateLegacy)->Arg(4)->Arg(12);

void BM_VertexSketchBatchedUpdate(benchmark::State& state) {
  // Whole-batch ingest through update_edges; counters report per-edge
  // throughput so this is directly comparable to BM_VertexSketchEdgeUpdate.
  GraphSketchConfig cfg;
  cfg.banks = 12;
  cfg.seed = 10;
  cfg.ingest_threads = static_cast<unsigned>(state.range(0));
  const VertexId n = 4096;
  VertexSketches vs(n, cfg);
  const auto edges = random_edges(n, 1024, 11);
  std::vector<EdgeDelta> batch;
  batch.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    batch.push_back(EdgeDelta{edges[i], (i & 1) ? 1 : -1});
  for (auto _ : state) {
    vs.update_edges(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_VertexSketchBatchedUpdate)->Arg(1)->Arg(2)->Arg(4);

void BM_MergedBoundarySample(benchmark::State& state) {
  GraphSketchConfig cfg;
  cfg.banks = 2;
  cfg.seed = 12;
  const VertexId n = 1024;
  VertexSketches vs(n, cfg);
  Rng rng(13);
  for (int i = 0; i < 4096; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    vs.update_edge(make_edge(u, v), 1);
  }
  std::vector<VertexId> component;
  for (VertexId v = 0; v < static_cast<VertexId>(state.range(0)); ++v)
    component.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.sample_boundary(0, component));
  }
}
BENCHMARK(BM_MergedBoundarySample)->Arg(16)->Arg(128)->Arg(512);

// Direct legacy-vs-flat comparison at the acceptance config (n = 2^16,
// 12 banks), measured in one process and written to
// BENCH_sketch_micro.json.  Returns ops/sec for `edges` single updates.
template <typename Sketches>
double measure_update_throughput(Sketches& vs, const std::vector<Edge>& edges,
                                 int repeats) {
  bench::Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    const std::int64_t delta = (rep & 1) ? -1 : +1;
    for (const Edge& e : edges) vs.update_edge(e, delta);
  }
  return static_cast<double>(edges.size()) * repeats / timer.seconds();
}

void record_speedup_json() {
  const VertexId n = 1 << 16;
  const std::size_t m = 4096;
  const int repeats = 4;
  GraphSketchConfig cfg;  // defaults: 12 banks, {2, 8} shape
  cfg.seed = 42;
  const auto edges = random_edges(n, m, 43);

  legacy::LegacyVertexSketches legacy_vs(n, cfg);
  const double legacy_ops =
      measure_update_throughput(legacy_vs, edges, repeats);

  cfg.ingest_threads = 1;
  VertexSketches flat_vs(n, cfg);
  const double flat_ops = measure_update_throughput(flat_vs, edges, repeats);

  std::vector<EdgeDelta> batch;
  for (const Edge& e : edges) batch.push_back(EdgeDelta{e, +1});
  VertexSketches batched_vs(n, cfg);
  bench::Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    for (auto& d : batch) d.delta = (rep & 1) ? -1 : +1;
    batched_vs.update_edges(batch);
  }
  const double batched_ops =
      static_cast<double>(m) * repeats / timer.seconds();

  bench::BenchJson json("sketch_micro");
  json.set("config.n", static_cast<std::uint64_t>(n));
  json.set("config.banks", static_cast<std::uint64_t>(cfg.banks));
  json.set("config.rows", static_cast<std::uint64_t>(cfg.shape.rows));
  json.set("config.buckets", static_cast<std::uint64_t>(cfg.shape.buckets));
  json.set("config.edges", static_cast<std::uint64_t>(m * repeats));
  json.set("edge_update.ops_per_sec_legacy", legacy_ops);
  json.set("edge_update.ops_per_sec_flat", flat_ops);
  json.set("edge_update.ops_per_sec_batched", batched_ops);
  json.set("edge_update.speedup_flat_vs_legacy", flat_ops / legacy_ops);
  json.set("edge_update.speedup_batched_vs_legacy", batched_ops / legacy_ops);
  json.set("memory.flat_words", flat_vs.allocated_words());
  json.flush();

  std::cout << "single-thread edge-update ops/sec: legacy=" << legacy_ops
            << " flat=" << flat_ops << " batched=" << batched_ops
            << " (speedup " << flat_ops / legacy_ops << "x / "
            << batched_ops / legacy_ops << "x)\n";
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  streammpc::record_speedup_json();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
