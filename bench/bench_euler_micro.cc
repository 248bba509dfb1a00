// M2 — microbenchmarks for Euler-tour forest operations as a function of
// tree size: rooting, link/cut, identify-path, batch join, batch split.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "euler/tour_forest.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

void BM_MakeRoot(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  Rng rng(100);
  EulerTourForest f(n);
  for (const Edge& e : gen::random_tree(n, rng)) f.link(e.u, e.v);
  std::size_t i = 0;
  for (auto _ : state) {
    f.make_root(static_cast<VertexId>(i++ % n));
  }
}
BENCHMARK(BM_MakeRoot)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LinkCutCycle(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  Rng rng(101);
  EulerTourForest f(n);
  for (const Edge& e : gen::random_tree(n, rng)) f.link(e.u, e.v);
  for (auto _ : state) {
    // Cut a random tree edge and relink it.
    const auto& edges = f.tree_edges();
    const Edge e = *edges.begin();
    f.cut(e.u, e.v);
    f.link(e.u, e.v);
  }
}
BENCHMARK(BM_LinkCutCycle)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IdentifyPath(benchmark::State& state) {
  const VertexId n = static_cast<VertexId>(state.range(0));
  Rng rng(102);
  EulerTourForest f(n);
  for (const Edge& e : gen::random_tree(n, rng)) f.link(e.u, e.v);
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.identify_path(0, static_cast<VertexId>(1 + (i++ % (n - 1)))));
  }
}
BENCHMARK(BM_IdentifyPath)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BatchLink(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const VertexId n = 4096;
  Rng rng(103);
  for (auto _ : state) {
    state.PauseTiming();
    EulerTourForest f(n);
    std::vector<Edge> links;
    Dsu dsu(n);
    while (links.size() < k) {
      const VertexId u = static_cast<VertexId>(rng.below(n));
      const VertexId v = static_cast<VertexId>(rng.below(n));
      if (u == v) continue;
      if (dsu.unite(u, v)) links.push_back(make_edge(u, v));
    }
    state.ResumeTiming();
    f.batch_link(links);
  }
}
BENCHMARK(BM_BatchLink)->Arg(16)->Arg(256)->Arg(2048);

void BM_BatchCut(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const VertexId n = 4096;
  Rng rng(104);
  const std::vector<Edge> tree = gen::random_tree(n, rng);
  EulerTourForest f(n);
  for (auto _ : state) {
    state.PauseTiming();
    f = EulerTourForest(n);  // the previous forest is freed untimed
    f.batch_link(tree);
    std::vector<Edge> cuts = tree;
    shuffle(cuts, rng);
    cuts.resize(k);
    state.ResumeTiming();
    f.batch_cut(cuts);
    benchmark::DoNotOptimize(f.num_trees());
  }
}
BENCHMARK(BM_BatchCut)->Arg(16)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace streammpc
