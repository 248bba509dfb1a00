#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace streammpc::gen {

namespace {

std::size_t max_edges(VertexId n) {
  return static_cast<std::size_t>(n) * (n - 1) / 2;
}

// Adds `count` distinct random edges avoiding those already in `used`.
void add_random_edges(VertexId n, std::size_t count,
                      std::unordered_set<Edge, EdgeHash>& used,
                      std::vector<Edge>& out, Rng& rng) {
  SMPC_CHECK_MSG(used.size() + count <= max_edges(n),
                 "requested more edges than C(n,2)");
  while (count > 0) {
    const VertexId a = static_cast<VertexId>(rng.below(n));
    VertexId b = static_cast<VertexId>(rng.below(n - 1));
    if (b >= a) ++b;
    const Edge e = make_edge(a, b);
    if (used.insert(e).second) {
      out.push_back(e);
      --count;
    }
  }
}

// Log-uniform vertex: rank r = v + 1 has density ~1/r.
VertexId zipf_vertex(Rng& rng, VertexId n) {
  const double r = std::exp(rng.uniform01() * std::log(static_cast<double>(n)));
  const auto v = static_cast<VertexId>(r) - 1;
  return v >= n ? n - 1 : v;
}

}  // namespace

std::vector<Edge> random_tree(VertexId n, Rng& rng) {
  SMPC_CHECK(n >= 1);
  std::vector<Edge> edges;
  edges.reserve(n > 0 ? n - 1 : 0);
  for (VertexId i = 1; i < n; ++i) {
    const VertexId p = static_cast<VertexId>(rng.below(i));
    edges.push_back(make_edge(p, i));
  }
  return edges;
}

std::vector<Edge> gnm(VertexId n, std::size_t m, Rng& rng) {
  SMPC_CHECK(n >= 2 || m == 0);
  std::unordered_set<Edge, EdgeHash> used;
  std::vector<Edge> out;
  out.reserve(m);
  add_random_edges(n, m, used, out, rng);
  return out;
}

std::vector<Edge> connected_gnm(VertexId n, std::size_t m, Rng& rng) {
  SMPC_CHECK(m + 1 >= n);
  std::vector<Edge> out = random_tree(n, rng);
  std::unordered_set<Edge, EdgeHash> used(out.begin(), out.end());
  add_random_edges(n, m - out.size(), used, out, rng);
  return out;
}

std::vector<Edge> path_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.push_back(Edge{i, i + 1});
  return edges;
}

std::vector<Edge> cycle_graph(VertexId n) {
  SMPC_CHECK(n >= 3);
  std::vector<Edge> edges = path_graph(n);
  edges.push_back(make_edge(0, n - 1));
  return edges;
}

std::vector<Edge> star_graph(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId i = 1; i < n; ++i) edges.push_back(Edge{0, i});
  return edges;
}

std::vector<Edge> complete_graph(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(max_edges(n));
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  return edges;
}

std::vector<Edge> grid_graph(VertexId rows, VertexId cols) {
  std::vector<Edge> edges;
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(make_edge(id(r, c), id(r, c + 1)));
      if (r + 1 < rows) edges.push_back(make_edge(id(r, c), id(r + 1, c)));
    }
  }
  return edges;
}

std::vector<Edge> complete_bipartite(VertexId nl, VertexId nr) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(nl) * nr);
  for (VertexId u = 0; u < nl; ++u)
    for (VertexId v = 0; v < nr; ++v) edges.push_back(make_edge(u, nl + v));
  return edges;
}

std::vector<Edge> random_bipartite(VertexId nl, VertexId nr, std::size_t m,
                                   Rng& rng) {
  SMPC_CHECK(m <= static_cast<std::size_t>(nl) * nr);
  std::unordered_set<Edge, EdgeHash> used;
  std::vector<Edge> out;
  out.reserve(m);
  while (out.size() < m) {
    const VertexId u = static_cast<VertexId>(rng.below(nl));
    const VertexId v = static_cast<VertexId>(nl + rng.below(nr));
    const Edge e = make_edge(u, v);
    if (used.insert(e).second) out.push_back(e);
  }
  return out;
}

std::vector<Edge> preferential_attachment(VertexId n, unsigned k, Rng& rng) {
  SMPC_CHECK(n >= 2 && k >= 1);
  std::vector<Edge> edges;
  // Endpoint multiset: vertices appear proportionally to their degree.
  std::vector<VertexId> endpoints;
  edges.push_back(Edge{0, 1});
  endpoints.push_back(0);
  endpoints.push_back(1);
  for (VertexId v = 2; v < n; ++v) {
    std::unordered_set<VertexId> targets;
    const unsigned want = std::min<unsigned>(k, v);
    while (targets.size() < want) {
      const VertexId t = endpoints[rng.below(endpoints.size())];
      targets.insert(t);
    }
    for (VertexId t : targets) {
      edges.push_back(make_edge(t, v));
      endpoints.push_back(t);
      endpoints.push_back(v);
    }
  }
  return edges;
}

std::vector<Edge> planted_matching(VertexId n, std::size_t extra_m, Rng& rng) {
  SMPC_CHECK(n % 2 == 0);
  std::vector<Edge> out;
  std::unordered_set<Edge, EdgeHash> used;
  for (VertexId i = 0; i < n; i += 2) {
    const Edge e{i, static_cast<VertexId>(i + 1)};
    out.push_back(e);
    used.insert(e);
  }
  add_random_edges(n, extra_m, used, out, rng);
  return out;
}

std::vector<WeightedEdge> with_random_weights(const std::vector<Edge>& edges,
                                              Weight wmin, Weight wmax,
                                              Rng& rng, bool distinct) {
  SMPC_CHECK(wmin <= wmax);
  std::vector<WeightedEdge> out;
  out.reserve(edges.size());
  if (distinct) {
    SMPC_CHECK_MSG(
        static_cast<std::uint64_t>(wmax - wmin) + 1 >= edges.size(),
        "weight range too small for distinct weights");
    std::vector<Weight> pool(edges.size());
    // Reservoir-free approach: sample a random strictly increasing sequence
    // by shuffling an offset permutation when the range is small, else draw
    // distinct values via a set.
    std::unordered_set<std::int64_t> seen;
    for (auto& w : pool) {
      Weight cand;
      do {
        cand = rng.uniform_int(wmin, wmax);
      } while (!seen.insert(cand).second);
      w = cand;
    }
    for (std::size_t i = 0; i < edges.size(); ++i)
      out.push_back(WeightedEdge{edges[i], pool[i]});
  } else {
    for (const Edge& e : edges)
      out.push_back(WeightedEdge{e, rng.uniform_int(wmin, wmax)});
  }
  return out;
}

std::vector<EdgeDelta> power_law_deltas(VertexId n, std::size_t count,
                                        Rng& rng) {
  std::vector<EdgeDelta> deltas;
  deltas.reserve(count);
  while (deltas.size() < count) {
    const VertexId u = zipf_vertex(rng, n);
    const VertexId v = zipf_vertex(rng, n);
    if (u == v) continue;
    deltas.push_back(EdgeDelta{make_edge(u, v), +1});
  }
  return deltas;
}

std::vector<EdgeDelta> hot_block_deltas(VertexId n, VertexId block,
                                        std::size_t count, Rng& rng) {
  const VertexId lim = block < 2 ? 2 : (block > n ? n : block);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(count);
  while (deltas.size() < count) {
    const VertexId u = static_cast<VertexId>(rng.below(lim));
    const VertexId v = static_cast<VertexId>(rng.below(lim));
    if (u == v) continue;
    deltas.push_back(EdgeDelta{make_edge(u, v), +1});
  }
  return deltas;
}

}  // namespace streammpc::gen
