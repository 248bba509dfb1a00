// Deterministic (seeded) graph generators for tests, examples, and the
// benchmark workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "graph/types.h"

namespace streammpc::gen {

// Uniform random labelled tree on n vertices (random attachment: the parent
// of vertex i is uniform over [0, i)).
std::vector<Edge> random_tree(VertexId n, Rng& rng);

// G(n, m): m distinct uniform random edges.  m must be at most C(n, 2).
std::vector<Edge> gnm(VertexId n, std::size_t m, Rng& rng);

// Random connected graph: a random spanning tree plus (m - n + 1) extra
// distinct random edges; m >= n - 1 required.
std::vector<Edge> connected_gnm(VertexId n, std::size_t m, Rng& rng);

std::vector<Edge> path_graph(VertexId n);
std::vector<Edge> cycle_graph(VertexId n);
std::vector<Edge> star_graph(VertexId n);  // center 0
std::vector<Edge> complete_graph(VertexId n);
std::vector<Edge> grid_graph(VertexId rows, VertexId cols);

// Bipartite generators: left side [0, nl), right side [nl, nl + nr).
std::vector<Edge> complete_bipartite(VertexId nl, VertexId nr);
std::vector<Edge> random_bipartite(VertexId nl, VertexId nr, std::size_t m,
                                   Rng& rng);

// Preferential attachment (Barabási–Albert-like): each new vertex attaches
// to `k` existing vertices chosen proportionally to degree.
std::vector<Edge> preferential_attachment(VertexId n, unsigned k, Rng& rng);

// Perfect matching {2i, 2i+1} on n (even) vertices plus `extra_m` random
// noise edges; OPT >= n/2, so matching benches know the optimum is n/2.
std::vector<Edge> planted_matching(VertexId n, std::size_t extra_m, Rng& rng);

// Attaches uniform random integer weights in [wmin, wmax] to the edges;
// if `distinct` is true, weights are a random permutation slice so that the
// minimum spanning forest is unique.
std::vector<WeightedEdge> with_random_weights(const std::vector<Edge>& edges,
                                              Weight wmin, Weight wmax,
                                              Rng& rng, bool distinct = false);

// Hot-cell insert streams: they pile one machine's routed load (under the
// contiguous-block partitioner) onto a few (machine, bank) cells of the
// ingest grid.  Repeated edges are valid multigraph deltas (sketch cells
// are linear), so these are ingest workloads, not simple-graph query
// workloads.

// `count` inserts with both endpoints drawn log-uniformly (Zipf-like: rank
// r has density ~1/r), so low ids — all on machine 0 — dominate.
std::vector<EdgeDelta> power_law_deltas(VertexId n, std::size_t count,
                                        Rng& rng);

// `count` inserts with both endpoints in the first `block` vertices: with
// n / block machines every delta routes to machine 0.
std::vector<EdgeDelta> hot_block_deltas(VertexId n, VertexId block,
                                        std::size_t count, Rng& rng);

}  // namespace streammpc::gen
