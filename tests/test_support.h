// Shared test utilities: seeded random graph/stream generators, cluster
// factories, and differential-equivalence checkers.  One copy here instead
// of the ad-hoc per-file duplicates that used to live in
// test_sketch_ingest.cc, test_mpc.cc, and test_connectivity.cc — the
// conformance suites (test_mpc_simulation*.cc) are built on the same
// helpers, so "equivalent" means the same thing everywhere.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/dynamic_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/types.h"
#include "mpc/cluster.h"
#include "mpc/config.h"
#include "sketch/arena.h"

namespace streammpc::test {

// Byte-identical arenas: every record of every vertex below `n` at every
// level, and the same allocated footprint.
inline void expect_identical_records(const BankArena& got,
                                     const BankArena& want, VertexId n) {
  EXPECT_EQ(got.allocated_words(), want.allocated_words());
  for (unsigned level = 0; level < want.levels(); ++level) {
    for (VertexId v = 0; v < n; ++v) {
      const std::span<const ArenaCell> a = got.level_records(level, v);
      const std::span<const ArenaCell> b = want.level_records(level, v);
      ASSERT_EQ(a.size(), b.size()) << "level " << level << " v " << v;
      if (b.empty()) continue;
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), b.size() * sizeof(ArenaCell)))
          << "level " << level << " v " << v;
    }
  }
}

// `cfg` with its ingest pool width set to `threads` (1 = serial).
inline GraphSketchConfig with_threads(GraphSketchConfig cfg,
                                      unsigned threads) {
  cfg.ingest_threads = threads;
  return cfg;
}

// --- delta-stream generators -------------------------------------------------

// Random mixed insert/delete delta sequence whose deletes only remove
// previously inserted edges (a valid stream, §1.2).
inline std::vector<EdgeDelta> random_deltas(VertexId n, std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeDelta> deltas;
  std::vector<Edge> live;
  while (deltas.size() < count) {
    if (!live.empty() && rng.chance(0.3)) {
      const std::size_t i = rng.below(live.size());
      deltas.push_back(EdgeDelta{live[i], -1});
      live[i] = live.back();
      live.pop_back();
    } else {
      const VertexId u = static_cast<VertexId>(rng.below(n));
      VertexId v = static_cast<VertexId>(rng.below(n - 1));
      if (v >= u) ++v;
      const Edge e = make_edge(u, v);
      deltas.push_back(EdgeDelta{e, +1});
      live.push_back(e);
    }
  }
  return deltas;
}

// Insert-only delta view of a static edge list, in order.
inline std::vector<EdgeDelta> insert_deltas(const std::vector<Edge>& edges) {
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, +1});
  return deltas;
}

// Named stream shapes used across the equivalence matrices: a path (long
// thin components), a star (one hub vertex on one machine absorbs every
// delta — the worst case for per-machine load balance), and a seeded
// Erdős–Rényi G(n, m).
inline std::vector<EdgeDelta> path_deltas(VertexId n) {
  return insert_deltas(gen::path_graph(n));
}
inline std::vector<EdgeDelta> star_deltas(VertexId n) {
  return insert_deltas(gen::star_graph(n));
}
inline std::vector<EdgeDelta> er_deltas(VertexId n, std::size_t m,
                                        std::uint64_t seed) {
  Rng rng(seed);
  return insert_deltas(gen::gnm(n, m, rng));
}

// Component-merge adversary: round k links representatives of adjacent
// 2^k-blocks, so every round halves the component count and every merge
// joins two components of equal size — the schedule that maximizes
// relabel/boundary work per round.  Returns one delta batch per round
// (ceil(log2 n) rounds).
inline std::vector<std::vector<EdgeDelta>> component_merge_adversary(
    VertexId n) {
  std::vector<std::vector<EdgeDelta>> rounds;
  for (VertexId block = 1; block < n; block *= 2) {
    std::vector<EdgeDelta> batch;
    for (VertexId lo = 0; lo + block < n; lo += 2 * block)
      batch.push_back(EdgeDelta{make_edge(lo, lo + block), +1});
    if (!batch.empty()) rounds.push_back(std::move(batch));
  }
  return rounds;
}

// --- probe sets and sample equivalence --------------------------------------

// Deterministic family of vertex sets (singletons + random subsets) whose
// boundary samples form the observable surface of a sketch structure.
inline std::vector<std::vector<VertexId>> probe_sets(VertexId n,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<VertexId>> sets;
  for (VertexId v = 0; v < n; v += std::max<VertexId>(1, n / 7))
    sets.push_back({v});
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<VertexId> set;
    for (VertexId v = 0; v < n; ++v)
      if (rng.chance(0.25)) set.push_back(v);
    if (!set.empty()) sets.push_back(std::move(set));
  }
  return sets;
}

// Compares the full observable surface of two sketch structures: every
// bank's boundary sample over every probe set.  Works across engine types
// (flat arena vs the frozen legacy reference) — both only need
// sample_boundary(bank, span).
template <typename A, typename B>
void expect_identical_samples(const A& a, const B& b, unsigned banks,
                              const std::vector<std::vector<VertexId>>& sets) {
  for (unsigned bank = 0; bank < banks; ++bank) {
    for (const auto& set : sets) {
      const std::span<const VertexId> span(set.data(), set.size());
      EXPECT_EQ(a.sample_boundary(bank, span), b.sample_boundary(bank, span))
          << "bank " << bank;
    }
  }
}

// --- cluster factories -------------------------------------------------------

inline mpc::MpcConfig small_mpc_config(std::uint64_t n = 1024,
                                       double phi = 0.5) {
  mpc::MpcConfig c;
  c.n = n;
  c.phi = phi;
  return c;
}

inline mpc::Cluster make_cluster(std::uint64_t n, std::uint64_t machines,
                                 double phi = 0.5, bool strict = false) {
  mpc::MpcConfig cfg = small_mpc_config(n, phi);
  cfg.machines = machines;
  cfg.strict = strict;
  return mpc::Cluster(cfg);
}

// --- connectivity oracle checks ----------------------------------------------

// Verifies the full DynamicConnectivity state against the oracle graph:
// component count, per-vertex labels, and that the maintained forest is a
// cycle-free set of live edges spanning exactly the oracle's components.
inline void expect_matches_reference(const DynamicConnectivity& dc,
                                     const AdjGraph& ref, const char* where) {
  const auto labels = component_labels(ref);
  ASSERT_EQ(dc.n(), ref.n());
  EXPECT_EQ(dc.num_components(), num_components(ref)) << where;
  for (VertexId v = 0; v < ref.n(); ++v) {
    EXPECT_EQ(dc.component_of(v), labels[v])
        << where << ": component label mismatch at vertex " << v;
  }
  const auto forest = dc.spanning_forest();
  Dsu dsu(ref.n());
  for (const Edge& e : forest) {
    EXPECT_TRUE(ref.has_edge(e.u, e.v))
        << where << ": forest edge {" << e.u << "," << e.v << "} not in graph";
    EXPECT_TRUE(dsu.unite(e.u, e.v)) << where << ": forest has a cycle";
  }
  EXPECT_EQ(dsu.num_sets(), num_components(ref)) << where;
}

}  // namespace streammpc::test
