// Tests for the Euler-tour forest: single operations (Lemma 5.1),
// Identify-Path (Lemma 7.2), batch join/split (§6.2–6.3), randomized fuzz
// against a reference forest, and MPC round accounting (batch ops are O(1)
// rounds; sequential ops are Theta(k)).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "common/random.h"
#include "euler/tour_forest.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

// Reference path via BFS over an adjacency copy of the forest.
std::vector<Edge> bfs_path(const AdjGraph& forest, VertexId u, VertexId v) {
  std::vector<VertexId> parent(forest.n(), kNoVertex);
  std::queue<VertexId> q;
  q.push(u);
  parent[u] = u;
  while (!q.empty()) {
    const VertexId x = q.front();
    q.pop();
    if (x == v) break;
    for (const auto& [y, w] : forest.neighbors(x)) {
      if (parent[y] == kNoVertex) {
        parent[y] = x;
        q.push(y);
      }
    }
  }
  std::vector<Edge> path;
  for (VertexId x = v; x != u; x = parent[x]) path.push_back(make_edge(parent[x], x));
  std::sort(path.begin(), path.end());
  return path;
}

// Both forests hold the same state: TourIds, tours, members and f/l.
void expect_same_forest(const EulerTourForest& a, const EulerTourForest& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.num_trees(), b.num_trees());
  for (VertexId v = 0; v < a.n() && !::testing::Test::HasFailure(); ++v) {
    EXPECT_EQ(a.tour_of(v), b.tour_of(v)) << "vertex " << v;
    EXPECT_EQ(a.tour_sequence(v), b.tour_sequence(v)) << "vertex " << v;
    EXPECT_EQ(a.tree_members(v), b.tree_members(v)) << "vertex " << v;
    EXPECT_EQ(a.first_pos(v), b.first_pos(v)) << "vertex " << v;
    EXPECT_EQ(a.last_pos(v), b.last_pos(v)) << "vertex " << v;
  }
}

// Re-roots a few random trees, then cuts every tree edge with probability
// p: in one batch on `forest`, and one edge at a time on a copy of it.
// The two results must be identical.
void expect_batch_cut_matches_sequential(EulerTourForest& forest, double p,
                                         Rng& rng) {
  const VertexId n = forest.n();
  for (int r = 0; r < 4; ++r)
    forest.make_root(static_cast<VertexId>(rng.below(n)));
  std::vector<Edge> cuts;
  for (const Edge& e : forest.tree_edges()) {
    if (rng.chance(p)) cuts.push_back(e);
  }
  std::sort(cuts.begin(), cuts.end());
  shuffle(cuts, rng);
  EulerTourForest oracle = forest;
  forest.batch_cut(cuts);
  oracle.sequential_cut(cuts);
  forest.validate();
  oracle.validate();
  expect_same_forest(forest, oracle);
}

TEST(EulerTour, InitialStateIsSingletons) {
  EulerTourForest f(5);
  f.validate();
  EXPECT_EQ(f.num_trees(), 5u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(f.tree_size(v), 1u);
    EXPECT_TRUE(f.tour_sequence(v).empty());
  }
  EXPECT_FALSE(f.same_tree(0, 1));
}

TEST(EulerTour, LinkTwoSingletons) {
  EulerTourForest f(4);
  f.link(0, 1);
  f.validate();
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_EQ(f.num_trees(), 3u);
  EXPECT_EQ(f.tour_sequence(0).size(), 4u);  // 4(|T|-1)
  EXPECT_TRUE(f.is_tree_edge(make_edge(0, 1)));
}

TEST(EulerTour, TourLengthInvariant) {
  EulerTourForest f(8);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  f.link(1, 4);
  f.validate();
  EXPECT_EQ(f.tour_sequence(0).size(), 4u * 4u);
  // Each vertex occurs 2*deg times.
  const auto& tour = f.tour_sequence(0);
  std::map<VertexId, int> occurrences;
  for (VertexId x : tour) ++occurrences[x];
  EXPECT_EQ(occurrences[1], 6);  // degree 3
  EXPECT_EQ(occurrences[0], 2);
  EXPECT_EQ(occurrences[3], 2);
}

TEST(EulerTour, MakeRootRotates) {
  EulerTourForest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  for (VertexId v = 0; v < 4; ++v) {
    f.make_root(v);
    f.validate();
    EXPECT_EQ(f.tour_sequence(v).front(), v);
    EXPECT_EQ(f.tour_sequence(v).back(), v);
  }
}

TEST(EulerTour, CutSplitsCorrectly) {
  EulerTourForest f(6);
  f.link(0, 1);
  f.link(1, 2);
  f.link(2, 3);
  f.link(3, 4);
  f.cut(2, 3);
  f.validate();
  EXPECT_EQ(f.num_trees(), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_TRUE(f.same_tree(0, 2));
  EXPECT_TRUE(f.same_tree(3, 4));
  EXPECT_FALSE(f.same_tree(2, 3));
  EXPECT_FALSE(f.is_tree_edge(make_edge(2, 3)));
}

TEST(EulerTour, CutToSingletons) {
  EulerTourForest f(2);
  f.link(0, 1);
  f.cut(0, 1);
  f.validate();
  EXPECT_EQ(f.num_trees(), 2u);
  EXPECT_TRUE(f.tour_sequence(0).empty());
  EXPECT_TRUE(f.tour_sequence(1).empty());
}

TEST(EulerTour, CutNonTreeEdgeThrows) {
  EulerTourForest f(4);
  f.link(0, 1);
  EXPECT_THROW(f.cut(0, 2), CheckError);
}

TEST(EulerTour, LinkSameTreeThrows) {
  EulerTourForest f(4);
  f.link(0, 1);
  f.link(1, 2);
  EXPECT_THROW(f.link(0, 2), CheckError);
}

TEST(EulerTour, IdentifyPathOnPathGraph) {
  EulerTourForest f(8);
  for (VertexId i = 0; i + 1 < 8; ++i) f.link(i, i + 1);
  auto path = f.identify_path(1, 5);
  std::sort(path.begin(), path.end());
  const std::vector<Edge> expect{{1, 2}, {2, 3}, {3, 4}, {4, 5}};
  EXPECT_EQ(path, expect);
  EXPECT_TRUE(f.identify_path(3, 3).empty());
  f.validate();
}

TEST(EulerTour, IdentifyPathAgainstBfsFuzz) {
  Rng rng(500);
  const VertexId n = 60;
  EulerTourForest f(n);
  AdjGraph ref(n);
  for (const Edge& e : gen::random_tree(n, rng)) {
    f.link(e.u, e.v);
    ref.insert_edge(e.u, e.v);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    const VertexId v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    auto path = f.identify_path(u, v);
    std::sort(path.begin(), path.end());
    EXPECT_EQ(path, bfs_path(ref, u, v));
  }
  f.validate();
}

TEST(EulerTour, BatchLinkSimpleChain) {
  EulerTourForest f(6);
  const std::vector<Edge> links{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 1u);
  EXPECT_EQ(f.tour_sequence(0).size(), 4u * 5u);
}

TEST(EulerTour, BatchLinkStar) {
  EulerTourForest f(9);
  std::vector<Edge> links;
  for (VertexId i = 1; i < 9; ++i) links.push_back(make_edge(0, i));
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 1u);
}

TEST(EulerTour, BatchLinkMergesExistingTrees) {
  EulerTourForest f(12);
  // Three existing paths: 0-1-2, 3-4-5, 6-7-8; vertices 9..11 singletons.
  f.link(0, 1);
  f.link(1, 2);
  f.link(3, 4);
  f.link(4, 5);
  f.link(6, 7);
  f.link(7, 8);
  // Join them through internal vertices plus a singleton.
  const std::vector<Edge> links{make_edge(1, 4), make_edge(4, 7),
                                make_edge(8, 9)};
  f.batch_link(links);
  f.validate();
  EXPECT_EQ(f.num_trees(), 3u);  // big tree + {10} + {11}
  EXPECT_TRUE(f.same_tree(0, 9));
  EXPECT_EQ(f.tree_size(0), 10u);
}

TEST(EulerTour, BatchLinkCycleThrows) {
  EulerTourForest f(4);
  const std::vector<Edge> links{{0, 1}, {1, 2}, make_edge(0, 2)};
  EXPECT_THROW(f.batch_link(links), CheckError);
}

TEST(EulerTour, BatchLinkMultipleComponents) {
  EulerTourForest f(10);
  const std::vector<Edge> links{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}};
  f.batch_link(links);
  f.validate();
  // Components: {0,1,2}, {3,4}, {5,6,7}, {8}, {9}.
  EXPECT_EQ(f.num_trees(), 5u);
  EXPECT_TRUE(f.same_tree(5, 7));
  EXPECT_FALSE(f.same_tree(2, 3));
}

// The composed tour of one batch_link, pinned by hand: each child tree is
// rooted at its terminal y and spliced as [x, y, ..., y, x] right after
// the first occurrence of its parent-side terminal x, or appended when x
// is the root; children sharing x go in reverse discovery order.  The
// component keeps its first-appearing tree's id.
void expect_tour(const EulerTourForest& f, TourId id,
                 const std::vector<VertexId>& tour) {
  EXPECT_EQ(f.tour_of(tour.front()), id);
  EXPECT_EQ(f.tour_sequence(tour.front()), tour);
  for (std::uint32_t i = 0; i < tour.size(); ++i) {
    const auto at = tour.begin() + i;
    if (std::find(tour.begin(), at, *at) == at)
      EXPECT_EQ(f.first_pos(*at), i) << *at;
    if (std::find(at + 1, tour.end(), *at) == tour.end())
      EXPECT_EQ(f.last_pos(*at), i) << *at;
  }
  f.validate();
}

TEST(EulerTour, BatchLinkComposedOrderIsPinned) {
  {  // Two children at one non-root terminal.
    EulerTourForest f(5);
    f.link(0, 1);  // [0, 1, 1, 0]
    f.batch_link(std::vector<Edge>{{1, 2}, {1, 3}});
    expect_tour(f, 0, {0, 1, 1, 3, 3, 1, 1, 2, 2, 1, 1, 0});
    // Ids 2 then 3 were freed in BFS order, so the next cut reuses 3.
    f.batch_cut(std::vector<Edge>{{1, 2}});
    EXPECT_EQ(f.tour_of(2), 3u);
  }
  {  // Children at the root terminal are appended.
    EulerTourForest f(5);
    f.link(0, 1);
    f.batch_link(std::vector<Edge>{{0, 2}, {0, 3}});
    expect_tour(f, 0, {0, 1, 1, 0, 0, 3, 3, 0, 0, 2, 2, 0});
  }
  {  // A grandchild: tree {2, 3} is re-rooted at 3, and 4 hangs off 2.
    EulerTourForest f(6);
    f.link(0, 1);
    f.link(2, 3);  // [2, 3, 3, 2]
    f.batch_link(std::vector<Edge>{{1, 3}, {2, 4}});
    expect_tour(f, 0, {0, 1, 1, 3, 3, 2, 2, 4, 4, 2, 2, 3, 3, 1, 1, 0});
  }
  {  // A singleton parent with two children.
    EulerTourForest f(5);
    f.batch_link(std::vector<Edge>{{0, 1}, {0, 2}});
    expect_tour(f, 0, {0, 2, 2, 0, 0, 1, 1, 0});
  }
}

TEST(EulerTour, BatchCutShattersTree) {
  EulerTourForest f(8);
  for (VertexId i = 0; i + 1 < 8; ++i) f.link(i, i + 1);
  const std::vector<Edge> cuts{{1, 2}, {4, 5}, {6, 7}};
  f.batch_cut(cuts);
  f.validate();
  EXPECT_EQ(f.num_trees(), 4u);
  EXPECT_TRUE(f.same_tree(0, 1));
  EXPECT_TRUE(f.same_tree(2, 4));
  EXPECT_TRUE(f.same_tree(5, 6));
  EXPECT_FALSE(f.same_tree(1, 2));
}

TEST(EulerTour, RejectedBatchLeavesForestAndRoundsUnchanged) {
  // A batch is validated whole before its charge and its first mutation:
  // a bad edge anywhere in it leaves no edge cut or linked and no round
  // charged.
  mpc::MpcConfig cfg;
  cfg.n = 8;
  mpc::Cluster cluster(cfg);
  EulerTourForest f(8, &cluster);
  f.batch_link(std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});

  const auto tree_edges = f.tree_edges();
  const std::size_t trees = f.num_trees();
  const std::uint64_t rounds = cluster.rounds();
  std::vector<TourId> tours;
  std::vector<std::vector<VertexId>> sequences;
  for (VertexId v = 0; v < 8; ++v) {
    tours.push_back(f.tour_of(v));
    sequences.push_back(f.tour_sequence(v));
  }

  const std::vector<Edge> bad_cuts[] = {
      {{0, 1}, {5, 6}},  // (5, 6) is not a tree edge
      {{0, 1}, {0, 1}},  // duplicate
  };
  for (const auto& cuts : bad_cuts) {
    EXPECT_THROW(f.batch_cut(cuts), CheckError);
  }
  const std::vector<Edge> bad_links[] = {
      {{4, 5}, {0, 3}},          // (0, 3) closes a cycle in the path
      {{4, 5}, {5, 6}, {4, 6}},  // not a forest over the trees
  };
  for (const auto& links : bad_links) {
    EXPECT_THROW(f.batch_link(links), CheckError);
  }
  using Pairs = std::vector<std::pair<VertexId, VertexId>>;
  const Pairs bad_pairs[] = {
      {{3, 0}, {0, 5}},  // (0, 5) spans two trees; (3, 0) would re-root
      {{3, 0}, {0, 8}},  // 8 is out of range
  };
  for (const auto& pairs : bad_pairs) {
    EXPECT_THROW(f.batch_identify_paths(pairs), CheckError);
  }

  EXPECT_EQ(f.tree_edges(), tree_edges);
  EXPECT_EQ(f.num_trees(), trees);
  EXPECT_EQ(cluster.rounds(), rounds);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_EQ(f.tour_of(v), tours[v]) << "vertex " << v;
    EXPECT_EQ(f.tour_sequence(v), sequences[v]) << "vertex " << v;
  }
  f.validate();
}

TEST(EulerTour, BatchEqualsSequentialFuzz) {
  // Random batched links/cuts must yield the same partition as performing
  // them one at a time; from the same forest, a batched cut must leave the
  // same forest, byte for byte, as cutting its edges one at a time.
  Rng rng(501);
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId n = 40;
    EulerTourForest batched(n), sequential(n);
    Dsu dsu(n);
    // Build a random forest in 3 batched waves.
    for (int wave = 0; wave < 3; ++wave) {
      std::vector<Edge> links;
      for (int i = 0; i < 10; ++i) {
        const VertexId u = static_cast<VertexId>(rng.below(n));
        const VertexId v = static_cast<VertexId>(rng.below(n));
        if (u == v) continue;
        if (dsu.unite(u, v)) links.push_back(make_edge(u, v));
      }
      batched.batch_link(links);
      sequential.sequential_link(links);
      batched.validate();
      sequential.validate();
      for (VertexId u = 0; u < n; ++u) {
        EXPECT_EQ(batched.same_tree(u, 0), sequential.same_tree(u, 0));
      }
    }
    // Now cut a random subset of tree edges in one batch.
    std::vector<Edge> all_edges(batched.tree_edges().begin(),
                                batched.tree_edges().end());
    std::sort(all_edges.begin(), all_edges.end());
    std::vector<Edge> cuts;
    for (const Edge& e : all_edges) {
      if (rng.chance(0.4)) cuts.push_back(e);
    }
    EulerTourForest oracle = batched;
    batched.batch_cut(cuts);
    sequential.sequential_cut(cuts);
    oracle.sequential_cut(cuts);
    batched.validate();
    sequential.validate();
    EXPECT_EQ(batched.num_trees(), sequential.num_trees());
    for (VertexId u = 0; u < n; ++u)
      for (VertexId v : {VertexId{0}, VertexId{7}, VertexId{23}})
        EXPECT_EQ(batched.same_tree(u, v), sequential.same_tree(u, v));
    expect_same_forest(batched, oracle);
  }

  // Larger forests with random roots and cut probabilities from 0 to 1, so
  // nested cuts, cuts in several trees and singleton pieces all occur.
  // The relink between the two cut rounds frees TourIds, so the second
  // round also checks the reuse order.
  for (int trial = 0; trial < 300; ++trial) {
    const VertexId n = static_cast<VertexId>(2 + rng.below(199));
    EulerTourForest forest(n);
    Dsu dsu(n);
    std::vector<Edge> links;
    for (VertexId i = 0; i < n; ++i) {
      const VertexId u = static_cast<VertexId>(rng.below(n));
      const VertexId v = static_cast<VertexId>(rng.below(n));
      if (u != v && dsu.unite(u, v)) links.push_back(make_edge(u, v));
    }
    forest.batch_link(links);
    expect_batch_cut_matches_sequential(forest, (trial % 6) / 5.0, rng);
    std::vector<Edge> relinks;
    for (const Edge& e : links) {
      if (!forest.is_tree_edge(e)) relinks.push_back(e);
    }
    forest.batch_link(relinks);
    expect_batch_cut_matches_sequential(forest, rng.uniform01(), rng);
  }
}

TEST(EulerTour, RandomOpFuzzAgainstReference) {
  Rng rng(502);
  const VertexId n = 32;
  EulerTourForest f(n);
  AdjGraph ref(n);
  Dsu* dsu = nullptr;  // rebuilt per query batch
  for (int step = 0; step < 400; ++step) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    const VertexId v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    const bool connected = f.same_tree(u, v);
    if (!connected) {
      f.link(u, v);
      ref.insert_edge(u, v);
    } else if (f.is_tree_edge(make_edge(u, v)) && rng.chance(0.7)) {
      f.cut(u, v);
      ref.erase_edge(u, v);
    } else {
      f.make_root(u);
    }
    if (step % 50 == 0) f.validate();
  }
  f.validate();
  // Final partition must agree with the reference graph's components.
  const auto labels = component_labels(ref);
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b)
      EXPECT_EQ(f.same_tree(a, b), labels[a] == labels[b]);
  (void)dsu;
}

TEST(EulerTour, BatchIdentifyPaths) {
  Rng rng(503);
  const VertexId n = 40;
  EulerTourForest f(n);
  AdjGraph ref(n);
  for (const Edge& e : gen::random_tree(n, rng)) {
    f.link(e.u, e.v);
    ref.insert_edge(e.u, e.v);
  }
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (int i = 0; i < 12; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    pairs.emplace_back(u, v);
  }
  const auto paths = f.batch_identify_paths(
      std::span<const std::pair<VertexId, VertexId>>(pairs.data(),
                                                     pairs.size()));
  ASSERT_EQ(paths.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto got = paths[i];
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, bfs_path(ref, pairs[i].first, pairs[i].second));
  }
  f.validate();
}

TEST(EulerTour, BatchLinkIsConstantRoundsSequentialIsLinear) {
  // E9's claim at unit-test scale: batch join of k edges charges O(1)
  // broadcasts; k sequential joins charge Theta(k).
  mpc::MpcConfig cfg;
  cfg.n = 256;
  cfg.phi = 0.5;
  const int k = 32;

  mpc::Cluster batched_cluster(cfg);
  EulerTourForest batched(256, &batched_cluster);
  std::vector<Edge> links;
  for (VertexId i = 0; i + 1 < static_cast<VertexId>(k); ++i)
    links.push_back(make_edge(i, i + 1));
  batched.batch_link(links);
  const auto batched_rounds = batched_cluster.rounds();

  mpc::Cluster seq_cluster(cfg);
  EulerTourForest sequential(256, &seq_cluster);
  sequential.sequential_link(links);
  const auto seq_rounds = seq_cluster.rounds();

  EXPECT_LE(batched_rounds, 5u);
  EXPECT_GE(seq_rounds, static_cast<std::uint64_t>(links.size()));
}

TEST(EulerTour, WordsTracksSize) {
  EulerTourForest f(16);
  const auto w0 = f.words();
  for (VertexId i = 0; i + 1 < 16; ++i) f.link(i, i + 1);
  EXPECT_GT(f.words(), w0);
}

}  // namespace
}  // namespace streammpc
