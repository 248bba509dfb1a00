// Tests for the AGM static baseline (§4.1): sketch-only state, O(1)-round
// updates, O(log n)-round spanning-forest queries, cross-checked against
// the adjacency oracle.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/agm_static.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"

namespace streammpc {
namespace {

GraphSketchConfig sketch_config(VertexId n, std::uint64_t seed) {
  GraphSketchConfig c;
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  c.banks = 2 * lg + 2;
  c.seed = seed;
  return c;
}

TEST(AgmStatic, EmptyGraphQuery) {
  AgmStaticConnectivity agm(8, sketch_config(8, 1));
  const auto r = agm.query_spanning_forest();
  EXPECT_TRUE(r.forest.empty());
  EXPECT_EQ(r.components, 8u);
}

TEST(AgmStatic, RecoversComponentsOfRandomGraphs) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const VertexId n = 48;
    AgmStaticConnectivity agm(n, sketch_config(n, 100 + trial));
    AdjGraph ref(n);
    const auto edges = gen::gnm(n, 120, rng);
    Batch batch;
    for (const Edge& e : edges) batch.push_back(Update{UpdateType::kInsert, e, 1});
    agm.apply_batch(batch);
    ref.apply(batch);

    const auto r = agm.query_spanning_forest();
    EXPECT_EQ(r.components, num_components(ref)) << "trial " << trial;
    // Every sampled forest edge is real and acyclic.
    Dsu dsu(n);
    for (const Edge& e : r.forest) {
      EXPECT_TRUE(ref.has_edge(e.u, e.v));
      EXPECT_TRUE(dsu.unite(e.u, e.v));
    }
  }
}

TEST(AgmStatic, HandlesDeletions) {
  const VertexId n = 16;
  AgmStaticConnectivity agm(n, sketch_config(n, 3));
  AdjGraph ref(n);
  Batch grow{insert_of(0, 1), insert_of(1, 2), insert_of(0, 2),
             insert_of(4, 5)};
  agm.apply_batch(grow);
  ref.apply(grow);
  Batch shrink{erase_of(0, 1), erase_of(4, 5)};
  agm.apply_batch(shrink);
  ref.apply(shrink);
  const auto r = agm.query_spanning_forest();
  EXPECT_EQ(r.components, num_components(ref));
}

TEST(AgmStatic, UpdateRoundsConstantQueryRoundsGrow) {
  mpc::MpcConfig mc;
  mc.n = 1024;
  mc.phi = 0.5;
  mpc::Cluster cluster(mc);
  AgmStaticConnectivity agm(1024, sketch_config(1024, 4), &cluster);
  Rng rng(5);
  const auto edges = gen::connected_gnm(1024, 2048, rng);
  std::uint64_t max_update_rounds = 0;
  for (const auto& b : gen::into_batches(gen::insert_stream(edges, rng), 64)) {
    agm.apply_batch(b);
    max_update_rounds = std::max(max_update_rounds, cluster.phase_rounds());
  }
  const auto r = agm.query_spanning_forest();
  EXPECT_LE(max_update_rounds, 3u) << "updates must be O(1) rounds";
  EXPECT_GE(r.rounds, 2 * max_update_rounds)
      << "the query must be much more expensive than an update";
  EXPECT_GE(r.levels, 3u) << "a connected 1024-vertex graph needs several "
                             "Boruvka levels";
}

TEST(AgmStatic, SingleUpdatesPublishSketchUsageOnTheLedger) {
  // apply() is apply_batch({u}): a stream of single updates must reach the
  // cluster's memory ledger exactly like batches do.
  const VertexId n = 64;
  mpc::MpcConfig mc;
  mc.n = n;
  mpc::Cluster cluster(mc);
  AgmStaticConnectivity agm(n, sketch_config(n, 8), &cluster);
  Rng rng(9);
  for (const Edge& e : gen::gnm(n, 40, rng))
    agm.apply(Update{UpdateType::kInsert, e, 1});
  ASSERT_GT(agm.memory_words(), 0u);
  ASSERT_EQ(cluster.usage_by_label().count("agm/sketches"), 1u);
  EXPECT_EQ(cluster.usage_by_label().at("agm/sketches"), agm.memory_words());
}

TEST(AgmStatic, MemoryMatchesMaintainedStructure) {
  // Same sketch banks => same asymptotic footprint: the baseline saves no
  // memory, it only trades query rounds.
  const VertexId n = 64;
  AgmStaticConnectivity agm(n, sketch_config(n, 6));
  Rng rng(7);
  Batch batch;
  for (const Edge& e : gen::gnm(n, 200, rng))
    batch.push_back(Update{UpdateType::kInsert, e, 1});
  agm.apply_batch(batch);
  EXPECT_GT(agm.memory_words(), 0u);
  EXPECT_LE(agm.memory_words(),
            static_cast<std::uint64_t>(n) *
                agm.sketches().nominal_words_per_vertex());
}

}  // namespace
}  // namespace streammpc
