// Tests for the §4 sequential streaming connectivity algorithm
// (Algorithms 1–4), cross-checked against the adjacency oracle, plus its
// agreement with the MPC batch structure fed the same stream.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"

namespace streammpc {
namespace {

GraphSketchConfig sketch_config(std::uint64_t seed) {
  GraphSketchConfig c;
  c.banks = 10;
  c.seed = seed;
  return c;
}

void expect_matches(const StreamingConnectivity& sc, const AdjGraph& ref,
                    const char* where) {
  const auto labels = component_labels(ref);
  EXPECT_EQ(sc.num_components(), num_components(ref)) << where;
  for (VertexId v = 0; v < ref.n(); ++v)
    EXPECT_EQ(sc.component_of(v), labels[v]) << where << " at " << v;
  Dsu dsu(ref.n());
  for (const Edge& e : sc.spanning_forest()) {
    EXPECT_TRUE(ref.has_edge(e.u, e.v)) << where;
    EXPECT_TRUE(dsu.unite(e.u, e.v)) << where << ": cycle in forest";
  }
  EXPECT_EQ(dsu.num_sets(), num_components(ref)) << where;
  sc.forest().validate();
}

TEST(StreamingConnectivity, InsertMergesAndLabels) {
  StreamingConnectivity sc(6, sketch_config(1));
  sc.insert(4, 2);
  sc.insert(2, 5);
  EXPECT_EQ(sc.component_of(5), 2u);
  EXPECT_EQ(sc.component_of(4), 2u);
  EXPECT_EQ(sc.num_components(), 4u);
  EXPECT_TRUE(sc.is_tree_edge(make_edge(2, 4)));
}

TEST(StreamingConnectivity, NonTreeInsertKeepsForest) {
  StreamingConnectivity sc(4, sketch_config(2));
  sc.insert(0, 1);
  sc.insert(1, 2);
  sc.insert(0, 2);  // cycle edge
  EXPECT_EQ(sc.spanning_forest().size(), 2u);
  EXPECT_FALSE(sc.is_tree_edge(make_edge(0, 2)));
}

TEST(StreamingConnectivity, DeleteNonTreeEdgeIsTrivial) {
  StreamingConnectivity sc(4, sketch_config(3));
  sc.insert(0, 1);
  sc.insert(1, 2);
  sc.insert(0, 2);
  sc.erase(0, 2);
  EXPECT_EQ(sc.stats().tree_deletes, 0u);
  EXPECT_TRUE(sc.same_component(0, 2));
}

TEST(StreamingConnectivity, DeleteTreeEdgeWithReplacement) {
  StreamingConnectivity sc(4, sketch_config(4));
  sc.insert(0, 1);
  sc.insert(1, 2);
  sc.insert(0, 2);
  sc.erase(0, 1);  // replacement {0,2} must be recovered from sketches
  EXPECT_TRUE(sc.same_component(0, 1));
  EXPECT_EQ(sc.stats().replacements_found, 1u);
  EXPECT_EQ(sc.num_components(), 2u);  // {0,1,2} and {3}
}

TEST(StreamingConnectivity, DeleteBridgeSplits) {
  StreamingConnectivity sc(5, sketch_config(5));
  sc.insert(0, 1);
  sc.insert(1, 2);
  sc.erase(1, 2);
  EXPECT_FALSE(sc.same_component(1, 2));
  EXPECT_EQ(sc.stats().splits, 1u);
  EXPECT_EQ(sc.component_of(2), 2u);
}

struct StreamShape {
  VertexId n;
  std::size_t initial;
  std::size_t ops;
  double delete_fraction;
  std::uint64_t seed;
};

class StreamingConnectivityFuzz : public ::testing::TestWithParam<StreamShape> {
};

TEST_P(StreamingConnectivityFuzz, MatchesOracle) {
  const StreamShape& p = GetParam();
  Rng rng(p.seed);
  gen::ChurnOptions opt;
  opt.n = p.n;
  opt.initial_edges = p.initial;
  opt.num_batches = p.ops;
  opt.batch_size = 1;  // §4 is the single-update algorithm
  opt.delete_fraction = p.delete_fraction;
  StreamingConnectivity sc(p.n, sketch_config(p.seed * 31));
  AdjGraph ref(p.n);
  std::size_t step = 0;
  for (const auto& batch : gen::churn_stream(opt, rng)) {
    for (const Update& u : batch) {
      sc.apply(u);
      ref.apply(u);
    }
    if (++step % 20 == 0) expect_matches(sc, ref, "checkpoint");
  }
  expect_matches(sc, ref, "final");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StreamingConnectivityFuzz,
    ::testing::Values(StreamShape{12, 16, 60, 0.5, 11},
                      StreamShape{24, 50, 80, 0.45, 12},
                      StreamShape{48, 120, 80, 0.4, 13},
                      StreamShape{48, 30, 100, 0.55, 14},
                      StreamShape{96, 250, 60, 0.35, 15}));

TEST(StreamingConnectivity, AgreesWithBatchStructure) {
  // The sequential §4 algorithm and the MPC §6 structure are the same
  // algorithm at different batch granularity: their component structures
  // must agree on a shared stream.
  const VertexId n = 40;
  Rng rng(16);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 80;
  opt.num_batches = 60;
  opt.batch_size = 1;
  opt.delete_fraction = 0.45;
  StreamingConnectivity sc(n, sketch_config(17));
  ConnectivityConfig cc;
  cc.sketch = sketch_config(18);
  DynamicConnectivity dc(n, cc);
  for (const auto& batch : gen::churn_stream(opt, rng)) {
    for (const Update& u : batch) sc.apply(u);
    dc.apply_batch(batch);
  }
  for (VertexId v = 0; v < n; ++v)
    EXPECT_EQ(sc.component_of(v), dc.component_of(v));
}

TEST(StreamingConnectivity, MemoryIndependentOfM) {
  Rng rng(19);
  const VertexId n = 64;
  StreamingConnectivity sc(n, sketch_config(20));
  const auto edges = gen::gnm(n, 1200, rng);
  std::uint64_t words_mid = 0;
  std::size_t i = 0;
  for (const Edge& e : edges) {
    sc.insert(e.u, e.v);
    if (++i == 600) words_mid = sc.memory_words();
  }
  EXPECT_LT(static_cast<double>(sc.memory_words()),
            1.2 * static_cast<double>(words_mid));
}

TEST(StreamingConnectivity, RejectsInvalidDeletes) {
  StreamingConnectivity sc(4, sketch_config(21));
  sc.insert(0, 1);
  // Deleting an edge between disconnected vertices violates the stream
  // contract and is rejected loudly.
  EXPECT_THROW(sc.erase(2, 3), CheckError);
}

TEST(StreamingConnectivity, RejectedDeleteKeepsAppliedPrefix) {
  // A segment whose deletion is rejected leaves the updates before it
  // applied, sketch deltas included, exactly as per-update insert() does.
  StreamingConnectivity sc(4, sketch_config(22));
  const std::vector<Update> segment{insert_of(0, 1), insert_of(2, 3),
                                    erase_of(0, 2)};
  EXPECT_THROW(sc.apply_stream(segment), CheckError);
  EXPECT_TRUE(sc.is_tree_edge(make_edge(0, 1)));
  EXPECT_TRUE(sc.is_tree_edge(make_edge(2, 3)));
  EXPECT_NE(sc.sketches().mutation_epoch(), 0u);

  StreamingConnectivity single(4, sketch_config(22));
  single.insert(0, 1);
  single.insert(2, 3);
  const VertexId zero[] = {0};
  bool sampled = false;
  for (unsigned bank = 0; bank < sc.sketches().banks(); ++bank) {
    const auto edge = sc.sketches().sample_boundary(bank, zero);
    EXPECT_EQ(edge, single.sketches().sample_boundary(bank, zero)) << bank;
    sampled = sampled || edge == make_edge(0, 1);
  }
  EXPECT_TRUE(sampled);
}

}  // namespace
}  // namespace streammpc
