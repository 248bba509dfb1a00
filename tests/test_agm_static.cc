// Tests for the AGM static baseline (§4.1): sketch-only state, O(1)-round
// updates, O(log n)-round spanning-forest queries, cross-checked against
// the adjacency oracle; and the round-zero cache, cross-checked against
// the sampling kernel and against a structure queried only once.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>

#include "common/check.h"
#include "common/random.h"
#include "core/agm_static.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "mpc/fault_injector.h"
#include "test_support.h"

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

// --- round-zero cache --------------------------------------------------------

// Mixed batches of a simple graph over n vertices: mostly inserts, and
// every third batch also deletes a few live edges, so cached samples both
// appear and vanish.
std::vector<Batch> mixed_stream(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Batch> batches;
  std::vector<Edge> live;
  for (int b = 0; b < 24; ++b) {
    Batch batch;
    for (int i = 0; i < 6; ++i) {
      const VertexId u = static_cast<VertexId>(rng.below(n));
      VertexId v = static_cast<VertexId>(rng.below(n - 1));
      if (v >= u) ++v;
      if (std::find(live.begin(), live.end(), make_edge(u, v)) != live.end())
        continue;
      batch.push_back(insert_of(u, v));
      live.push_back(make_edge(u, v));
    }
    for (int i = 0; b % 3 == 2 && i < 4 && !live.empty(); ++i) {
      const std::size_t k = rng.below(live.size());
      batch.push_back(erase_of(live[k].u, live[k].v));
      live[k] = live.back();
      live.pop_back();
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// The ways a batch reaches the sketches.
enum class Stream { kSync, kAsync, kFaulted, kRejected };

// One AGM structure with its own cluster and fault plan, built for
// `stream`; the cluster and plan must not move, so it is never copied.
struct AgmUnderTest {
  AgmUnderTest(VertexId n, Stream stream)
      : cluster(test::make_cluster(n, 4)) {
    const GraphSketchConfig sketch = sketch_config(n, 4242);
    switch (stream) {
      case Stream::kSync:
        agm.emplace(n, sketch, &cluster);
        break;
      case Stream::kAsync:
        agm.emplace(n, sketch, &cluster);
        agm->enable_async_ingest(GutterIngestConfig{.gutter_capacity = 8});
        break;
      case Stream::kFaulted:
        // Three one-shot cell failures inside the stream's step window:
        // each rolls its delivery back and the scheduler retries it.
        for (const std::uint64_t step : {3, 300, 900})
          injector.add_cell_fault(step);
        agm.emplace(n, sketch, &cluster, mpc::ExecMode::kSimulated,
                    mpc::SchedulerConfig{}, &injector);
        break;
      case Stream::kRejected:
        agm.emplace(n, sketch);
        break;
    }
  }
  mpc::Cluster cluster;
  mpc::FaultInjector injector;
  std::optional<AgmStaticConnectivity> agm;
};

// Every cached round-zero sample equals a fresh kernel call.
void expect_cache_matches_kernel(const AgmStaticConnectivity& agm) {
  const auto cached = agm.round_zero_samples();
  ASSERT_EQ(cached.size(), agm.n());
  for (VertexId v = 0; v < agm.n(); ++v) {
    EXPECT_EQ(cached[v], agm.sketches().sample_boundary(
                             0, std::span<const VertexId>(&v, 1)))
        << "v " << v;
  }
}

class AgmRoundZeroCache : public ::testing::TestWithParam<Stream> {};

TEST_P(AgmRoundZeroCache, CacheEqualsKernelAndQueriesEqualOneShotTwin) {
  // After every batch the queried structure resamples only the vertices
  // that batch touched; its cache must still equal the kernel on every
  // vertex, and its final answer must equal that of a twin fed the same
  // batches and queried only at the end (one full round-zero sampling).
  const VertexId n = 64;
  const Stream stream = GetParam();
  AgmUnderTest queried(n, stream);
  AgmUnderTest twin(n, stream);
  AdjGraph ref(n);
  const auto batches = mixed_stream(n, 4243);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE(::testing::Message() << "batch " << b);
    if (stream == Stream::kRejected && b % 6 == 5) {
      // A valid insert and an out-of-range endpoint: the whole batch is
      // rejected before any sketch changes, and the stream goes on.
      const Batch bad = {insert_of(b % n, (b + 1) % n), insert_of(2, n + 9)};
      EXPECT_THROW(queried.agm->apply_batch(bad), CheckError);
      EXPECT_THROW(twin.agm->apply_batch(bad), CheckError);
    }
    queried.agm->apply_batch(batches[b]);
    twin.agm->apply_batch(batches[b]);
    ref.apply(batches[b]);
    const auto r = queried.agm->query_spanning_forest();
    EXPECT_EQ(r.components, num_components(ref));
    expect_cache_matches_kernel(*queried.agm);
  }
  const auto got = queried.agm->query_spanning_forest();
  const auto want = twin.agm->query_spanning_forest();
  EXPECT_EQ(got.forest, want.forest);
  EXPECT_EQ(got.components, want.components);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.rounds, want.rounds);
  expect_cache_matches_kernel(*twin.agm);
  if (stream == Stream::kFaulted) {
    EXPECT_EQ(queried.injector.stats().cell_faults_fired, 3u);
    EXPECT_EQ(twin.injector.stats().cell_faults_fired, 3u);
  }
  if (stream == Stream::kAsync) {
    // The queried side drains on every query's flush, the twin's full
    // gutters drain mid-stream.
    EXPECT_GT(queried.agm->gutter()->stats().flush_drains, 0u);
    EXPECT_GT(twin.agm->gutter()->stats().capacity_drains, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, AgmRoundZeroCache,
                         ::testing::Values(Stream::kSync, Stream::kAsync,
                                           Stream::kFaulted,
                                           Stream::kRejected),
                         [](const auto& info) {
                           switch (info.param) {
                             case Stream::kSync: return "Sync";
                             case Stream::kAsync: return "Async";
                             case Stream::kFaulted: return "Faulted";
                             case Stream::kRejected: return "Rejected";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace streammpc
