// Integration tests for the core contribution: batch-dynamic connectivity
// (Theorem 1.1 / 6.7).  Cross-checked against a full adjacency oracle over
// randomized insert-only and churn streams, parameterized over n, batch
// size, and stream shape; plus MPC accounting checks (constant rounds per
// phase, ~O(n) memory).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/dynamic_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_matches_reference;
using test::make_cluster;

ConnectivityConfig test_config(std::uint64_t seed, unsigned banks = 12) {
  ConnectivityConfig c;
  c.sketch.banks = banks;
  c.sketch.shape = L0Shape{2, 8};
  c.sketch.seed = seed;
  return c;
}

TEST(Connectivity, EmptyGraphBasics) {
  DynamicConnectivity dc(10, test_config(1));
  EXPECT_EQ(dc.num_components(), 10u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(dc.component_of(v), v);
  EXPECT_TRUE(dc.spanning_forest().empty());
}

TEST(Connectivity, SingleBatchInsertions) {
  DynamicConnectivity dc(8, test_config(2));
  AdjGraph ref(8);
  Batch batch{insert_of(0, 1), insert_of(1, 2), insert_of(4, 5)};
  dc.apply_batch(batch);
  ref.apply(batch);
  expect_matches_reference(dc, ref, "single batch");
  EXPECT_TRUE(dc.same_component(0, 2));
  EXPECT_FALSE(dc.same_component(0, 4));
}

TEST(Connectivity, LabelsAreMinVertexIds) {
  DynamicConnectivity dc(10, test_config(3));
  dc.apply_batch({insert_of(7, 9), insert_of(3, 7)});
  EXPECT_EQ(dc.component_of(9), 3u);
  EXPECT_EQ(dc.component_of(7), 3u);
  EXPECT_EQ(dc.component_of(3), 3u);
}

TEST(Connectivity, NonTreeDeletionIsCheap) {
  DynamicConnectivity dc(6, test_config(4));
  AdjGraph ref(6);
  const Batch b1{insert_of(0, 1), insert_of(1, 2), insert_of(0, 2)};
  dc.apply_batch(b1);
  ref.apply(b1);
  // {0,2} closed a cycle; deleting it must not split anything.
  const Batch b2{erase_of(0, 2)};
  dc.apply_batch(b2);
  ref.apply(b2);
  expect_matches_reference(dc, ref, "non-tree delete");
  EXPECT_EQ(dc.stats().tree_deletes, 0u);
}

TEST(Connectivity, TreeDeletionFindsReplacement) {
  DynamicConnectivity dc(6, test_config(5));
  AdjGraph ref(6);
  // Cycle 0-1-2-3-0: every edge deletion has a replacement.
  const Batch b1{insert_of(0, 1), insert_of(1, 2), insert_of(2, 3),
                 insert_of(0, 3)};
  dc.apply_batch(b1);
  ref.apply(b1);
  // Delete one tree edge; the cycle edge must be recovered from sketches.
  const auto forest = dc.spanning_forest();
  const Batch b2{Update{UpdateType::kDelete, forest.front(), 1}};
  dc.apply_batch(b2);
  ref.apply(b2);
  expect_matches_reference(dc, ref, "tree delete with replacement");
  EXPECT_EQ(dc.num_components(), 3u);  // {0..3} + {4} + {5}
  EXPECT_GE(dc.stats().replacements_found, 1u);
}

TEST(Connectivity, TreeDeletionWithoutReplacementSplits) {
  DynamicConnectivity dc(6, test_config(6));
  AdjGraph ref(6);
  const Batch b1{insert_of(0, 1), insert_of(1, 2)};
  dc.apply_batch(b1);
  ref.apply(b1);
  const Batch b2{erase_of(1, 2)};
  dc.apply_batch(b2);
  ref.apply(b2);
  expect_matches_reference(dc, ref, "split");
  EXPECT_FALSE(dc.same_component(0, 2));
}

TEST(Connectivity, MixedBatchInsertAndDelete) {
  DynamicConnectivity dc(8, test_config(7));
  AdjGraph ref(8);
  const Batch b1{insert_of(0, 1), insert_of(2, 3)};
  dc.apply_batch(b1);
  ref.apply(b1);
  // One batch: delete {0,1}, insert {1,2} and {0,5}.
  const Batch b2{erase_of(0, 1), insert_of(1, 2), insert_of(0, 5)};
  dc.apply_batch(b2);
  ref.apply(b2);
  expect_matches_reference(dc, ref, "mixed batch");
}

TEST(Connectivity, OffsettingPairsCancel) {
  DynamicConnectivity dc(6, test_config(8));
  AdjGraph ref(6);
  // insert then delete the same edge within one batch: net no-op.
  const Batch b{insert_of(0, 1), erase_of(0, 1), insert_of(2, 3)};
  dc.apply_batch(b);
  ref.insert_edge(2, 3);
  expect_matches_reference(dc, ref, "offsetting pair");
  EXPECT_EQ(dc.stats().inserts, 1u);
  EXPECT_EQ(dc.stats().deletes, 0u);
}

TEST(Connectivity, NormalizeBatchDeleteThenReinsert) {
  DynamicConnectivity dc(6, test_config(9));
  AdjGraph ref(6);
  dc.apply_batch({insert_of(0, 1)});
  ref.insert_edge(0, 1);
  // delete + reinsert in one batch: edge survives.
  dc.apply_batch({erase_of(0, 1), insert_of(0, 1)});
  expect_matches_reference(dc, ref, "delete+reinsert");
  EXPECT_TRUE(dc.same_component(0, 1));
}

// ---------------- randomized cross-checks -----------------------------------------

struct StreamCase {
  VertexId n;
  std::size_t initial_edges;
  std::size_t num_batches;
  std::size_t batch_size;
  double delete_fraction;
  std::uint64_t seed;
};

class ConnectivityStreamTest : public ::testing::TestWithParam<StreamCase> {};

TEST_P(ConnectivityStreamTest, MatchesOracleThroughout) {
  const StreamCase& c = GetParam();
  Rng rng(c.seed);
  gen::ChurnOptions opt;
  opt.n = c.n;
  opt.initial_edges = c.initial_edges;
  opt.num_batches = c.num_batches;
  opt.batch_size = c.batch_size;
  opt.delete_fraction = c.delete_fraction;
  const auto batches = gen::churn_stream(opt, rng);

  DynamicConnectivity dc(c.n, test_config(c.seed * 977 + 13));
  AdjGraph ref(c.n);
  std::size_t i = 0;
  for (const auto& batch : batches) {
    dc.apply_batch(batch);
    ref.apply(batch);
    if (++i % 5 == 0 || i == batches.size()) {
      expect_matches_reference(dc, ref, "stream checkpoint");
    }
  }
  dc.forest().validate();
}

INSTANTIATE_TEST_SUITE_P(
    Streams, ConnectivityStreamTest,
    ::testing::Values(
        StreamCase{16, 20, 30, 4, 0.4, 101},    // tiny, heavy churn
        StreamCase{32, 60, 25, 8, 0.45, 102},   // small
        StreamCase{64, 150, 20, 16, 0.4, 103},  // medium
        StreamCase{64, 60, 20, 16, 0.5, 104},   // sparse with churn
        StreamCase{128, 300, 15, 32, 0.35, 105},  // larger
        StreamCase{48, 100, 25, 1, 0.5, 106},   // single-update batches
        StreamCase{32, 0, 25, 8, 0.3, 107},     // from empty graph
        StreamCase{96, 200, 12, 64, 0.45, 108}  // batch > fragments
        ));

TEST(Connectivity, InsertOnlyLargeStream) {
  Rng rng(222);
  const VertexId n = 256;
  const auto edges = gen::connected_gnm(n, 600, rng);
  const auto batches = gen::into_batches(gen::insert_stream(edges, rng), 32);
  DynamicConnectivity dc(n, test_config(223, /*banks=*/4));
  AdjGraph ref(n);
  for (const auto& b : batches) {
    dc.apply_batch(b);
    ref.apply(b);
  }
  expect_matches_reference(dc, ref, "insert-only");
  EXPECT_EQ(dc.num_components(), 1u);
}

TEST(Connectivity, FullDeletionReturnsToSingletons) {
  Rng rng(333);
  const VertexId n = 24;
  const auto edges = gen::gnm(n, 60, rng);
  DynamicConnectivity dc(n, test_config(334));
  AdjGraph ref(n);
  const auto ins = gen::into_batches(gen::insert_stream(edges, rng), 16);
  for (const auto& b : ins) {
    dc.apply_batch(b);
    ref.apply(b);
  }
  // Delete everything, in batches.
  auto shuffled = edges;
  shuffle(shuffled, rng);
  Batch all;
  for (const Edge& e : shuffled) all.push_back(erase_of(e.u, e.v));
  for (const auto& b : gen::into_batches(all, 16)) {
    dc.apply_batch(b);
    ref.apply(b);
  }
  expect_matches_reference(dc, ref, "full deletion");
  EXPECT_EQ(dc.num_components(), static_cast<std::size_t>(n));
}

// ---------------- MPC accounting ---------------------------------------------------

TEST(Connectivity, ConstantRoundsPerPhaseAcrossN) {
  // Theorem 6.7: rounds per batch must not grow with n (fixed phi).
  std::vector<std::uint64_t> max_rounds;
  for (const VertexId n : {64u, 256u, 1024u}) {
    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;
    mpc::Cluster cluster(mc);
    DynamicConnectivity dc(n, test_config(42, 8), &cluster);
    Rng rng(900 + n);
    gen::ChurnOptions opt;
    opt.n = n;
    opt.initial_edges = 2 * n;
    opt.num_batches = 8;
    opt.batch_size = 8;
    opt.delete_fraction = 0.4;
    std::uint64_t worst = 0;
    for (const auto& b : gen::churn_stream(opt, rng)) {
      dc.apply_batch(b);
      worst = std::max(worst, cluster.phase_rounds());
    }
    max_rounds.push_back(worst);
  }
  // Tree heights (ceil log_s) jitter by +-1 per primitive across sizes;
  // what must NOT happen is growth proportional to log n (n grew 16x, so
  // a log-round algorithm would add ~4 rounds per log-bound primitive).
  EXPECT_LE(max_rounds[2], max_rounds[0] + 4);
  EXPECT_LE(static_cast<double>(max_rounds[2]),
            1.3 * static_cast<double>(max_rounds[0]));
}

TEST(Connectivity, MemoryIsSublinearInEdges) {
  // ~O(n) total memory: footprint must be essentially flat while m grows.
  // (Sampler levels allocate lazily, so there is a log-m tail as rare deep
  // levels get their first hit; doubling m from 1500 to 3000 must move the
  // footprint by only a few percent, nothing like the 2x an adjacency
  // structure would show.)
  Rng rng(901);
  const VertexId n = 128;
  DynamicConnectivity dc(n, test_config(902, 6));
  const auto edges = gen::gnm(n, 3000, rng);
  std::uint64_t words_at_1500 = 0;
  std::size_t applied = 0;
  for (const auto& b :
       gen::into_batches(gen::insert_stream(edges, rng), 50)) {
    dc.apply_batch(b);
    applied += b.size();
    if (applied == 1500) words_at_1500 = dc.memory_words();
  }
  ASSERT_GT(words_at_1500, 0u);
  const double growth = static_cast<double>(dc.memory_words()) /
                        static_cast<double>(words_at_1500);
  EXPECT_LT(growth, 1.15) << "memory must not track m (2x edge growth)";
  // And the absolute footprint is bounded by the nominal ~O(n) budget.
  EXPECT_LE(dc.memory_words(),
            static_cast<std::uint64_t>(n) *
                    dc.sketches().nominal_words_per_vertex() +
                dc.forest().words() + n);
}

TEST(Connectivity, ClusterLedgerWithinCapacity) {
  mpc::MpcConfig mc;
  mc.n = 256;
  mc.phi = 0.5;
  mpc::Cluster cluster(mc);
  DynamicConnectivity dc(256, test_config(71, 6), &cluster);
  Rng rng(903);
  gen::ChurnOptions opt;
  opt.n = 256;
  opt.initial_edges = 512;
  opt.num_batches = 10;
  opt.batch_size = 8;
  const auto batches = gen::churn_stream(opt, rng);
  for (const auto& b : batches) dc.apply_batch(b);
  EXPECT_TRUE(cluster.ok()) << cluster.report();
}

// ---------------- byte-identity pin --------------------------------------------

// FNV-1a over 64-bit words.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digest of the observable state after one batch: every Stats field plus
// the sorted spanning forest.
std::uint64_t batch_digest(const DynamicConnectivity& dc) {
  const auto& s = dc.stats();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t x :
       {s.batches, s.inserts, s.deletes, s.tree_inserts, s.tree_deletes,
        s.replacements_found, s.boruvka_levels, s.max_banks_used,
        s.empty_levels}) {
    h = fold(h, x);
  }
  for (const Edge& e : dc.spanning_forest())
    h = fold(h, (static_cast<std::uint64_t>(e.u) << 32) | e.v);
  return h;
}

TEST(Connectivity, ChurnStreamPinnedAcrossExecModes) {
  // Pins the per-batch Stats and spanning forest of a seeded churn stream
  // (G(2^10, 2n) warm-up, then 30 batches at 50% deletes) to values
  // recorded before the Boruvka merge learned the zero-sum complement, so
  // any optimization of the replacement search must leave every sample —
  // hence every count and every forest — byte-identical.  Checked under
  // flat ingest, the simulated cluster, and the simulated cluster behind
  // the async gutter.
  const VertexId n = 1024;
  Rng rng(20241);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 2 * n;
  opt.num_batches = 30;
  opt.batch_size = 128;
  opt.delete_fraction = 0.5;
  const auto batches = gen::churn_stream(opt, rng);
  ASSERT_EQ(batches.size(), 46u);

  const std::vector<std::uint64_t> expected = {
      0x8b1028d98cbf24ccULL, 0x614fdfe6359e4771ULL, 0xbce243c850e4fc35ULL,
      0xdc9de61632733f24ULL, 0xc92ebafee2a671b8ULL, 0x862fc2eb5368e279ULL,
      0x332b3c821c7a0dcfULL, 0xae5bbf7fbe25389fULL, 0xc82c28c4cbf923b2ULL,
      0xca88e23e278fd334ULL, 0x3e6e53115dc322f7ULL, 0x88201bdd135f602fULL,
      0x8679dfc0d6aa5107ULL, 0x3bd24e778f1fd689ULL, 0x91bec9f9e447b384ULL,
      0x84e370901016fc2bULL, 0x0cb651c0a9445217ULL, 0x5ce9c9ee952adfd0ULL,
      0x3969aeebe40bbadaULL, 0xb7521767454f0996ULL, 0x9f0a535c0af78e4bULL,
      0x81552f1f81128d24ULL, 0x647875b209a14611ULL, 0x2bbf03b3fd5a031bULL,
      0x1376a99f61b6fefeULL, 0xf248dc704c760e41ULL, 0x4e6b179eaabfdeecULL,
      0x1518def44f3d94eaULL, 0xe4916365cacde1b2ULL, 0x038d28078f0d6ffdULL,
      0xe0b9309bb390b789ULL, 0x31c7e25d3155429eULL, 0x75880418e08cc6d2ULL,
      0x41956f28156401b1ULL, 0x3cc3e40bfcba8f58ULL, 0x6c1b3084ee538550ULL,
      0xd6b57771c87f310bULL, 0x2fc85e5aeb4055a4ULL, 0xd8280a48029cad7eULL,
      0xb493746a39182410ULL, 0x9bb4f26cf5c6f6f4ULL, 0x7424273451a395ecULL,
      0x67b4aa01d1344700ULL, 0x81720c1a086f2f94ULL, 0x13b11605d7e67155ULL,
      0x5bdb1deb40c74c79ULL,
  };
  const DynamicConnectivity::Stats expected_final{
      46, 3973, 1873, 1062, 934, 873, 107, 4, 54};

  struct Mode {
    const char* name;
    mpc::ExecMode exec_mode;
    bool attach_cluster;
    bool async_ingest;
  };
  for (const Mode& mode :
       {Mode{"flat", mpc::ExecMode::kFlat, false, false},
        Mode{"simulated", mpc::ExecMode::kSimulated, true, false},
        Mode{"simulated+async", mpc::ExecMode::kSimulated, true, true}}) {
    SCOPED_TRACE(mode.name);
    mpc::Cluster cluster = make_cluster(n, 8);
    ConnectivityConfig cfg = test_config(20242);
    cfg.exec_mode = mode.exec_mode;
    cfg.async_ingest = mode.async_ingest;
    DynamicConnectivity dc(n, cfg, mode.attach_cluster ? &cluster : nullptr);
    std::vector<std::uint64_t> got;
    for (const Batch& b : batches) {
      dc.apply_batch(b);
      got.push_back(batch_digest(dc));
    }
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expected[i]) << "batch " << i;
    const auto& s = dc.stats();
    EXPECT_EQ(s.batches, expected_final.batches);
    EXPECT_EQ(s.inserts, expected_final.inserts);
    EXPECT_EQ(s.deletes, expected_final.deletes);
    EXPECT_EQ(s.tree_inserts, expected_final.tree_inserts);
    EXPECT_EQ(s.tree_deletes, expected_final.tree_deletes);
    EXPECT_EQ(s.replacements_found, expected_final.replacements_found);
    EXPECT_EQ(s.boruvka_levels, expected_final.boruvka_levels);
    EXPECT_EQ(s.max_banks_used, expected_final.max_banks_used);
    EXPECT_EQ(s.empty_levels, expected_final.empty_levels);
  }
}

TEST(Connectivity, StatsAreCoherent) {
  DynamicConnectivity dc(16, test_config(72));
  dc.apply_batch({insert_of(0, 1), insert_of(1, 2), insert_of(0, 2)});
  dc.apply_batch({erase_of(0, 1)});
  const auto& s = dc.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.deletes, 1u);
  EXPECT_EQ(s.tree_inserts, 2u);
  EXPECT_EQ(s.tree_deletes, 1u);
}

}  // namespace
}  // namespace streammpc
