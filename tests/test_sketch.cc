// Tests for the sketching substrate: edge-coordinate codec, 1-sparse
// cells, s-sparse recovery, L0-samplers, AGM graph sketches.  Includes the
// linearity ("mergeability", Remark 3.2) and boundary-support (Lemma 3.3)
// properties the connectivity algorithm depends on.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <unordered_set>

#include "common/field.h"
#include "common/random.h"
#include "graph/generators.h"
#include "sketch/coord.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"
#include "sketch/ssparse.h"

namespace streammpc {
namespace {

// ---------------- coordinate codec -------------------------------------------

class CodecTest : public ::testing::TestWithParam<VertexId> {};

TEST_P(CodecTest, RoundtripAllPairs) {
  const VertexId n = GetParam();
  EdgeCoordCodec codec(n);
  EXPECT_EQ(codec.dimension(),
            static_cast<std::uint64_t>(n) * (n - 1) / 2);
  std::set<Coord> seen;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const Coord c = codec.encode(Edge{u, v});
      ASSERT_LT(c, codec.dimension());
      EXPECT_TRUE(seen.insert(c).second) << "coordinate collision";
      const Edge back = codec.decode(c);
      EXPECT_EQ(back.u, u);
      EXPECT_EQ(back.v, v);
    }
  }
  EXPECT_EQ(seen.size(), codec.dimension());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecTest,
                         ::testing::Values(2, 3, 5, 17, 64, 150));

TEST(Codec, LargeNRoundtripSpotChecks) {
  const VertexId n = 1 << 16;
  EdgeCoordCodec codec(n);
  Rng rng(404);
  for (int i = 0; i < 2000; ++i) {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    const Edge e = make_edge(u, v);
    EXPECT_EQ(codec.decode(codec.encode(e)), e);
  }
  // Boundary coordinates.
  EXPECT_EQ(codec.decode(0), (Edge{0, 1}));
  EXPECT_EQ(codec.decode(codec.dimension() - 1),
            (Edge{static_cast<VertexId>(n - 2), static_cast<VertexId>(n - 1)}));
}

// ---------------- 1-sparse cell ------------------------------------------------

TEST(OneSparse, ZeroState) {
  OneSparseCell cell;
  EXPECT_TRUE(cell.is_zero());
  EXPECT_FALSE(cell.decode(7, 100).has_value());
}

TEST(OneSparse, SingleCoordinateDecodes) {
  OneSparseCell cell;
  cell.update(42, 1, 12345);
  const auto r = cell.decode(12345, 100);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coord, 42u);
  EXPECT_EQ(r->weight, 1);
}

TEST(OneSparse, NegativeWeightDecodes) {
  OneSparseCell cell;
  cell.update(7, -1, 999);
  const auto r = cell.decode(999, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coord, 7u);
  EXPECT_EQ(r->weight, -1);
}

TEST(OneSparse, CancellationReturnsToZero) {
  OneSparseCell cell;
  cell.update(5, 1, 31337);
  cell.update(5, -1, 31337);
  EXPECT_TRUE(cell.is_zero());
}

TEST(OneSparse, TwoCoordinatesRejected) {
  OneSparseCell cell;
  cell.update(5, 1, 31337);
  cell.update(9, 1, 31337);
  EXPECT_FALSE(cell.decode(31337, 64).has_value());
}

TEST(OneSparse, OppositeSignPairRejected) {
  // w = 0 but s, fp nonzero: must not decode and must not look zero.
  OneSparseCell cell;
  cell.update(5, 1, 31337);
  cell.update(9, -1, 31337);
  EXPECT_FALSE(cell.is_zero());
  EXPECT_FALSE(cell.decode(31337, 64).has_value());
}

TEST(OneSparse, MergeIsLinear) {
  OneSparseCell a, b;
  a.update(3, 1, 777);
  b.update(3, 1, 777);
  b.update(11, 1, 777);
  a.merge(b);  // a = {3:2, 11:1}
  EXPECT_FALSE(a.decode(777, 64).has_value());
  OneSparseCell c;
  c.update(11, -1, 777);
  a.merge(c);
  // a = {3:2}: 1-sparse with weight 2.
  const auto r = a.decode(777, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coord, 3u);
  EXPECT_EQ(r->weight, 2);
}

TEST(OneSparse, ManyUpdatesFuzzAgainstDenseVector) {
  Rng rng(2024);
  const std::uint64_t kDim = 64;
  const std::uint64_t z = 0x1234567;
  for (int trial = 0; trial < 200; ++trial) {
    OneSparseCell cell;
    std::map<Coord, std::int64_t> dense;
    const int ops = static_cast<int>(rng.below(12)) + 1;
    for (int i = 0; i < ops; ++i) {
      const Coord c = rng.below(kDim);
      const std::int64_t d = rng.chance(0.5) ? 1 : -1;
      cell.update(c, d, z);
      dense[c] += d;
      if (dense[c] == 0) dense.erase(c);
    }
    if (dense.empty()) {
      EXPECT_TRUE(cell.is_zero());
    } else if (dense.size() == 1) {
      const auto r = cell.decode(z, kDim);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->coord, dense.begin()->first);
      EXPECT_EQ(r->weight, dense.begin()->second);
    } else {
      EXPECT_FALSE(cell.decode(z, kDim).has_value());
    }
  }
}

TEST(OneSparse, FieldEncodeDeltaCoversInt64Min) {
  // |INT64_MIN| = 2^63 is taken modulo 2^64, never by signed negation.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(field_encode_delta(kMin),
            Mersenne61::sub(0, Mersenne61::reduce(1ULL << 63)));
  EXPECT_EQ(field_encode_delta(kMin + 1),
            Mersenne61::sub(0, Mersenne61::reduce((1ULL << 63) - 1)));
  EXPECT_EQ(field_encode_delta(-1), Mersenne61::kPrime - 1);
  EXPECT_EQ(field_encode_delta(0), 0u);
  // Encoding is additive: enc(a) + enc(-a) == 0 in the field.
  for (const std::int64_t d : {std::int64_t{1}, std::int64_t{12345},
                               std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(Mersenne61::add(field_encode_delta(d), field_encode_delta(-d)),
              0u)
        << d;
  }
}

TEST(OneSparse, DecodeThroughPowerTableMatchesPow) {
  // The sampling paths decode with SSparseParams::pow_z; the raw-z decode
  // uses Mersenne61::pow.  Both must name the same field element for every
  // coordinate, so both decodes agree.
  const std::uint64_t dimension = (1ULL << 40) + 17;
  const SSparseParams params({2, 8}, dimension, 0x5eed);
  const std::uint64_t z = params.z();
  Rng rng(77);
  std::vector<Coord> coords{0, 1, 2, dimension - 1, dimension / 2};
  for (int i = 0; i < 200; ++i) coords.push_back(rng.below(dimension));
  for (const Coord c : coords) {
    ASSERT_EQ(params.pow_z(c), Mersenne61::pow(z, c)) << "c = " << c;
    OneSparseCell cell;
    cell.update(c, -3, z);
    const auto via_table = cell.decode(params);
    ASSERT_TRUE(via_table.has_value()) << "c = " << c;
    EXPECT_EQ(via_table->coord, c);
    EXPECT_EQ(via_table->weight, -3);
    EXPECT_EQ(cell.decode(z, dimension)->coord, c);
    cell.update(c + 1 < dimension ? c + 1 : 0, 1, z);  // now 2-sparse
    EXPECT_FALSE(cell.decode(params).has_value());
  }
}

// ---------------- s-sparse recovery --------------------------------------------

TEST(SSparse, RecoversSparseSupportExactly) {
  SSparseParams params({3, 16}, 1 << 20, 555);
  Rng rng(1);
  int perfect = 0;
  const int kTrials = 50;
  for (int t = 0; t < kTrials; ++t) {
    SSparseRecovery rec;
    std::set<Coord> support;
    while (support.size() < 5) support.insert(rng.below(1 << 20));
    for (Coord c : support) rec.update(params, c, 1);
    const auto out = rec.recover(params);
    std::set<Coord> got;
    for (const auto& r : out) {
      EXPECT_EQ(r.weight, 1);
      EXPECT_TRUE(support.count(r.coord)) << "false positive";
      got.insert(r.coord);
    }
    if (got == support) ++perfect;
  }
  EXPECT_GE(perfect, kTrials * 8 / 10);
}

TEST(SSparse, ZeroVectorRecoversNothing) {
  SSparseParams params({2, 8}, 1000, 556);
  SSparseRecovery rec;
  EXPECT_TRUE(rec.recover(params).empty());
  rec.update(params, 3, 1);
  rec.update(params, 3, -1);
  EXPECT_TRUE(rec.is_zero());
  EXPECT_TRUE(rec.recover(params).empty());
}

TEST(SSparse, MergeEqualsCombinedStream) {
  SSparseParams params({2, 8}, 1000, 557);
  SSparseRecovery a, b, combined;
  a.update(params, 10, 1);
  a.update(params, 20, 1);
  b.update(params, 20, -1);
  b.update(params, 30, 1);
  combined.update(params, 10, 1);
  combined.update(params, 30, 1);
  a.merge(params, b);  // = {10, 30}
  const auto ra = a.recover(params);
  const auto rc = combined.recover(params);
  ASSERT_EQ(ra.size(), rc.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].coord, rc[i].coord);
    EXPECT_EQ(ra[i].weight, rc[i].weight);
  }
}

TEST(SSparse, LazyAllocation) {
  SSparseParams params({2, 8}, 1000, 558);
  SSparseRecovery rec;
  EXPECT_FALSE(rec.allocated());
  EXPECT_EQ(rec.words(), 0u);
  rec.update(params, 1, 1);
  EXPECT_TRUE(rec.allocated());
  EXPECT_EQ(rec.words(), 2u * 8u * 4u);
}

// ---------------- L0 sampler ---------------------------------------------------

TEST(L0Sampler, ZeroVectorSamplesNothing) {
  L0Params params(1 << 16, {2, 8}, 42);
  L0Sampler s;
  EXPECT_FALSE(s.sample(params).has_value());
  s.update(params, 100, 1);
  s.update(params, 100, -1);
  EXPECT_FALSE(s.sample(params).has_value());
}

TEST(L0Sampler, SingletonAlwaysFound) {
  L0Params params(1 << 16, {2, 8}, 43);
  for (Coord c : {0ULL, 17ULL, 65535ULL, 4242ULL}) {
    L0Sampler s;
    s.update(params, c, 1);
    const auto r = s.sample(params);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->coord, c);
    EXPECT_EQ(r->weight, 1);
  }
}

TEST(L0Sampler, SampleIsAlwaysInSupport) {
  Rng rng(90);
  L0Params params(1 << 18, {2, 8}, 44);
  int found = 0;
  const int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    L0Sampler s;
    std::set<Coord> support;
    const int size = 1 + static_cast<int>(rng.below(200));
    while (static_cast<int>(support.size()) < size) {
      const Coord c = rng.below(1 << 18);
      if (support.insert(c).second) s.update(params, c, 1);
    }
    const auto r = s.sample(params);
    if (r.has_value()) {
      ++found;
      EXPECT_TRUE(support.count(r->coord)) << "sampled ghost coordinate";
    }
  }
  // Success probability is constant per sampler; expect the vast majority.
  EXPECT_GE(found, kTrials * 2 / 3);
}

TEST(L0Sampler, MergeCancelsSharedCoordinates) {
  L0Params params(1 << 12, {2, 8}, 45);
  L0Sampler a, b;
  a.update(params, 5, 1);
  a.update(params, 9, 1);
  b.update(params, 9, -1);
  a.merge(params, b);
  const auto r = a.sample(params);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coord, 5u);
}

TEST(L0Sampler, SamplesSpreadOverSupport) {
  // Different samplers (different seeds) should pick different elements of
  // the same support — a coarse uniformity proxy.
  std::set<Coord> support;
  Rng rng(91);
  while (support.size() < 50) support.insert(rng.below(1 << 14));
  std::set<Coord> picked;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    L0Params params(1 << 14, {2, 8}, 4600 + seed);
    L0Sampler s;
    for (Coord c : support) s.update(params, c, 1);
    const auto r = s.sample(params);
    if (r) picked.insert(r->coord);
  }
  EXPECT_GE(picked.size(), 8u);
}

TEST(L0Sampler, WordsAccounting) {
  L0Params params(1 << 10, {2, 8}, 47);
  L0Sampler s;
  EXPECT_EQ(s.words(), 0u);
  s.update(params, 1, 1);
  EXPECT_GT(s.words(), 0u);
  EXPECT_LE(s.words(), params.nominal_words());
}

// ---------------- AGM graph sketches -------------------------------------------

TEST(GraphSketch, SingletonVertexSamplesIncidentEdge) {
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 7;
  VertexSketches vs(16, cfg);
  vs.update_edge(make_edge(3, 7), +1);
  const VertexId three = 3;
  for (unsigned b = 0; b < 4; ++b) {
    const auto e = vs.sample_boundary(b, std::span<const VertexId>(&three, 1));
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(*e, make_edge(3, 7));
  }
}

TEST(GraphSketch, InternalEdgesCancel) {
  // Lemma 3.3: X_A's support is exactly E(A, V\A).
  GraphSketchConfig cfg;
  cfg.banks = 6;
  cfg.seed = 8;
  VertexSketches vs(32, cfg);
  // Triangle inside A = {1, 2, 3} plus one boundary edge {3, 20}.
  vs.update_edge(make_edge(1, 2), +1);
  vs.update_edge(make_edge(2, 3), +1);
  vs.update_edge(make_edge(1, 3), +1);
  vs.update_edge(make_edge(3, 20), +1);
  const std::vector<VertexId> a{1, 2, 3};
  int hits = 0;
  for (unsigned b = 0; b < cfg.banks; ++b) {
    const auto e = vs.sample_boundary(b, a);
    if (e.has_value()) {
      ++hits;
      EXPECT_EQ(*e, make_edge(3, 20)) << "internal edge leaked into boundary";
    }
  }
  EXPECT_GE(hits, 3);
}

TEST(GraphSketch, EmptyBoundaryReturnsNothing) {
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 9;
  VertexSketches vs(16, cfg);
  vs.update_edge(make_edge(0, 1), +1);
  const std::vector<VertexId> component{0, 1};
  for (unsigned b = 0; b < cfg.banks; ++b) {
    EXPECT_FALSE(vs.sample_boundary(b, component).has_value());
  }
}

TEST(GraphSketch, DeletionRemovesEdgeFromSupport) {
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 10;
  VertexSketches vs(16, cfg);
  vs.update_edge(make_edge(2, 9), +1);
  vs.update_edge(make_edge(2, 9), -1);
  const VertexId two = 2;
  for (unsigned b = 0; b < cfg.banks; ++b) {
    EXPECT_FALSE(
        vs.sample_boundary(b, std::span<const VertexId>(&two, 1)).has_value());
  }
}

TEST(GraphSketch, BoundarySamplesAreRealBoundaryEdges) {
  // Random graph, random vertex subset: every sampled edge must truly
  // cross the cut (validity is what connectivity relies on, Lemma 3.5).
  Rng rng(77);
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 8;
  cfg.seed = 11;
  VertexSketches vs(n, cfg);
  std::unordered_set<Edge, EdgeHash> edges;
  for (const Edge& e : gen::gnm(n, 300, rng)) {
    edges.insert(e);
    vs.update_edge(e, +1);
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<VertexId> a;
    std::set<VertexId> in_a;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.chance(0.3)) {
        a.push_back(v);
        in_a.insert(v);
      }
    }
    if (a.empty()) continue;
    for (unsigned b = 0; b < cfg.banks; ++b) {
      const auto e = vs.sample_boundary(b, a);
      if (!e) continue;
      EXPECT_TRUE(edges.count(*e)) << "sampled non-existent edge";
      EXPECT_NE(in_a.count(e->u), in_a.count(e->v))
          << "sampled edge does not cross the cut";
    }
  }
}

TEST(GraphSketch, MemoryIndependentOfEdgeCount) {
  // ~O(n) total memory: the sketch footprint is a function of n, not m.
  // Lazy level allocation gives a slowly-decaying log-m tail (rare deep
  // levels take their first hit late), but inserting the COMPLETE graph
  // (m = 24.5n) must stay within the nominal O(n log^2) budget and grow
  // far slower than m.
  Rng rng(78);
  const VertexId n = 48;
  GraphSketchConfig cfg;
  cfg.banks = 3;
  cfg.seed = 12;
  VertexSketches vs(n, cfg);
  const auto all = gen::complete_graph(n);
  std::uint64_t words_at_n = 0;
  std::size_t applied = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    vs.update_edge(all[i], +1);
    if (++applied == n) words_at_n = vs.allocated_words();
  }
  ASSERT_GT(words_at_n, 0u);
  // m grew ~24x past the first n edges; memory must grow by far less
  // (observed: ~3.4x from the deep-level allocation tail).
  EXPECT_LE(vs.allocated_words(), 4 * words_at_n)
      << "sketch memory tracked m";
  EXPECT_LE(vs.allocated_words(),
            static_cast<std::uint64_t>(n) * vs.nominal_words_per_vertex());
}

}  // namespace
}  // namespace streammpc
