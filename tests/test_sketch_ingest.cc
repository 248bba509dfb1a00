// Tests for the flat-arena batched ingest path (see DESIGN.md):
//   * batched update_edges == the same updates applied one-by-one;
//   * multi-threaded ingest is deterministic for any thread count;
//   * merged() scratch reuse returns identical samples;
//   * the fused group-sampling kernel (sample_boundaries / sample_boundary)
//     equals the materializing oracle, merged() + decode_sample(), with and
//     without the zero-sum complement;
//   * the whole engine is byte-identical to the frozen seed implementation
//     (legacy_sketch_ref.h) for a fixed seed;
//   * the closed-form depth_of matches the seed's linear scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/field.h"
#include "common/random.h"
#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "core/streaming_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "legacy_sketch_ref.h"
#include "mpc/cluster.h"
#include "sketch/arena.h"
#include "sketch/coord.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"
#include "sketch/onesparse.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::probe_sets;
using test::random_deltas;

TEST(BatchedIngest, BatchedEqualsSequential) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 6;
  cfg.seed = 2024;
  cfg.ingest_threads = 1;
  const auto deltas = random_deltas(n, 400, 1);

  VertexSketches one_by_one(n, cfg);
  for (const EdgeDelta& d : deltas) one_by_one.update_edge(d.e, d.delta);

  VertexSketches whole_batch(n, cfg);
  whole_batch.update_edges(deltas);

  VertexSketches chunked(n, cfg);
  for (std::size_t start = 0; start < deltas.size(); start += 37) {
    const std::size_t len = std::min<std::size_t>(37, deltas.size() - start);
    chunked.update_edges(std::span<const EdgeDelta>(&deltas[start], len));
  }

  const auto sets = probe_sets(n, 2);
  expect_identical_samples(one_by_one, whole_batch, cfg.banks, sets);
  expect_identical_samples(one_by_one, chunked, cfg.banks, sets);
  EXPECT_EQ(one_by_one.allocated_words(), whole_batch.allocated_words());
}

TEST(BatchedIngest, ZeroDeltaIsNoOp) {
  const VertexId n = 16;
  GraphSketchConfig cfg;
  cfg.banks = 3;
  cfg.seed = 5;
  VertexSketches vs(n, cfg);
  const std::vector<EdgeDelta> noop{{make_edge(1, 2), 0}};
  vs.update_edges(noop);
  EXPECT_EQ(vs.allocated_words(), 0u);
  const VertexId one = 1;
  EXPECT_FALSE(
      vs.sample_boundary(0, std::span<const VertexId>(&one, 1)).has_value());
}

TEST(BatchedIngest, ThreadCountInvariance) {
  const VertexId n = 128;
  const auto deltas = random_deltas(n, 600, 3);
  const auto sets = probe_sets(n, 4);
  GraphSketchConfig cfg;
  cfg.banks = 8;
  cfg.seed = 77;

  cfg.ingest_threads = 1;
  VertexSketches serial(n, cfg);
  serial.update_edges(deltas);

  for (const unsigned threads : {2u, 3u, 8u, 13u}) {
    cfg.ingest_threads = threads;
    VertexSketches parallel(n, cfg);
    parallel.update_edges(deltas);
    expect_identical_samples(serial, parallel, cfg.banks, sets);
    EXPECT_EQ(serial.allocated_words(), parallel.allocated_words())
        << threads << " threads";
  }
}

TEST(BatchedIngest, MergedScratchReuseMatchesFreshMerge) {
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 99;
  VertexSketches vs(n, cfg);
  vs.update_edges(random_deltas(n, 300, 9));

  L0Sampler scratch;  // reused across banks and sets on purpose
  for (unsigned bank = 0; bank < cfg.banks; ++bank) {
    for (const auto& set : probe_sets(n, 10 + bank)) {
      const std::span<const VertexId> span(set.data(), set.size());
      const L0Sampler fresh = vs.merged(bank, span);
      vs.merged_into(bank, span, scratch);
      EXPECT_EQ(fresh.sample(vs.params(bank)).has_value(),
                scratch.sample(vs.params(bank)).has_value());
      if (const auto r = fresh.sample(vs.params(bank))) {
        const auto s = scratch.sample(vs.params(bank));
        EXPECT_EQ(r->coord, s->coord);
        EXPECT_EQ(r->weight, s->weight);
      }
      EXPECT_EQ(vs.sample_boundary(bank, span),
                vs.decode_sample(bank, scratch));
    }
  }
}

TEST(BatchedIngest, ByteIdenticalToSeedImplementation) {
  // The acceptance bar for the flat-arena refactor: for a fixed seed the
  // new engine and the frozen seed implementation must agree on every
  // sample, across geometries, after a mixed insert/delete history.
  struct Case {
    VertexId n;
    unsigned banks;
    L0Shape shape;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{48, 4, {2, 8}, 101}, Case{96, 8, {1, 4}, 102},
                        Case{200, 6, {3, 16}, 103}}) {
    GraphSketchConfig cfg;
    cfg.banks = c.banks;
    cfg.shape = c.shape;
    cfg.seed = c.seed;
    cfg.ingest_threads = 2;  // also exercises the pool against legacy
    VertexSketches flat(c.n, cfg);
    legacy::LegacyVertexSketches nested(c.n, cfg);
    const auto deltas = random_deltas(c.n, 500, c.seed * 13);
    flat.update_edges(deltas);
    for (const EdgeDelta& d : deltas) nested.update_edge(d.e, d.delta);
    expect_identical_samples(flat, nested, c.banks, probe_sets(c.n, c.seed));
  }
}

mpc::Cluster make_cluster(VertexId n, std::uint64_t machines) {
  return test::make_cluster(n, machines);
}

TEST(RoutedIngest, ByteIdenticalToFlatAcrossMachineCounts) {
  // Acceptance bar for the routing layer: splitting a batch into
  // per-machine sub-batches must not change the sketches at all — routing
  // is an accounting transform, and the linear cells make the per-endpoint
  // application order irrelevant.
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 6;
  cfg.seed = 4242;
  const auto deltas = random_deltas(n, 400, 17);
  const auto sets = probe_sets(n, 18);

  VertexSketches flat(n, cfg);
  flat.update_edges(deltas);

  for (const std::uint64_t machines : {1u, 4u, 16u}) {
    mpc::Cluster cluster = make_cluster(n, machines);
    mpc::RoutedBatch routed;
    VertexSketches via_router(n, cfg);
    // Chunked routing, as the streaming front ends deliver it.
    for (std::size_t start = 0; start < deltas.size(); start += 64) {
      const std::size_t len = std::min<std::size_t>(64, deltas.size() - start);
      cluster.route_batch(
          std::span<const EdgeDelta>(&deltas[start], len), n, routed);
      cluster.charge_routed(routed, "test/ingest");
      via_router.update_edges(routed);
    }
    expect_identical_samples(flat, via_router, cfg.banks, sets);
    EXPECT_EQ(flat.allocated_words(), via_router.allocated_words())
        << machines << " machines";
    // Accounting invariant: ledger totals equal the per-machine sums.
    const mpc::CommLedger& ledger = cluster.comm_ledger();
    EXPECT_EQ(ledger.rounds(), (deltas.size() + 63) / 64);
    std::uint64_t per_machine = 0;
    for (std::uint64_t m = 0; m < machines; ++m)
      per_machine += ledger.machine_words(m);
    EXPECT_EQ(per_machine, ledger.total_words());
    EXPECT_GE(ledger.total_words(),
              mpc::RoutedBatch::kWordsPerDelta * deltas.size());
    EXPECT_LE(ledger.total_words(),
              2 * mpc::RoutedBatch::kWordsPerDelta * deltas.size());
    if (machines == 1) {
      // One machine hosts everything: exactly one delivery per delta.
      EXPECT_EQ(ledger.total_words(),
                mpc::RoutedBatch::kWordsPerDelta * deltas.size());
    }
  }
}

// The materializing oracle of the fused sampling kernel: every level of
// the group merged into one sampler, then L0Sampler::sample.
std::optional<Edge> oracle_sample(const VertexSketches& vs, unsigned bank,
                                  std::span<const VertexId> group) {
  return vs.decode_sample(bank, vs.merged(bank, group));
}

// CSR layout of a list of groups, plus their classes when given.
struct GroupLayout {
  std::vector<VertexId> members;
  std::vector<std::uint32_t> offsets{0};

  void add(std::span<const VertexId> group) {
    members.insert(members.end(), group.begin(), group.end());
    offsets.push_back(static_cast<std::uint32_t>(members.size()));
  }
  std::span<const VertexId> group(std::size_t g) const {
    return std::span<const VertexId>(members).subspan(
        offsets[g], offsets[g + 1] - offsets[g]);
  }
  std::size_t groups() const { return offsets.size() - 1; }
};

// Class-free (and, when `classes` is non-empty, class-aware) samples of
// every group in every bank equal the materializing oracle.
void expect_groups_match_oracle(const VertexSketches& vs,
                                const GroupLayout& layout,
                                std::span<const std::uint32_t> classes) {
  std::vector<std::optional<Edge>> fused;
  std::vector<std::optional<Edge>> zero_sum;
  for (unsigned bank = 0; bank < vs.banks(); ++bank) {
    vs.sample_boundaries(bank, layout.members, layout.offsets, fused);
    ASSERT_EQ(fused.size(), layout.groups());
    if (!classes.empty()) {
      vs.sample_boundaries(bank, layout.members, layout.offsets, classes,
                           zero_sum);
      ASSERT_EQ(zero_sum.size(), layout.groups());
    }
    for (std::size_t g = 0; g < layout.groups(); ++g) {
      const auto expected = oracle_sample(vs, bank, layout.group(g));
      EXPECT_EQ(fused[g], expected) << "bank " << bank << " group " << g;
      if (!classes.empty()) {
        EXPECT_EQ(zero_sum[g], expected)
            << "class-aware, bank " << bank << " group " << g;
      }
    }
  }
}

TEST(GroupQueries, SampleBoundariesMatchesPerGroupQueries) {
  // The fused top-down kernel must answer exactly like the materializing
  // oracle (merged + decode_sample) per group, and sample_boundary — its
  // one-group case — likewise.
  const VertexId n = 128;
  GraphSketchConfig cfg;
  cfg.banks = 5;
  cfg.seed = 77177;
  VertexSketches vs(n, cfg);
  vs.update_edges(random_deltas(n, 500, 23));

  Rng rng(24);
  // Random partition of [0, n) into ~8 groups, CSR layout.
  std::vector<std::vector<VertexId>> groups(8);
  for (VertexId v = 0; v < n; ++v) groups[rng.below(groups.size())].push_back(v);
  GroupLayout layout;
  for (const auto& g : groups) layout.add(g);

  std::vector<L0Sampler> unread;  // the scratch overload must not touch it
  std::vector<std::optional<Edge>> batched;
  std::vector<std::optional<Edge>> via_scratch_overload;
  for (unsigned bank = 0; bank < cfg.banks; ++bank) {
    vs.sample_boundaries(bank, layout.members, layout.offsets, batched);
    vs.sample_boundaries(bank, layout.members, layout.offsets, unread,
                         via_scratch_overload);
    ASSERT_EQ(batched.size(), groups.size());
    EXPECT_EQ(via_scratch_overload, batched);
    EXPECT_TRUE(unread.empty());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::span<const VertexId> span(groups[g].data(), groups[g].size());
      const auto expected = oracle_sample(vs, bank, span);
      EXPECT_EQ(batched[g], expected) << "bank " << bank << " group " << g;
      EXPECT_EQ(vs.sample_boundary(bank, span), expected)
          << "bank " << bank << " group " << g;
    }
  }
  // Singletons (one AGM Boruvka level) as well.
  GroupLayout singletons;
  for (VertexId v = 0; v < n; ++v) singletons.add(std::span(&v, 1));
  expect_groups_match_oracle(vs, singletons, {});
}

TEST(GroupQueries, ZeroSumComplementMatchesClassFree) {
  // The class-aware call never walks each class's largest group: its level
  // cells are the negated level sums of its class-mates.  When every class
  // covers whole components, every group's sample — class-free and
  // class-aware — must equal the materializing oracle, and the linearity
  // identity behind the complement must hold cell for cell on the
  // materialized samplers.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    Rng rng(9100 + trial);
    const VertexId n = 160;
    // Random components; the last two vertices are isolated singletons.
    const std::uint32_t comps = 3 + static_cast<std::uint32_t>(rng.below(4));
    std::vector<std::vector<VertexId>> comp_vertices(comps + 2);
    for (VertexId v = 0; v + 2 < n; ++v)
      comp_vertices[rng.below(comps)].push_back(v);
    comp_vertices[comps].push_back(n - 2);
    comp_vertices[comps + 1].push_back(n - 1);
    if (comp_vertices[0].size() % 2 != 0) {  // component 0 splits evenly
      comp_vertices[1].push_back(comp_vertices[0].back());
      comp_vertices[0].pop_back();
    }

    // Edges only inside components, with deletes mixed in.
    std::vector<EdgeDelta> deltas;
    std::vector<Edge> live;
    while (deltas.size() < 700) {
      if (!live.empty() && rng.chance(0.3)) {
        const std::size_t i = rng.below(live.size());
        deltas.push_back(EdgeDelta{live[i], -1});
        live[i] = live.back();
        live.pop_back();
        continue;
      }
      const auto& cv = comp_vertices[rng.below(comps)];
      if (cv.size() < 2) continue;
      const VertexId a = cv[rng.below(cv.size())];
      const VertexId b = cv[rng.below(cv.size())];
      if (a == b) continue;
      deltas.push_back(EdgeDelta{make_edge(a, b), +1});
      live.push_back(make_edge(a, b));
    }
    GraphSketchConfig cfg;
    cfg.banks = 6;
    cfg.seed = 9200 + trial;
    VertexSketches vs(n, cfg);
    vs.update_edges(deltas);

    // Fragment groups: component 0 in two equal halves (a size tie),
    // component 1 whole (a one-group class with edges), the singletons
    // whole, every other component in 1..4 random groups.
    struct Group {
      std::uint32_t cls;
      std::vector<VertexId> members;
    };
    std::vector<Group> groups;
    for (std::uint32_t c = 0; c < comp_vertices.size(); ++c) {
      const auto& cv = comp_vertices[c];
      if (cv.empty()) continue;
      std::size_t parts = c == 0 ? 2 : 1;
      if (c >= 2 && c < comps) parts = 1 + rng.below(4);
      std::vector<Group> split(parts, Group{c, {}});
      for (std::size_t i = 0; i < cv.size(); ++i) {
        split[c == 0 ? 2 * i / cv.size() : rng.below(parts)].members.push_back(
            cv[i]);
      }
      for (Group& g : split)
        if (!g.members.empty()) groups.push_back(std::move(g));
    }
    shuffle(groups, rng);
    GroupLayout layout;
    std::vector<std::uint32_t> classes;
    for (const Group& g : groups) {
      layout.add(g.members);
      classes.push_back(g.cls);
    }

    expect_groups_match_oracle(vs, layout, classes);

    // Linearity: within a class, each group's materialized cells equal the
    // negated sum of its class-mates' (OneSparseCell::subtract), so the
    // complement buffer the kernel builds is that group's exact merge.
    for (unsigned bank = 0; bank < cfg.banks; ++bank) {
      std::vector<L0Sampler> merged;
      for (std::size_t g = 0; g < layout.groups(); ++g)
        merged.push_back(vs.merged(bank, layout.group(g)));
      for (std::size_t g = 0; g < layout.groups(); ++g) {
        const auto cells = merged[g].cells();
        std::vector<OneSparseCell> negated(cells.size());
        for (std::size_t h = 0; h < layout.groups(); ++h) {
          if (h == g || classes[h] != classes[g]) continue;
          const auto mate = merged[h].cells();
          ASSERT_EQ(mate.size(), cells.size());
          for (std::size_t c = 0; c < cells.size(); ++c)
            negated[c].subtract(mate[c]);
        }
        EXPECT_TRUE(std::equal(cells.begin(), cells.end(), negated.begin()))
            << "bank " << bank << " group " << g;
      }
    }
  }
}

TEST(GroupQueries, AdversarialGroupsMatchMaterializingOracle) {
  // Cases the top-down walk could get wrong if it retired a group early,
  // skipped a level wrongly or mis-built a complement: a group whose
  // sparsest populated level holds only an internal (cancelling) edge,
  // untouched vertices, an empty group, a one-group class and a
  // complement size tie.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 4711;
  VertexSketches vs(n, cfg);
  const auto depth = [&](VertexId x, VertexId y) {
    return vs.params(0).depth_of(vs.codec().encode(make_edge(x, y)));
  };
  // Component A = [0, 16): {a, b} is its deepest pair in bank 0, and every
  // other edge at a or b is strictly shallower, so the group {a, b} holds
  // only the cancelling edge {a, b} at its sparsest populated level.
  constexpr VertexId kA = 16;
  VertexId a = 0;
  VertexId b = 1;
  for (VertexId x = 0; x < kA; ++x) {
    for (VertexId y = x + 1; y < kA; ++y) {
      if (depth(x, y) > depth(a, b)) {
        a = x;
        b = y;
      }
    }
  }
  const unsigned top = depth(a, b);
  std::vector<EdgeDelta> deltas{{make_edge(a, b), +1}};
  Rng rng(4712);
  for (VertexId x = 0; x < kA; ++x) {
    for (VertexId y = x + 1; y < kA; ++y) {
      if (make_edge(x, y) == make_edge(a, b)) continue;
      const bool at_pair = x == a || x == b || y == a || y == b;
      if (at_pair ? depth(x, y) < top : rng.chance(0.3))
        deltas.push_back({make_edge(x, y), +1});
    }
  }
  // Component B = [16, 24): a path, plus an edge inserted and deleted.
  for (VertexId v = 16; v + 1 < 24; ++v) deltas.push_back({make_edge(v, v + 1), +1});
  deltas.push_back({make_edge(16, 23), +1});
  deltas.push_back({make_edge(16, 23), -1});
  // [24, 64) stays untouched.
  vs.update_edges(deltas);

  // The setup really is adversarial in bank 0: at level `top` the pair's
  // cells cancel to zero although each endpoint holds the edge there.
  const std::vector<VertexId> pair{a, b};
  const L0Sampler pair_merged = vs.merged(0, pair);
  const std::size_t cells = vs.params(0).cells_per_level();
  const auto top_cells = pair_merged.cells().subspan(top * cells, cells);
  EXPECT_TRUE(std::all_of(top_cells.begin(), top_cells.end(),
                          [](const OneSparseCell& c) { return c.is_zero(); }));
  EXPECT_FALSE(vs.arena(0).level_records(top, a).empty());
  const auto pair_sample = oracle_sample(vs, 0, pair);
  ASSERT_TRUE(pair_sample.has_value());
  EXPECT_NE(*pair_sample, make_edge(a, b));

  // Groups, with dense class ids (each class a union of whole components;
  // an untouched vertex is a component of its own):
  //   class 0: {a, b}, and the two 7-vertex halves of A \ {a, b}, each
  //            padded with one untouched vertex (a complement size tie);
  //   class 1: B whole (a one-group class with edges);
  //   class 2: untouched {40..47} whole (a one-group class, all zero);
  //   class 3: an empty group, untouched {48, 49} and untouched {50}.
  GroupLayout layout;
  std::vector<std::uint32_t> classes;
  const auto add = [&](std::vector<VertexId> group, std::uint32_t cls) {
    layout.add(group);
    classes.push_back(cls);
  };
  std::vector<VertexId> half[2];
  for (VertexId v = 0; v < kA; ++v) {
    if (v == a || v == b) continue;
    half[half[0].size() < 7 ? 0 : 1].push_back(v);
  }
  half[0].push_back(60);
  half[1].push_back(61);
  add({}, 3);
  add(half[1], 0);
  add(pair, 0);
  add({16, 17, 18, 19, 20, 21, 22, 23}, 1);
  add({48, 49}, 3);
  add(half[0], 0);
  add({40, 41, 42, 43, 44, 45, 46, 47}, 2);
  add({50}, 3);
  expect_groups_match_oracle(vs, layout, classes);

  // Class-free singletons over every vertex, touched or not, and a layout
  // that opens with empty groups.
  GroupLayout singletons;
  singletons.add({});
  for (VertexId v = 0; v < n; ++v) singletons.add(std::span(&v, 1));
  singletons.add({});
  expect_groups_match_oracle(vs, singletons, {});
}

TEST(GroupQueries, OneSparseSubtractIsExactInverse) {
  EXPECT_EQ(Mersenne61::sub(0, 0), 0u);
  const std::uint64_t z = 0x1234567;
  OneSparseCell x;
  x.update(17, 3, z);
  x.update(40, -5, z);
  OneSparseCell y;
  y.update(9, 2, z);

  OneSparseCell neg;  // 0 - x
  neg.subtract(x);
  OneSparseCell sum = neg;
  sum.merge(x);  // x + (-x) is the canonical zero cell
  EXPECT_TRUE(sum.is_zero());
  EXPECT_EQ(sum, OneSparseCell{});
  OneSparseCell self = x;
  self.subtract(x);
  EXPECT_EQ(self, OneSparseCell{});
  OneSparseCell round_trip = x;
  round_trip.merge(y);
  round_trip.subtract(y);
  EXPECT_EQ(round_trip, x);
  OneSparseCell zero;  // 0 - 0 stays 0 (fp never becomes p)
  zero.subtract(OneSparseCell{});
  EXPECT_EQ(zero, OneSparseCell{});
}

TEST(StreamingIngest, RoutedStreamMatchesUnrouted) {
  // Attaching a cluster routes every flush per machine but must leave the
  // algorithm's behavior untouched (same sketch state => same cut queries
  // => same forest), while the ledger picks up the routed rounds.
  const VertexId n = 64;
  Rng rng(808);
  gen::ChurnOptions churn;
  churn.n = n;
  churn.initial_edges = 120;
  churn.num_batches = 8;
  churn.batch_size = 24;
  churn.delete_fraction = 0.4;
  const auto batches = gen::churn_stream(churn, rng);

  GraphSketchConfig cfg;
  cfg.seed = 809;
  mpc::Cluster cluster = make_cluster(n, 4);
  StreamingConnectivity plain(n, cfg);
  StreamingConnectivity routed(n, cfg, &cluster);
  for (const Batch& batch : batches) {
    const std::span<const Update> span(batch.data(), batch.size());
    plain.apply_stream(span);
    routed.apply_stream(span);
    ASSERT_EQ(plain.num_components(), routed.num_components());
    ASSERT_EQ(plain.spanning_forest(), routed.spanning_forest());
  }
  EXPECT_GT(cluster.comm_ledger().rounds(), 0u);
  EXPECT_GT(cluster.comm_ledger().total_words(), 0u);
  EXPECT_TRUE(cluster.ok()) << cluster.report();
}

TEST(RoutedIngest, CommLedgerReportsForDynamicAndAgmPaths) {
  // Acceptance: every tier-1 structure reports rounds / max-load / total
  // words through the ledger when driven through a cluster.
  const VertexId n = 256;
  Rng rng(909);
  const auto edges = gen::connected_gnm(n, 700, rng);
  const auto stream = gen::insert_stream(edges, rng);
  const auto batches = gen::into_batches(stream, 50);

  for (const std::uint64_t machines : {1u, 4u, 16u}) {
    mpc::Cluster dyn_cluster = make_cluster(n, machines);
    ConnectivityConfig dyn_cfg;
    dyn_cfg.sketch.banks = 8;
    dyn_cfg.sketch.seed = 910;
    DynamicConnectivity dc(n, dyn_cfg, &dyn_cluster);
    for (const auto& b : batches) dc.apply_batch(b);
    // One routed round per batch (insert-only stream).
    EXPECT_EQ(dyn_cluster.comm_ledger().rounds(), batches.size());
    EXPECT_GT(dyn_cluster.comm_ledger().max_machine_load(), 0u);
    std::uint64_t per_machine = 0;
    for (std::uint64_t m = 0; m < machines; ++m)
      per_machine += dyn_cluster.comm_ledger().machine_words(m);
    EXPECT_EQ(per_machine, dyn_cluster.comm_ledger().total_words());

    mpc::Cluster agm_cluster = make_cluster(n, machines);
    GraphSketchConfig agm_cfg;
    agm_cfg.banks = 8;
    agm_cfg.seed = 911;
    AgmStaticConnectivity agm(n, agm_cfg, &agm_cluster);
    for (const auto& b : batches) agm.apply_batch(b);
    EXPECT_EQ(agm_cluster.comm_ledger().rounds(), batches.size());
    per_machine = 0;
    for (std::uint64_t m = 0; m < machines; ++m)
      per_machine += agm_cluster.comm_ledger().machine_words(m);
    EXPECT_EQ(per_machine, agm_cluster.comm_ledger().total_words());
    // Same stream, same word model: the ingest bill is identical across
    // structures (it depends only on the routed deltas).
    EXPECT_EQ(agm_cluster.comm_ledger().total_words(),
              dyn_cluster.comm_ledger().total_words());
  }
}

TEST(DepthOf, ClosedFormMatchesLinearScan) {
  // The seed computed depth by scanning thresholds; the O(1) bit_width
  // form must agree everywhere, including the v = 0 and max-level edges.
  for (const std::uint64_t dim : {2ull, 57ull, 1ull << 12, (1ull << 31) + 7}) {
    L0Params params(dim, {2, 8}, dim * 31 + 5);
    // Reference reimplementation of the seed's loop over the same hash.
    PairwiseHash level_hash(SplitMix64(dim * 31 + 5).next());
    const auto reference = [&](Coord c) {
      const std::uint64_t range = 1ULL << params.levels();
      const std::uint64_t v = level_hash.bucket(c, range);
      unsigned depth = 0;
      std::uint64_t threshold = range >> 1;
      while (depth + 1 < params.levels() && v < threshold) {
        ++depth;
        threshold >>= 1;
      }
      return depth;
    };
    Rng rng(dim);
    for (int i = 0; i < 2000; ++i) {
      const Coord c = rng.below(dim);
      ASSERT_EQ(params.depth_of(c), reference(c)) << "dim " << dim;
    }
  }
}

TEST(StreamingIngest, ApplyStreamMatchesSingleUpdates) {
  // The buffered stream path must leave connectivity in exactly the state
  // single-update processing produces (same forest decisions, since every
  // cut query sees the same sketch prefix).
  const VertexId n = 64;
  Rng rng(555);
  gen::ChurnOptions churn;
  churn.n = n;
  churn.initial_edges = 150;
  churn.num_batches = 10;
  churn.batch_size = 20;
  churn.delete_fraction = 0.4;
  const auto batches = gen::churn_stream(churn, rng);

  GraphSketchConfig cfg;
  cfg.seed = 556;
  StreamingConnectivity single(n, cfg);
  StreamingConnectivity streamed(n, cfg);
  for (const Batch& batch : batches) {
    for (const Update& u : batch) single.apply(u);
    streamed.apply_stream(std::span<const Update>(batch.data(), batch.size()));
    ASSERT_EQ(single.num_components(), streamed.num_components());
    ASSERT_EQ(single.spanning_forest(), streamed.spanning_forest());
    for (VertexId v = 0; v < n; ++v)
      ASSERT_EQ(single.component_of(v), streamed.component_of(v));
  }
}

// --- cell-layout (AoS record) suite ----------------------------------------
// The arena packs each cell into one 32 B record (ISSUE 10); these tests pin
// the layout properties the hot path and the transaction machinery rely on.

TEST(CellLayout, RecordPackingMatchesCacheLineBudget) {
  // One record = exactly half a cache line, aligned so it never straddles
  // one.  The static_asserts in arena.h enforce this at compile time; the
  // runtime checks here keep the contract visible in the test log and pin
  // the field order the snapshot/rollback memcpy paths depend on.
  EXPECT_EQ(sizeof(ArenaCell), 32u);
  EXPECT_EQ(alignof(ArenaCell), 32u);
  EXPECT_EQ(offsetof(ArenaCell, w), 0u);
  EXPECT_EQ(offsetof(ArenaCell, s_lo), 8u);
  EXPECT_EQ(offsetof(ArenaCell, s_hi), 16u);
  EXPECT_EQ(offsetof(ArenaCell, fp), 24u);
}

TEST(CellLayout, SignedWideAccumulatorRoundTripsThroughHalves) {
  // The s accumulator is a signed __int128 split into two uint64_t halves;
  // deletion-heavy streams drive it negative, so two's-complement values
  // must survive the split/recombine exactly — including borrows across
  // the half boundary.
  const __int128 one = 1;
  const __int128 probes[] = {0,
                             1,
                             -1,
                             (one << 64) - 1,
                             -(one << 64),
                             (one << 64),
                             -((one << 100) + 12345),
                             (one << 126),
                             -(one << 126)};
  for (const __int128 v : probes) {
    ArenaCell cell;
    cell.set_s(v);
    EXPECT_EQ(cell.s(), v);
    EXPECT_EQ(cell.s() < 0, v < 0);
  }
  ArenaCell cell;
  const __int128 big = (one << 70) + 7;
  cell.add_delta(+1, big, 0);
  cell.add_delta(-2, -big - big - big, 0);  // crosses zero, borrows the half
  EXPECT_EQ(cell.s(), -(big + big));
  EXPECT_EQ(cell.w, -1);
  cell.add_delta(+1, big + big, 0);
  EXPECT_EQ(cell.s(), static_cast<__int128>(0));
  EXPECT_EQ(cell.s_lo, 0u);
  EXPECT_EQ(cell.s_hi, 0u);
}

TEST(CellLayout, RollbackRestoresRecordsByteExactly) {
  // Arena-level transaction under the AoS layout: snapshot, mutate (both
  // overwrites of snapshotted pages and first-touch allocations), roll
  // back, and require every level's record span to be byte-identical to a
  // twin arena that never saw the second batch.
  const VertexId n = 64;
  const EdgeCoordCodec codec(n);
  SplitMix64 sm(77);
  const L0Params params(codec.dimension(), L0Shape{2, 8}, sm.next());
  BankArena arena(n, params);
  BankArena twin(n, params);

  Rng rng(78);
  CoordPlan plan;
  const auto ingest = [&](BankArena& a, Edge e, std::int64_t delta) {
    const Coord c = codec.encode(e);
    params.plan_coord(c, delta, plan);
    a.apply(e.v, c, delta, plan, /*negated=*/false);
    a.apply(e.u, c, -delta, plan, /*negated=*/true);
  };
  const auto random_edge = [&] {
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    return make_edge(u, v);
  };

  std::vector<Edge> first, second;
  for (int i = 0; i < 40; ++i) first.push_back(random_edge());
  for (int i = 0; i < 40; ++i) second.push_back(random_edge());
  for (const Edge e : first) {
    ingest(arena, e, +1);
    ingest(twin, e, +1);
  }

  // Transaction contract (arena.h): snapshot every page the doomed batch
  // will touch BEFORE mutating anything, then mutate, then roll back.
  arena.snapshot_begin();
  const auto snapshot_edge = [&](Edge e, std::int64_t delta) {
    params.plan_coord(codec.encode(e), delta, plan);
    arena.snapshot_pages(e.v, plan.depth);
    arena.snapshot_pages(e.u, plan.depth);
  };
  for (const Edge e : second) snapshot_edge(e, +1);
  for (const Edge e : first) snapshot_edge(e, -1);
  for (const Edge e : second) ingest(arena, e, +1);
  for (const Edge e : first) ingest(arena, e, -1);  // drives s negative
  arena.rollback_pages();

  test::expect_identical_records(arena, twin, n);
}

}  // namespace
}  // namespace streammpc
