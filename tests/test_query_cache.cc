// Query-cache correctness suite (core/query_cache.h, ISSUE 7):
//   * snapshot answers equal the fresh oracle (adjacency component labels,
//     and for the AGM front end a fresh Boruvka run) across the full
//     matrix of flat ingest (no cluster) plus ExecMode {Routed, Simulated}
//     x machines {1, 4, 16}, for
//     insert-only and mixed (churn) streams, on all three connectivity
//     front ends — and the published labels/forest are byte-identical
//     across every cell of the matrix;
//   * the repair-vs-rebuild rule is observable in the stats: insert-only
//     batches repair (no Boruvka), any deletion invalidates and the next
//     snapshot rebuilds, repeated queries at one epoch hit;
//   * invalidation is driven by the mutation epoch bumped at the
//     update_edges choke point, so scheduler splits, fault retries, and
//     machine grows all invalidate — and a TransientFault rollback that
//     restores the sketch bytes exactly still leaves the cache stale
//     (never stale-valid);
//   * DynamicConnectivity::components() serves the deterministic
//     first-appearance group order from the snapshot CSR (pinned here) and
//     its second call is a cache hit;
//   * the bipartiteness and approximate-MSF layers publish consistent
//     snapshots of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bipartite/bipartiteness.h"
#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "core/query_cache.h"
#include "core/streaming_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "mpc/fault_injector.h"
#include "msf/approx_msf.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::insert_deltas;
using test::probe_sets;

GraphSketchConfig sketch_config(VertexId n, std::uint64_t seed) {
  GraphSketchConfig c;
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  c.banks = 2 * lg + 2;  // AGM w.h.p. regime: one bank per Boruvka level
  c.seed = seed;
  return c;
}

// The streams every matrix cell replays: an insert-only shuffled stream
// and a churn stream with deletions, batched.
std::vector<Batch> insert_only_stream(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  const auto edges = gen::gnm(n, 2 * static_cast<std::size_t>(n), rng);
  return gen::into_batches(gen::insert_stream(edges, rng), 24);
}

std::vector<Batch> mixed_stream(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 2 * static_cast<std::size_t>(n);
  opt.num_batches = 6;
  opt.batch_size = 24;
  opt.delete_fraction = 0.4;
  return gen::churn_stream(opt, rng);
}

// Full structural check of one snapshot against the adjacency oracle:
// canonical labels, component count, forest validity, and the
// first-appearance component CSR.
void expect_snapshot_matches(const QuerySnapshot& snap, const AdjGraph& ref,
                             const std::string& where) {
  ASSERT_EQ(snap.n(), ref.n()) << where;
  const auto oracle = component_labels(ref);
  for (VertexId v = 0; v < ref.n(); ++v) {
    ASSERT_EQ(snap.labels[v], oracle[v])
        << where << ": label mismatch at vertex " << v;
    EXPECT_EQ(snap.component_of(v), oracle[v]) << where;
  }
  EXPECT_EQ(snap.components(), num_components(ref)) << where;
  // The forest is a cycle-free set of live edges spanning the components.
  Dsu dsu(ref.n());
  EXPECT_TRUE(std::is_sorted(snap.forest.begin(), snap.forest.end())) << where;
  for (const Edge& e : snap.forest) {
    EXPECT_TRUE(ref.has_edge(e.u, e.v))
        << where << ": forest edge {" << e.u << "," << e.v << "} not live";
    EXPECT_TRUE(dsu.unite(e.u, e.v)) << where << ": forest has a cycle";
  }
  EXPECT_EQ(dsu.num_sets(), num_components(ref)) << where;
  // CSR: groups in first-appearance (= ascending min-vertex) order, every
  // member carrying its group's label, members ascending, sizes summing
  // to n.
  ASSERT_EQ(snap.comp_offsets.size(), snap.components() + 1) << where;
  ASSERT_EQ(snap.comp_labels.size(), snap.components()) << where;
  EXPECT_TRUE(
      std::is_sorted(snap.comp_labels.begin(), snap.comp_labels.end()))
      << where;
  EXPECT_EQ(snap.comp_members.size(), static_cast<std::size_t>(snap.n()))
      << where;
  for (std::size_t g = 0; g < snap.components(); ++g) {
    const auto members = snap.component(g);
    ASSERT_FALSE(members.empty()) << where;
    EXPECT_EQ(members.front(), snap.comp_labels[g]) << where;
    for (const VertexId v : members)
      EXPECT_EQ(snap.labels[v], snap.comp_labels[g]) << where;
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end())) << where;
  }
}

struct MatrixCell {
  mpc::ExecMode mode;
  std::uint64_t machines;  // 0 = no cluster attached: flat ingest
  const char* name;
};

constexpr MatrixCell kMatrix[] = {
    {mpc::ExecMode::kRouted, 0, "flat"},
    {mpc::ExecMode::kRouted, 1, "routed/m1"},
    {mpc::ExecMode::kRouted, 4, "routed/m4"},
    {mpc::ExecMode::kRouted, 16, "routed/m16"},
    {mpc::ExecMode::kSimulated, 1, "sim/m1"},
    {mpc::ExecMode::kSimulated, 4, "sim/m4"},
    {mpc::ExecMode::kSimulated, 16, "sim/m16"},
};

// --- oracle matrix: DynamicConnectivity --------------------------------------

TEST(QueryCacheOracle, DynamicConnectivityMatrixMatchesOracleByteIdentically) {
  const VertexId n = 48;
  for (const bool with_deletes : {false, true}) {
    const auto stream =
        with_deletes ? mixed_stream(n, 7102) : insert_only_stream(n, 7101);
    // Per-batch reference answers captured from the first matrix cell;
    // every other cell must reproduce them byte for byte.
    std::vector<std::vector<VertexId>> ref_labels;
    std::vector<std::vector<Edge>> ref_forests;
    for (const MatrixCell& cell : kMatrix) {
      const std::string where = std::string("dynamic/") + cell.name +
                                (with_deletes ? "/mixed" : "/insert-only");
      mpc::Cluster cluster = test::make_cluster(n, cell.machines);
      ConnectivityConfig cc;
      cc.sketch = sketch_config(n, 7100);
      cc.exec_mode = cell.mode;
      DynamicConnectivity dc(n, cc, cell.machines == 0 ? nullptr : &cluster);
      AdjGraph ref(n);
      const bool first = ref_labels.empty();
      for (std::size_t b = 0; b < stream.size(); ++b) {
        dc.apply_batch(stream[b]);
        ref.apply(stream[b]);
        const auto snap = dc.snapshot();
        ASSERT_NE(snap, nullptr);
        expect_snapshot_matches(*snap, ref, where);
        if (first) {
          ref_labels.push_back(snap->labels);
          ref_forests.push_back(snap->forest);
        } else {
          EXPECT_EQ(snap->labels, ref_labels[b]) << where << " batch " << b;
          EXPECT_EQ(snap->forest, ref_forests[b]) << where << " batch " << b;
        }
      }
      if (!with_deletes) {
        // Insert-only: after the first publish, every refresh is a repair.
        EXPECT_GT(dc.query_cache().stats().repairs, 0u) << where;
        EXPECT_EQ(dc.query_cache().stats().rebuilds, 1u) << where;
      } else {
        EXPECT_GT(dc.query_cache().stats().rebuilds, 1u) << where;
        EXPECT_GT(dc.query_cache().stats().invalidations, 0u) << where;
      }
    }
  }
}

// --- oracle matrix: AGM static baseline --------------------------------------

TEST(QueryCacheOracle, AgmSnapshotMatchesFreshBoruvkaAcrossMatrix) {
  const VertexId n = 48;
  for (const bool with_deletes : {false, true}) {
    const auto stream =
        with_deletes ? mixed_stream(n, 7202) : insert_only_stream(n, 7201);
    std::vector<std::vector<VertexId>> ref_labels;
    std::vector<std::vector<Edge>> ref_forests;
    for (const MatrixCell& cell : kMatrix) {
      const std::string where = std::string("agm/") + cell.name +
                                (with_deletes ? "/mixed" : "/insert-only");
      mpc::Cluster cluster = test::make_cluster(n, cell.machines);
      AgmStaticConnectivity agm(n, sketch_config(n, 7200),
                                cell.machines == 0 ? nullptr : &cluster,
                                cell.mode);
      AdjGraph ref(n);
      const bool first = ref_labels.empty();
      for (std::size_t b = 0; b < stream.size(); ++b) {
        agm.apply_batch(stream[b]);
        ref.apply(stream[b]);
        const auto snap = agm.snapshot();
        ASSERT_NE(snap, nullptr);
        expect_snapshot_matches(*snap, ref, where);
        // The serve-path point queries agree with the fresh-Boruvka oracle.
        const auto fresh = agm.query_spanning_forest();
        EXPECT_EQ(snap->components(), fresh.components)
            << where << " batch " << b;
        EXPECT_TRUE(agm.connected(0, 1) == (snap->labels[0] == snap->labels[1]))
            << where;
        if (first) {
          ref_labels.push_back(snap->labels);
          ref_forests.push_back(snap->forest);
        } else {
          EXPECT_EQ(snap->labels, ref_labels[b]) << where << " batch " << b;
          EXPECT_EQ(snap->forest, ref_forests[b]) << where << " batch " << b;
        }
      }
      if (!with_deletes) {
        EXPECT_GT(agm.query_cache().stats().repairs, 0u) << where;
        EXPECT_EQ(agm.query_cache().stats().rebuilds, 1u) << where;
      } else {
        EXPECT_GT(agm.query_cache().stats().invalidations, 0u) << where;
      }
    }
  }
}

// --- oracle matrix: sequential streaming algorithm ---------------------------

TEST(QueryCacheOracle, StreamingSnapshotMatchesMaintainedStateAcrossMatrix) {
  const VertexId n = 48;
  for (const bool with_deletes : {false, true}) {
    const auto stream =
        with_deletes ? mixed_stream(n, 7302) : insert_only_stream(n, 7301);
    for (const MatrixCell& cell : kMatrix) {
      const std::string where = std::string("streaming/") + cell.name +
                                (with_deletes ? "/mixed" : "/insert-only");
      mpc::Cluster cluster = test::make_cluster(n, cell.machines);
      StreamingConnectivity sc(n, sketch_config(n, 7300),
                               cell.machines == 0 ? nullptr : &cluster,
                               cell.mode);
      AdjGraph ref(n);
      for (const Batch& batch : stream) {
        sc.apply_stream(batch);
        ref.apply(batch);
        const auto snap = sc.snapshot();
        ASSERT_NE(snap, nullptr);
        expect_snapshot_matches(*snap, ref, where);
        // The snapshot mirrors the maintained state exactly.
        EXPECT_EQ(snap->labels, sc.labels()) << where;
        EXPECT_EQ(snap->forest, sc.spanning_forest()) << where;
        EXPECT_EQ(snap->components(), sc.num_components()) << where;
      }
      if (!with_deletes)
        EXPECT_EQ(sc.query_cache().stats().rebuilds, 1u) << where;
    }
  }
}

// --- repair-vs-rebuild and hit accounting ------------------------------------

TEST(QueryCacheStats, HitRepairRebuildLifecycle) {
  const VertexId n = 32;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 7401);
  DynamicConnectivity dc(n, cc);

  // First query: rebuild (nothing published yet).
  const auto s0 = dc.snapshot();
  EXPECT_EQ(dc.query_cache().stats().rebuilds, 1u);
  EXPECT_EQ(s0->version, 1u);

  // Same epoch: pure hit, same snapshot object.
  const auto s0b = dc.snapshot();
  EXPECT_EQ(s0b.get(), s0.get());
  EXPECT_EQ(dc.query_cache().stats().hits, 1u);

  // Insert-only batch: repair, not rebuild; version advances.
  dc.apply_batch({insert_of(0, 1), insert_of(1, 2), insert_of(4, 5)});
  const auto s1 = dc.snapshot();
  EXPECT_EQ(dc.query_cache().stats().repairs, 1u);
  EXPECT_EQ(dc.query_cache().stats().rebuilds, 1u);
  EXPECT_GT(s1->version, s0->version);
  EXPECT_TRUE(s1->connected(0, 2));
  EXPECT_FALSE(s1->connected(0, 4));
  // The pre-update snapshot is still readable and unchanged (immutable).
  EXPECT_FALSE(s0->connected(0, 2));

  // A deletion invalidates and forces a rebuild at the next query.
  dc.apply_batch({erase_of(1, 2)});
  EXPECT_GT(dc.query_cache().stats().invalidations, 0u);
  const auto s2 = dc.snapshot();
  EXPECT_EQ(dc.query_cache().stats().rebuilds, 2u);
  EXPECT_FALSE(s2->connected(0, 2));
  EXPECT_TRUE(s2->connected(0, 1));

  // After the rebuild, insert-only batches repair again.
  dc.apply_batch({insert_of(2, 3)});
  dc.snapshot();
  EXPECT_EQ(dc.query_cache().stats().repairs, 2u);
}

TEST(QueryCacheStats, AllCancellingBatchKeepsSnapshotValid) {
  const VertexId n = 16;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 7402);
  DynamicConnectivity dc(n, cc);
  dc.apply_batch({insert_of(0, 1)});
  const auto s1 = dc.snapshot();
  // Insert+delete of one edge in a single batch cancels to nothing: no
  // ingest, no epoch bump, no state change — the snapshot stays valid.
  dc.apply_batch({insert_of(8, 9), erase_of(8, 9)});
  const auto s2 = dc.snapshot();
  EXPECT_EQ(s2.get(), s1.get());
  EXPECT_GT(dc.query_cache().stats().hits, 0u);
}

// --- epoch bumps at the update_edges choke point ----------------------------

TEST(QueryCacheInvalidation, EveryIngestPathBumpsTheMutationEpoch) {
  const VertexId n = 32;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 7501;
  const auto deltas = test::random_deltas(n, 40, 7502);

  // Flat ingest: one bump per delivered batch, none for empty batches.
  VertexSketches flat(n, cfg);
  EXPECT_EQ(flat.mutation_epoch(), 0u);
  flat.update_edges(std::span<const EdgeDelta>(deltas).first(10));
  EXPECT_EQ(flat.mutation_epoch(), 1u);
  flat.update_edges(std::span<const EdgeDelta>());
  EXPECT_EQ(flat.mutation_epoch(), 1u);
  flat.update_edges(std::span<const EdgeDelta>(deltas).subspan(10));
  EXPECT_EQ(flat.mutation_epoch(), 2u);

  // Routed ingest bumps identically.
  mpc::Cluster cluster = test::make_cluster(n, 4);
  VertexSketches routed_vs(n, cfg);
  mpc::RoutedBatch routed;
  cluster.route_batch(deltas, n, routed);
  routed_vs.update_edges(routed);
  EXPECT_EQ(routed_vs.mutation_epoch(), 1u);
}

TEST(QueryCacheInvalidation, SchedulerSplitsBumpEpochPerDelivery) {
  // A budget so tight the scheduler must split: the epoch advances once
  // per delivered leaf, so a cache keyed at any earlier epoch is stale.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 7601;
  const auto deltas = test::random_deltas(n, 160, 7602);

  mpc::Cluster cluster = test::make_cluster(n, 4);
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.grow = mpc::GrowPolicy::kNone;
  // Probe under an impossible 1-word budget so the report always carries
  // the first machine's full-batch claim.
  mpc::Simulator probe_sim(cluster, 1);
  VertexSketches probe_vs(n, cfg);
  mpc::RoutedBatch routed;
  cluster.route_batch(deltas, n, routed);
  const auto report = probe_sim.probe(routed, probe_vs);
  ASSERT_FALSE(report.fits);
  // Budget one word below that claim: the first scheduler probe overflows
  // (fixably — a single delta still fits) and it must split at least once.
  const std::uint64_t claim = report.needed_words;
  ASSERT_GT(claim - 1, report.min_leaf_words);
  mpc::Cluster run_cluster = test::make_cluster(n, 4);
  mpc::Simulator sim(run_cluster, claim - 1, sc);
  VertexSketches vs(n, test::with_threads(cfg, 1));

  QueryCache cache;
  std::vector<VertexId> singleton_labels(n);
  for (VertexId v = 0; v < n; ++v) singleton_labels[v] = v;
  cache.publish(vs.mutation_epoch(), singleton_labels, {});
  ASSERT_TRUE(cache.valid(vs.mutation_epoch()));

  sim.execute(deltas, n, "split-epoch", vs);
  EXPECT_GT(sim.stats().scheduler_splits, 0u);
  // One bump per leaf delivery: strictly more than one for a split batch.
  EXPECT_EQ(vs.mutation_epoch(), sim.stats().subbatches);
  EXPECT_GT(vs.mutation_epoch(), 1u);
  EXPECT_FALSE(cache.valid(vs.mutation_epoch()));
}

TEST(QueryCacheInvalidation, RollbackRestoresBytesButNeverLeavesStaleValidCache) {
  // The acceptance scenario: a TransientFault rolls the batch back to the
  // exact pre-batch bytes — indistinguishable by sampling — yet the cache
  // keyed on the pre-batch epoch must read as stale, because rollback
  // itself is a mutation event.
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 7701;
  const auto deltas = test::random_deltas(n, 120, 7702);
  const auto sets = probe_sets(n, 7703);
  const std::span<const EdgeDelta> all(deltas);
  const auto batch1 = all.first(60);
  const auto batch2 = all.subspan(60);

  VertexSketches after1(n, cfg);
  after1.update_edges(batch1);

  mpc::FaultInjector injector;
  injector.add_cell_fault(16 + 5);  // inside batch 2's step window
  mpc::Cluster cluster = test::make_cluster(n, machines);
  mpc::Simulator sim(cluster);
  sim.attach_fault_injector(&injector);
  VertexSketches vs(n, test::with_threads(cfg, 2));
  mpc::RoutedBatch routed;
  cluster.route_batch(batch1, n, routed);
  sim.execute(routed, "phase-1", vs);

  QueryCache cache;
  std::vector<VertexId> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = v;
  const std::uint64_t epoch1 = vs.mutation_epoch();
  cache.publish(epoch1, labels, {});
  ASSERT_TRUE(cache.valid(epoch1));

  cluster.route_batch(batch2, n, routed);
  EXPECT_THROW(sim.execute(routed, "phase-2", vs), mpc::TransientFault);
  ASSERT_EQ(sim.stats().rollbacks, 1u);
  // Bytes are exactly the batch-1 state again...
  test::expect_identical_samples(after1, vs, cfg.banks, sets);
  // ...but the epoch moved (attempt + rollback), so the cache is stale.
  EXPECT_GT(vs.mutation_epoch(), epoch1);
  EXPECT_FALSE(cache.valid(vs.mutation_epoch()));
  EXPECT_EQ(cache.acquire(vs.mutation_epoch()), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(QueryCacheInvalidation, MachineGrowKeepsEpochMonotoneAndCacheStale) {
  // GrowPolicy::kDouble migrates the resident shards to a wider cluster;
  // the redelivered batches bump the epoch like any other delivery.
  const VertexId n = 128;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 7801;
  const auto inserts = insert_deltas(gen::star_graph(n));

  // Budget between the final resident shard at 2P and at P machines (the
  // MachineGrowing scenario of test_mpc_fault.cc).
  const auto resident_at = [&](std::uint64_t m) {
    mpc::Cluster c = test::make_cluster(n, m);
    VertexSketches probe(n, cfg);
    probe.update_edges(inserts);
    std::uint64_t max_resident = 0;
    for (std::uint64_t i = 0; i < m; ++i)
      max_resident = std::max(max_resident, probe.resident_words(i, c));
    return max_resident;
  };
  const std::uint64_t budget =
      resident_at(2 * machines) + 16 * mpc::RoutedBatch::kWordsPerDelta;
  ASSERT_GT(resident_at(machines), budget);

  mpc::Cluster cluster = test::make_cluster(n, machines);
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.grow = mpc::GrowPolicy::kDouble;
  mpc::Simulator sim(cluster, budget, sc);
  VertexSketches vs(n, test::with_threads(cfg, 1));

  QueryCache cache;
  std::vector<VertexId> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = v;
  cache.publish(vs.mutation_epoch(), labels, {});

  std::uint64_t last_epoch = vs.mutation_epoch();
  for (std::size_t start = 0; start < inserts.size(); start += 8) {
    const std::size_t len = std::min<std::size_t>(8, inserts.size() - start);
    sim.execute(std::span<const EdgeDelta>(inserts).subspan(start, len), n,
                "grow-epoch", vs);
    EXPECT_GT(vs.mutation_epoch(), last_epoch);  // monotone across grows
    last_epoch = vs.mutation_epoch();
  }
  EXPECT_GT(sim.stats().grows, 0u);
  EXPECT_FALSE(cache.valid(vs.mutation_epoch()));
}

TEST(QueryCacheInvalidation, FrontEndRecoversThroughFaultsWithCorrectAnswers) {
  // End-to-end: a DynamicConnectivity in simulated mode with an attached
  // fault plan; the scheduler retries through the faults under every split
  // policy (the default kNone included) and every post-batch snapshot
  // still matches the oracle.
  const VertexId n = 48;
  for (const auto policy :
       {mpc::SplitPolicy::kNone, mpc::SplitPolicy::kProportional}) {
    SCOPED_TRACE(::testing::Message()
                 << "policy=" << static_cast<int>(policy));
    mpc::FaultInjector injector;
    injector.add_cell_fault(3);
    injector.add_cell_fault(40);
    mpc::Cluster cluster = test::make_cluster(n, 4);
    ConnectivityConfig cc;
    cc.sketch = sketch_config(n, 7901);
    cc.exec_mode = mpc::ExecMode::kSimulated;
    cc.scheduler.policy = policy;
    cc.scheduler.grow = mpc::GrowPolicy::kNone;
    cc.fault_injector = &injector;
    DynamicConnectivity dc(n, cc, &cluster);
    AdjGraph ref(n);
    for (const Batch& batch : mixed_stream(n, 7902)) {
      dc.apply_batch(batch);
      ref.apply(batch);
      const auto snap = dc.snapshot();
      expect_snapshot_matches(*snap, ref, "fault-recovery");
    }
    EXPECT_EQ(injector.stats().cell_faults_fired, 2u);
    EXPECT_GT(dc.simulator()->stats().retries, 0u);
  }
}

// --- components(): pinned first-appearance order + cache hit -----------------

TEST(QueryCacheComponents, FirstAppearanceGroupOrderIsPinnedAndCached) {
  const VertexId n = 8;
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 8001);
  DynamicConnectivity dc(n, cc);
  dc.apply_batch({insert_of(3, 7), insert_of(0, 5)});

  // Deterministic first-appearance order scanning v = 0..n-1: group 0
  // opens at vertex 0 (label 0), then 1, 2, 3 (holding 7), 4, 6.
  const std::vector<std::vector<VertexId>> expected = {
      {0, 5}, {1}, {2}, {3, 7}, {4}, {6}};
  EXPECT_EQ(dc.components(), expected);

  // The regroup ran once; a second call serves the snapshot CSR.
  const auto hits_before = dc.query_cache().stats().hits;
  EXPECT_EQ(dc.components(), expected);
  EXPECT_GT(dc.query_cache().stats().hits, hits_before);
}

// --- AGM repair-buffer cap and the ingest/note seam (ISSUE 8) ----------------

TEST(QueryCacheAgmSeams, InsertBufferCapForcesRebuildNeverTruncatedRepair) {
  // The AGM front end buffers EVERY insert as a candidate repair edge,
  // capped at ~8n (past that the buffer rivals the sketches and memory
  // would stop being O(n)).  Hitting the cap must flip the structure to
  // rebuild-on-next-query: repairing from a truncated list would silently
  // drop the overflowed edges from the served labels.
  const VertexId n = 24;  // cap = 8n + 64 = 256 < C(24,2) = 276 edges
  const std::size_t cap = 8 * static_cast<std::size_t>(n) + 64;
  AgmStaticConnectivity agm(n, sketch_config(n, 8801));
  agm.snapshot();  // publish the all-singletons snapshot (rebuild #1)
  ASSERT_EQ(agm.query_cache().stats().rebuilds, 1u);

  Batch all_edges;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) all_edges.push_back(insert_of(u, v));
  ASSERT_GT(all_edges.size(), cap);
  agm.apply_batch(all_edges);

  const auto snap = agm.snapshot();
  // Past the cap: a rebuild, not a repair from the truncated buffer.
  EXPECT_EQ(agm.query_cache().stats().rebuilds, 2u);
  EXPECT_EQ(agm.query_cache().stats().repairs, 0u);
  // The served snapshot reflects the FULL insert set (one component), not
  // whatever prefix fit in the buffer.
  EXPECT_EQ(snap->components(), 1u);
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(snap->labels[v], 0u);

  // Control: under the cap, insert-only batches still repair.
  AgmStaticConnectivity small(n, sketch_config(n, 8802));
  small.snapshot();
  small.apply_batch({insert_of(0, 1), insert_of(2, 3)});
  small.snapshot();
  EXPECT_EQ(small.query_cache().stats().repairs, 1u);
  EXPECT_EQ(small.query_cache().stats().rebuilds, 1u);
}

// One update call per front end, so the shared ingest-and-serve seams are
// checked once for all three: AGM and DynamicConnectivity take batches,
// StreamingConnectivity a stream segment.
void apply_updates(AgmStaticConnectivity& agm, const Batch& b) {
  agm.apply_batch(b);
}
void apply_updates(DynamicConnectivity& dc, const Batch& b) {
  dc.apply_batch(b);
}
void apply_updates(StreamingConnectivity& sc, const Batch& b) {
  sc.apply_stream(b);
}
void apply_update(AgmStaticConnectivity& agm, const Update& u) {
  agm.apply(u);
}
void apply_update(DynamicConnectivity& dc, const Update& u) {
  dc.apply_batch({u});
}
void apply_update(StreamingConnectivity& sc, const Update& u) { sc.apply(u); }

TEST(QueryCacheAgmSeams, RejectedUpdateLeavesNoPhantomRepairEdge) {
  // Regression: AGM's apply() used to call note_update BEFORE ingesting, so
  // an update the ingest rejects (invalid edge, strict budget refusal) left
  // a phantom edge in the repair buffer — the next repair then served
  // connectivity the resident sketches never saw.  Ingest-first + poison
  // on throw forces the next snapshot to rebuild from real state.  The
  // seam is shared (SketchFrontend + QueryCache), so every front end is
  // checked.
  const VertexId n = 16;
  const auto check = [&](auto& fe, const char* where) {
    SCOPED_TRACE(where);
    apply_updates(fe, {insert_of(0, 1)});
    fe.snapshot();
    const auto rebuilds_before = fe.query_cache().stats().rebuilds;

    // An out-of-universe endpoint: the update is rejected, nothing reaches
    // the sketches, and the repair buffer must not remember the edge.
    EXPECT_THROW(apply_update(fe, insert_of(2, n + 5)), CheckError);
    const auto snap = fe.snapshot();
    EXPECT_EQ(fe.query_cache().stats().rebuilds, rebuilds_before + 1);
    // Vertex 2 is still a singleton — no phantom connectivity.
    EXPECT_FALSE(snap->connected(0, 2));
    EXPECT_EQ(snap->labels[2], 2u);
    EXPECT_TRUE(snap->connected(0, 1));

    // Same seam through the batch path.  Flat ingest validates every item
    // before touching a page (begin_routed_cells), and the streaming
    // front end checks the whole segment first, so the whole batch — valid
    // edge {4,5} included — is rejected with the arenas untouched; the old
    // note-first ordering would have buffered BOTH edges as repair
    // candidates anyway.
    Batch bad = {insert_of(4, 5), insert_of(3, n + 9)};
    EXPECT_THROW(apply_updates(fe, bad), CheckError);
    const auto snap2 = fe.snapshot();
    EXPECT_GT(fe.query_cache().stats().rebuilds, rebuilds_before + 1);
    EXPECT_FALSE(snap2->connected(4, 5));
    EXPECT_EQ(snap2->labels[3], 3u);
  };
  AgmStaticConnectivity agm(n, sketch_config(n, 8901));
  check(agm, "agm");
  ConnectivityConfig cc;
  cc.sketch = sketch_config(n, 8901);
  DynamicConnectivity dc(n, cc);
  check(dc, "dynamic");
  StreamingConnectivity sc(n, sketch_config(n, 8901));
  check(sc, "streaming");
}

TEST(QueryCacheFrontEndSeams, ThrowingFlushPoisonsRepairState) {
  // Async ingest on a strict cluster: star inserts buffer in the hub's
  // gutter until flush_ingest() delivers them as one drain, whose load on
  // the hub's machine exceeds s, so the simulator rejects it whole.  The
  // split policy is pinned to kNone so nothing splits the drain into
  // fitting pieces.  Insert-only, so without the poison the
  // next snapshot() would repair (or hit); it must rebuild.
  const VertexId n = 64;
  const VertexId star_leaves = 40;  // 2 words each on the hub's machine
  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 64;
  mc.local_memory_words = 64;  // s < the drain's 80 words
  mc.strict = true;
  mpc::SchedulerConfig sched;
  sched.policy = mpc::SplitPolicy::kNone;
  sched.grow = mpc::GrowPolicy::kNone;
  GutterIngestConfig gc;
  gc.gutter_capacity = 1024;

  const auto check = [&](auto& fe, const char* where) {
    SCOPED_TRACE(where);
    fe.snapshot();
    ASSERT_EQ(fe.query_cache().stats().rebuilds, 1u);
    for (VertexId v = 1; v <= star_leaves; v += 8) {
      Batch batch;
      for (VertexId w = v; w < v + 8 && w <= star_leaves; ++w)
        batch.push_back(insert_of(0, w));
      apply_updates(fe, batch);
    }
    ASSERT_EQ(fe.gutter()->buffered(), star_leaves);
    EXPECT_THROW(fe.flush_ingest(), mpc::MemoryBudgetExceeded);
    EXPECT_EQ(fe.gutter()->buffered(), 0u);

    fe.snapshot();
    EXPECT_EQ(fe.query_cache().stats().rebuilds, 2u);
    EXPECT_EQ(fe.query_cache().stats().repairs, 0u);
    EXPECT_EQ(fe.query_cache().stats().hits, 0u);
  };
  {
    mpc::Cluster cluster(mc);
    ConnectivityConfig cc;
    cc.sketch = sketch_config(n, 9001);
    cc.exec_mode = mpc::ExecMode::kSimulated;
    cc.scheduler = sched;
    cc.async_ingest = true;
    cc.gutter = gc;
    DynamicConnectivity dc(n, cc, &cluster);
    check(dc, "dynamic");
  }
  {
    mpc::Cluster cluster(mc);
    AgmStaticConnectivity agm(n, sketch_config(n, 9001), &cluster,
                              mpc::ExecMode::kSimulated, sched);
    agm.enable_async_ingest(gc);
    check(agm, "agm");
  }
  {
    mpc::Cluster cluster(mc);
    StreamingConnectivity sc(n, sketch_config(n, 9001), &cluster,
                             mpc::ExecMode::kSimulated, sched);
    sc.enable_async_ingest(gc);
    check(sc, "streaming");
  }
}

// --- layered structures ------------------------------------------------------

TEST(QueryCacheLayers, BipartitenessPairedSnapshotTracksOddCycles) {
  const VertexId n = 12;
  BipartitenessConfig bc;
  bc.connectivity.sketch = sketch_config(2 * n, 8101);
  DynamicBipartiteness bip(n, bc);

  bip.apply_batch({insert_of(0, 1), insert_of(1, 2), insert_of(2, 3)});
  auto even = bip.snapshot();
  EXPECT_TRUE(even.is_bipartite());
  EXPECT_TRUE(even.is_component_bipartite(0));
  EXPECT_EQ(even.num_components(), bip.num_components());

  bip.apply_batch({insert_of(0, 3)});  // closes an even cycle
  EXPECT_TRUE(bip.snapshot().is_bipartite());

  bip.apply_batch({insert_of(0, 2)});  // odd triangle 0-1-2
  auto odd = bip.snapshot();
  EXPECT_FALSE(odd.is_bipartite());
  EXPECT_FALSE(odd.is_component_bipartite(0));
  EXPECT_TRUE(odd.is_component_bipartite(6));
  // The earlier snapshot pair still answers from its own point in time.
  EXPECT_TRUE(even.is_bipartite());
}

TEST(QueryCacheLayers, ApproxMsfSnapshotCachesForestAndEstimate) {
  const VertexId n = 24;
  ApproxMsfConfig mc;
  mc.w_max = 8;
  mc.connectivity.sketch = sketch_config(n, 8201);
  ApproxMsf msf(n, mc);
  EXPECT_EQ(msf.snapshot_view(), nullptr);

  Batch batch;
  for (VertexId v = 0; v + 1 < n; ++v)
    batch.push_back(insert_of(v, v + 1, 1 + (v % 8)));
  msf.apply_batch(batch);

  const auto s1 = msf.snapshot();
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->forest, msf.forest());
  EXPECT_DOUBLE_EQ(s1->weight_estimate, msf.weight_estimate());
  EXPECT_DOUBLE_EQ(s1->forest_weight, msf.forest_weight());
  EXPECT_EQ(s1->components, msf.num_components());
  EXPECT_EQ(msf.snapshot_view(), s1);

  // Unchanged structure: hit, same object.
  EXPECT_EQ(msf.snapshot().get(), s1.get());
  EXPECT_EQ(msf.cache_stats().hits, 1u);

  // Any further batch moves the summed epoch and rebuilds.
  msf.apply_batch({erase_of(0, 1, 1)});
  const auto s2 = msf.snapshot();
  EXPECT_NE(s2.get(), s1.get());
  EXPECT_EQ(msf.cache_stats().rebuilds, 2u);
  EXPECT_GT(s2->epoch, s1->epoch);
}

}  // namespace
}  // namespace streammpc
