// Adaptive batch scheduler suite (mpc::BatchScheduler, ISSUE 5):
//   * determinism — same stream + same budgets => identical split tree,
//     rounds, and final sketches across ingest thread counts {1, 2, 8} and
//     strict/non-strict clusters;
//   * equivalence — splitting never changes the sketch bytes, only the
//     accounting;
//   * the closed loop — a strict-cluster batch that fails with
//     MemoryBudgetExceeded under the bare Simulator completes under the
//     scheduler, with the split rounds visible on the CommLedger and in
//     Simulator::Stats;
//   * exhaustion — when the resident shard alone is over budget, the
//     scheduler does not split and the strict executor still throws.
//
// Test streams are built insert-then-delete: the insert phase allocates
// every page the stream will ever touch, the delete phase (same edges,
// delta = -1) touches only existing cells, so during deletion the resident
// shards sit exactly at their final watermark.  A budget of
// final-resident + margin then makes the split geometry *provable*: any
// delete chunk whose per-machine load exceeds the margin must split, and a
// small-enough leaf always fits (splitting can never exhaust).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "core/dynamic_connectivity.h"
#include "graph/generators.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::insert_deltas;
using test::probe_sets;

constexpr std::uint64_t kMarginWords = 8 * mpc::RoutedBatch::kWordsPerDelta;

mpc::SchedulerConfig proportional_config() {
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  return sc;
}

std::vector<EdgeDelta> delete_deltas(const std::vector<Edge>& edges) {
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, -1});
  return deltas;
}

// Largest per-machine resident shard once every edge of `edges` has been
// ingested — measured on a throwaway structure; the partitioner is a pure
// function of (machines, universe), so the value transfers to any cluster
// with the same geometry.
std::uint64_t final_resident(VertexId n, const GraphSketchConfig& cfg,
                             const std::vector<Edge>& edges,
                             std::uint64_t machines) {
  mpc::Cluster cluster = test::make_cluster(n, machines);
  VertexSketches vs(n, cfg);
  vs.update_edges(insert_deltas(edges));
  std::uint64_t max_resident = 0;
  for (std::uint64_t m = 0; m < machines; ++m)
    max_resident = std::max(max_resident, vs.resident_words(m, cluster));
  return max_resident;
}

// One scheduler-backed simulated executor stack over shared sketches.
struct SchedRun {
  mpc::Cluster cluster;
  mpc::Simulator sim;
  mpc::BatchScheduler sched;
  VertexSketches vs;

  SchedRun(VertexId n, const GraphSketchConfig& cfg, std::uint64_t machines,
           bool strict, std::uint64_t budget, unsigned threads,
           const mpc::SchedulerConfig& sc)
      : cluster(test::make_cluster(n, machines, 0.5, strict)),
        sim(cluster, budget),
        sched(cluster, sim, sc),
        vs(n, test::with_threads(cfg, threads)) {}

  void ingest(std::span<const EdgeDelta> deltas, std::size_t chunk) {
    for (std::size_t start = 0; start < deltas.size(); start += chunk) {
      const std::size_t len = std::min(chunk, deltas.size() - start);
      sched.execute(deltas.subspan(start, len), vs.n(), "sched-test", vs);
    }
  }
};

TEST(BatchScheduler, SplitTreeRoundsAndSketchesInvariantAcrossThreadsAndStrictness) {
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 5;
  cfg.seed = 52001;
  cfg.ingest_threads = 1;
  Rng rng(52002);
  const auto edges = gen::gnm(n, 280, rng);
  const auto inserts = insert_deltas(edges);
  const auto deletes = delete_deltas(edges);
  const auto sets = probe_sets(n, 54);
  const std::uint64_t budget =
      final_resident(n, cfg, edges, machines) + kMarginWords;

  const auto drive = [&](SchedRun& run) {
    run.ingest(inserts, 70);    // grows resident toward the watermark
    run.ingest(deletes, 140);   // load >> margin at full resident: must split
  };

  // Reference: serial grid, strict cluster.
  SchedRun ref(n, cfg, machines, /*strict=*/true, budget, /*threads=*/1,
               proportional_config());
  drive(ref);
  ASSERT_GT(ref.sched.stats().splits, 0u);
  ASSERT_FALSE(ref.sched.stats().split_log.empty());
  ASSERT_EQ(ref.sched.stats().exhausted, 0u);

  for (const bool strict : {true, false}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "strict=" << strict << " threads=" << threads);
      SchedRun run(n, cfg, machines, strict, budget, threads,
                   proportional_config());
      drive(run);

      // Identical split tree (full pre-order log), counters, and depth.
      EXPECT_EQ(run.sched.stats().split_log, ref.sched.stats().split_log);
      EXPECT_EQ(run.sched.stats().splits, ref.sched.stats().splits);
      EXPECT_EQ(run.sched.stats().subbatches, ref.sched.stats().subbatches);
      EXPECT_EQ(run.sched.stats().max_depth, ref.sched.stats().max_depth);
      EXPECT_EQ(run.sched.stats().exhausted, 0u);

      // Identical rounds and ledger (delivery + control rounds).
      EXPECT_EQ(run.cluster.rounds(), ref.cluster.rounds());
      EXPECT_EQ(run.cluster.rounds_by_label(), ref.cluster.rounds_by_label());
      EXPECT_EQ(run.cluster.comm_ledger().rounds(),
                ref.cluster.comm_ledger().rounds());
      EXPECT_EQ(run.cluster.comm_ledger().total_words(),
                ref.cluster.comm_ledger().total_words());
      EXPECT_EQ(run.cluster.comm_ledger().words_by_machine(),
                ref.cluster.comm_ledger().words_by_machine());

      // Identical final sketches.
      expect_identical_samples(ref.vs, run.vs, cfg.banks, sets);
      EXPECT_EQ(ref.vs.allocated_words(), run.vs.allocated_words());

      // Simulator-side visibility matches the scheduler's own log.
      EXPECT_EQ(run.sim.stats().scheduler_splits, run.sched.stats().splits);
      EXPECT_EQ(run.sim.stats().batches, run.sched.stats().subbatches);
    }
  }
}

TEST(BatchScheduler, SplittingNeverChangesSketchBytes) {
  // Scheduler-split ingest == flat ingest of the same stream: linearity
  // means the split tree is invisible in the bytes.
  const VertexId n = 80;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 52101;
  Rng rng(52102);
  const auto edges = gen::gnm(n, 220, rng);
  const auto inserts = insert_deltas(edges);
  const auto deletes = delete_deltas(edges);
  const auto sets = probe_sets(n, 58);

  VertexSketches flat(n, cfg);
  flat.update_edges(inserts);
  flat.update_edges(deletes);

  const std::uint64_t budget =
      final_resident(n, cfg, edges, machines) + kMarginWords;
  SchedRun run(n, cfg, machines, /*strict=*/true, budget, 1,
               proportional_config());
  run.ingest(inserts, 55);
  run.ingest(deletes, 220);
  EXPECT_GT(run.sched.stats().splits, 0u);
  expect_identical_samples(flat, run.vs, cfg.banks, sets);
  EXPECT_EQ(flat.allocated_words(), run.vs.allocated_words());
}

TEST(BatchScheduler, StrictOverBudgetRunCompletesUnderSchedulerWithVisibleSplits) {
  // The acceptance scenario: a strict-cluster batch that the bare
  // Simulator rejects with MemoryBudgetExceeded completes under the
  // scheduler, and the extra work is visible — split control rounds on the
  // cluster under "<label>/scheduler-split", extra delivery rounds on the
  // CommLedger, and scheduler_splits in Simulator::Stats.
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 52201;
  Rng rng(52202);
  const auto edges = gen::gnm(n, 300, rng);
  const auto inserts = insert_deltas(edges);
  const auto deletes = delete_deltas(edges);
  const std::uint64_t budget =
      final_resident(n, cfg, edges, machines) + kMarginWords;

  // Without the scheduler: warm the sketches, then the one-shot delete
  // batch overflows every machine and strict rejects it whole.
  {
    mpc::Cluster cluster = test::make_cluster(n, machines, 0.5, true);
    mpc::Simulator sim(cluster, budget);
    VertexSketches vs(n, cfg);
    mpc::RoutedBatch routed;
    // Warm chunks of 8 deltas: per-machine load <= 16 words = the budget's
    // margin over the resident watermark, so every warm delivery provably
    // fits even as the shards saturate.
    for (std::size_t start = 0; start < inserts.size(); start += 8) {
      const std::size_t len = std::min<std::size_t>(8, inserts.size() - start);
      cluster.route_batch(
          std::span<const EdgeDelta>(inserts).subspan(start, len), n, routed);
      sim.execute(routed, "warm", vs);
    }
    const std::uint64_t warm_words = vs.allocated_words();
    const std::uint64_t warm_rounds = cluster.comm_ledger().rounds();
    cluster.route_batch(deletes, n, routed);
    EXPECT_THROW(sim.execute(routed, "no-sched", vs),
                 mpc::MemoryBudgetExceeded);
    // Rejected whole: nothing mutated, nothing charged.
    EXPECT_EQ(vs.allocated_words(), warm_words);
    EXPECT_EQ(cluster.comm_ledger().rounds(), warm_rounds);
  }

  // With the scheduler: same stream, same budget, completes.
  SchedRun run(n, cfg, machines, /*strict=*/true, budget, 1,
               proportional_config());
  run.ingest(inserts, 60);
  const std::uint64_t before_splits = run.sched.stats().splits;
  const std::uint64_t before_rounds = run.cluster.comm_ledger().rounds();
  run.sched.execute(deletes, n, "acceptance", run.vs);

  const mpc::BatchScheduler::Stats& st = run.sched.stats();
  EXPECT_GT(st.splits, before_splits);
  EXPECT_EQ(st.exhausted, 0u);
  EXPECT_GT(st.split_rounds, 0u);
  // The delete batch landed as multiple under-budget deliveries.
  EXPECT_GT(run.cluster.comm_ledger().rounds(), before_rounds + 1);
  EXPECT_LE(run.sim.stats().peak_machine_words, budget);
  // Control rounds carry the dedicated label on the cluster.
  const auto& by_label = run.cluster.rounds_by_label();
  const auto it = by_label.find("acceptance/scheduler-split");
  ASSERT_NE(it, by_label.end());
  EXPECT_GT(it->second, 0u);
  // Simulator::Stats shows the adaptive loop.
  EXPECT_EQ(run.sim.stats().scheduler_splits, st.splits);
  EXPECT_EQ(run.sim.stats().batches, st.subbatches);
  EXPECT_EQ(run.sim.stats().budget_overruns, 0u);
  // The split log is coherent: every recorded split was a genuine
  // over-budget probe on a splittable chunk.
  for (const mpc::BatchScheduler::Split& s : st.split_log) {
    EXPECT_GT(s.size, 1u);
    EXPECT_GT(s.needed_words, s.budget_words);
    EXPECT_EQ(s.budget_words, budget);
    EXPECT_LT(s.machine, machines);
  }
}

TEST(BatchScheduler, ResidentAloneOverBudgetStillThrowsAfterExhaustion) {
  // When a machine's resident shard alone exceeds the budget, no batch
  // sizing can help: the scheduler executes the chunk exhausted and the
  // strict executor throws the same structured diagnostic as before.
  const VertexId n = 64;
  const std::uint64_t machines = 2;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 52301;
  Rng rng(52302);
  const auto edges = gen::gnm(n, 180, rng);
  const std::uint64_t resident = final_resident(n, cfg, edges, machines);
  ASSERT_GT(resident, 2u);

  SchedRun run(n, cfg, machines, /*strict=*/true,
               resident + kMarginWords, 1, proportional_config());
  run.ingest(insert_deltas(edges), 48);

  // A second scheduler over a simulator whose budget is below the shard.
  mpc::Simulator tight_sim(run.cluster, resident - 1);
  mpc::BatchScheduler tight_sched(run.cluster, tight_sim,
                                  proportional_config());
  const std::vector<EdgeDelta> one{{edges.front(), -1}};
  EXPECT_THROW(tight_sched.execute(one, n, "exhausted", run.vs),
               mpc::MemoryBudgetExceeded);
  EXPECT_GT(tight_sched.stats().exhausted, 0u);
  EXPECT_EQ(tight_sched.stats().splits, 0u);  // size 1: nothing to split

  // Crucially, a MULTI-delta batch must not trigger a futile split
  // cascade either: the probe's resident component already proves no leaf
  // can fit, so the scheduler goes straight to exhaustion — no splits, no
  // control rounds charged — and the strict executor rejects pre-charge.
  const std::uint64_t rounds_before = run.cluster.rounds();
  mpc::Simulator tight_sim2(run.cluster, resident - 1);
  mpc::BatchScheduler tight_sched2(run.cluster, tight_sim2,
                                   proportional_config());
  const auto big = delete_deltas(edges);  // 180 deltas, all unfixable
  EXPECT_THROW(tight_sched2.execute(big, n, "cascade", run.vs),
               mpc::MemoryBudgetExceeded);
  EXPECT_EQ(tight_sched2.stats().splits, 0u);
  EXPECT_EQ(tight_sched2.stats().split_rounds, 0u);
  EXPECT_EQ(tight_sched2.stats().exhausted, 1u);
  EXPECT_EQ(run.cluster.rounds(), rounds_before);  // nothing was charged
  EXPECT_EQ(run.cluster.rounds_by_label().count("cascade/scheduler-split"),
            0u);
}

TEST(BatchScheduler, NonePolicyIsTransparentPassThrough) {
  // kNone: byte- and charge-identical to the bare Simulator path.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 52401;
  const auto deltas = test::random_deltas(n, 160, 67);
  const auto sets = probe_sets(n, 68);

  mpc::SchedulerConfig none;
  none.policy = mpc::SplitPolicy::kNone;
  SchedRun sched_run(n, cfg, 4, /*strict=*/false, 0, 1, none);
  sched_run.ingest(deltas, 40);
  EXPECT_EQ(sched_run.sched.stats().splits, 0u);
  EXPECT_EQ(sched_run.sched.stats().subbatches, 4u);

  mpc::Cluster plain_cluster = test::make_cluster(n, 4);
  mpc::Simulator plain_sim(plain_cluster);
  VertexSketches plain_vs(n, cfg);
  mpc::RoutedBatch routed;
  for (std::size_t start = 0; start < deltas.size(); start += 40) {
    const std::size_t len = std::min<std::size_t>(40, deltas.size() - start);
    plain_cluster.route_batch(
        std::span<const EdgeDelta>(deltas).subspan(start, len), n, routed);
    plain_sim.execute(routed, "sched-test", plain_vs);
  }
  expect_identical_samples(plain_vs, sched_run.vs, cfg.banks, sets);
  EXPECT_EQ(plain_cluster.rounds(), sched_run.cluster.rounds());
  EXPECT_EQ(plain_cluster.comm_ledger().rounds(),
            sched_run.cluster.comm_ledger().rounds());
}

TEST(BatchScheduler, FrontEndOptInCompletesStrictRunAndMatchesReference) {
  // Per-front-end opt-in via ConnectivityConfig::scheduler: under a strict
  // cluster, with the simulated executor's scratch budget tightened to the
  // resident watermark plus a small margin, a non-tree delete batch that
  // overflows as a whole completes anyway, and the maintained structure
  // still matches the oracle.  (Non-tree deletions keep the phase clear of
  // the Boruvka gather — the scheduler governs ingest, not query gathers.)
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  ConnectivityConfig cc;
  cc.sketch.banks = 8;
  cc.sketch.seed = 52501;
  cc.exec_mode = mpc::ExecMode::kSimulated;
  cc.scheduler.policy = mpc::SplitPolicy::kProportional;
  Rng rng(52502);
  const auto edges = gen::gnm(n, 3 * n, rng);

  // Measurement pass (non-strict, default budget) to size the tight one.
  {
    mpc::MpcConfig mc = test::small_mpc_config(n);
    mc.machines = machines;
    mpc::Cluster measure(mc);
    DynamicConnectivity dc(n, cc, &measure);
    dc.bootstrap(edges);
    std::uint64_t max_resident = 0;
    for (std::uint64_t m = 0; m < machines; ++m)
      max_resident =
          std::max(max_resident, dc.sketches().resident_words(m, measure));
    cc.simulator_scratch_words = max_resident + 2 * kMarginWords;
  }

  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = machines;
  mc.strict = true;
  mpc::Cluster cluster(mc);
  DynamicConnectivity dc(n, cc, &cluster);
  ASSERT_NE(dc.scheduler(), nullptr);
  dc.bootstrap(edges);

  // One big batch of non-tree deletions: per-machine load far exceeds the
  // margin while the resident shards sit at the watermark — must split.
  AdjGraph ref(n);
  Batch as_batch;
  for (const Edge& e : edges) as_batch.push_back(insert_of(e.u, e.v));
  ref.apply(as_batch);

  std::vector<Edge> tree(dc.spanning_forest());
  std::vector<Edge> non_tree;
  for (const Edge& e : edges) {
    if (std::find(tree.begin(), tree.end(), e) == tree.end())
      non_tree.push_back(e);
    if (non_tree.size() == 120) break;
  }
  ASSERT_GE(non_tree.size(), 60u);
  Batch deletions;
  for (const Edge& e : non_tree) deletions.push_back(erase_of(e.u, e.v));
  dc.apply_batch(deletions);
  ref.apply(deletions);

  EXPECT_GT(dc.scheduler()->stats().splits, 0u);
  EXPECT_EQ(dc.scheduler()->stats().exhausted, 0u);
  EXPECT_TRUE(cluster.ok());
  test::expect_matches_reference(dc, ref, "front-end opt-in");
}

TEST(BatchScheduler, ProportionalSplitLogAndRoundsAreExactOnStarDeletes) {
  // Fully provable comb geometry.  After a flat insert of the whole star,
  // the hub's machine 0 is the max-resident machine, so with
  // budget = resident(0) + kMarginWords its delete-phase headroom is the
  // margin EXACTLY (the probe's claim is un-scaled without an injector and
  // the u128 ratio in proportional_cut is then an identity).  Every star
  // delete loads machine 0 with kWordsPerDelta words, so every cut lands
  // at margin / kWordsPerDelta = 8 deltas: a 64-delta chunk yields a comb
  // of 7 spine cuts + 8 leaf deliveries with a split log and round bill we
  // can write down in closed form.
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 3;
  cfg.seed = 52401;
  cfg.ingest_threads = 1;
  const auto edges = gen::star_graph(n);
  ASSERT_GE(edges.size(), 64u);
  const std::vector<Edge> doomed(edges.begin(), edges.begin() + 64);
  const auto deletes = delete_deltas(doomed);
  const std::uint64_t budget =
      final_resident(n, cfg, edges, machines) + kMarginWords;

  SchedRun run(n, cfg, machines, /*strict=*/true, budget, /*threads=*/1,
               proportional_config());
  run.vs.update_edges(insert_deltas(edges));

  // Geometry preconditions for exactness: the hub's machine holds the max
  // resident shard (headroom == margin), and no other machine can overflow
  // even under the full 64-delta chunk (each hosts <= 24 of the leaves).
  const std::uint64_t res0 = run.vs.resident_words(0, run.cluster);
  ASSERT_EQ(res0 + kMarginWords, budget);
  for (std::uint64_t m = 1; m < machines; ++m) {
    ASSERT_LE(run.vs.resident_words(m, run.cluster) +
                  24 * mpc::RoutedBatch::kWordsPerDelta,
              budget);
  }

  VertexSketches flat(n, cfg);
  flat.update_edges(insert_deltas(edges));
  flat.update_edges(deletes);

  const std::uint64_t before = run.cluster.rounds();
  run.sched.execute(deletes, run.vs.n(), "exact", run.vs);

  const auto& st = run.sched.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.splits, 7u);
  EXPECT_EQ(st.subbatches, 8u);
  EXPECT_EQ(st.exhausted, 0u);
  EXPECT_EQ(st.max_depth, 1u);  // spine at depth 0, leaves at depth 1
  ASSERT_EQ(st.split_log.size(), 7u);
  for (std::size_t k = 0; k < st.split_log.size(); ++k) {
    const mpc::BatchScheduler::Split& s = st.split_log[k];
    EXPECT_EQ(s.offset, 8 * k) << "split " << k;
    EXPECT_EQ(s.size, 64 - 8 * k) << "split " << k;
    EXPECT_EQ(s.depth, 0u) << "split " << k;
    EXPECT_EQ(s.machine, 0u) << "split " << k;
    EXPECT_EQ(s.budget_words, budget) << "split " << k;
    EXPECT_EQ(s.needed_words,
              res0 + (64 - 8 * k) * mpc::RoutedBatch::kWordsPerDelta)
        << "split " << k;
  }

  // Exact round bill: one delivery round per leaf plus one broadcast-tree
  // control charge per spine cut, all visible under the split label.
  const std::uint64_t control =
      std::max<std::uint64_t>(1, run.cluster.broadcast_rounds());
  EXPECT_EQ(run.cluster.rounds() - before, 8 + 7 * control);
  const auto& by_label = run.cluster.rounds_by_label();
  const auto it = by_label.find("exact/scheduler-split");
  ASSERT_NE(it, by_label.end());
  EXPECT_EQ(it->second, 7 * control);

  // And as always: the comb is invisible in the bytes.
  expect_identical_samples(flat, run.vs, cfg.banks, probe_sets(n, 60));
  EXPECT_EQ(flat.allocated_words(), run.vs.allocated_words());
}

}  // namespace
}  // namespace streammpc
