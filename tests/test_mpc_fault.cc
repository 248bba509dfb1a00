// Fault-tolerant grid execution suite (mpc::FaultInjector + transactional
// rollback + scheduler recovery, ISSUE 6):
//   * attaching an EMPTY fault plan is observationally identical to
//     attaching none — same bytes, same rounds, same ledger, same stats;
//   * a fired cell fault rolls the whole batch back to its pre-batch bytes
//     (a single delivery), and a retry of the same routed batch succeeds
//     because the one-shot fault was consumed;
//   * a seeded fault plan driven through the scheduler is byte-identical —
//     sketches, ledger, rounds-by-label, scheduler/simulator/injector
//     stats — across ingest thread counts {1, 2, 8};
//   * crash windows reject pre-charge and the scheduler's backoff charges
//     exactly the rounds that clear the window;
//   * budget spikes are fixable overflow: the scheduler splits through
//     the window and the stream completes under a strict cluster;
//   * retry is bounded: a plan with more faults in one step window than
//     max_retries propagates TransientFault after exactly max_retries
//     redeliveries;
//   * machine-growing: a star stream whose resident shards outgrow the
//     budget completes under GrowPolicy::kDouble — single deliveries
//     throw MemoryBudgetExceeded on the same stream — with the grow
//     shuffle visible on the ledger and the final sketches byte-identical
//     to flat ingest, also with splitting off (SplitPolicy::kNone);
//   * MemoryBudgetExceeded always carries the phase label and machine id,
//     and a retry-path overflow is re-labelled with the original label.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "graph/generators.h"
#include "mpc/cluster.h"
#include "mpc/fault_injector.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::insert_deltas;
using test::probe_sets;

constexpr std::uint64_t kMarginWords = 16 * mpc::RoutedBatch::kWordsPerDelta;

mpc::SchedulerConfig proportional_config() {
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.grow = mpc::GrowPolicy::kNone;
  return sc;
}

std::vector<EdgeDelta> delete_deltas(const std::vector<Edge>& edges) {
  std::vector<EdgeDelta> deltas;
  deltas.reserve(edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, -1});
  return deltas;
}

// Largest per-machine resident shard once every edge of `edges` has been
// ingested, measured on a throwaway structure (the partitioner is a pure
// function of (machines, universe), so the value transfers).
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

// One fault-injected scheduler-backed executor stack.  Each run owns its
// injector (fault consumption is stateful), built by the caller-supplied
// plan function so every run in a comparison gets an identical plan.
struct FaultRun {
  mpc::FaultInjector injector;
  mpc::Cluster cluster;
  mpc::Simulator sim;
  VertexSketches vs;

  FaultRun(VertexId n, const GraphSketchConfig& cfg, std::uint64_t machines,
           bool strict, std::uint64_t budget, unsigned threads,
           const mpc::SchedulerConfig& sc, mpc::FaultInjector plan)
      : injector(std::move(plan)),
        cluster(test::make_cluster(n, machines, 0.5, strict)),
        sim(cluster, budget, sc),
        vs(n, test::with_threads(cfg, threads)) {
    sim.attach_fault_injector(&injector);
  }

  void ingest(std::span<const EdgeDelta> deltas, std::size_t chunk,
              const char* label = "fault-test") {
    for (std::size_t start = 0; start < deltas.size(); start += chunk) {
      const std::size_t len = std::min(chunk, deltas.size() - start);
      sim.execute(deltas.subspan(start, len), vs.n(), label, vs);
    }
  }
};

TEST(FaultInjection, EmptyPlanIsByteAndChargeIdenticalToNoInjector) {
  const VertexId n = 80;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61001;
  const auto deltas = test::random_deltas(n, 200, 61002);
  const auto sets = probe_sets(n, 61003);

  // Reference: no injector at all.
  mpc::Cluster ref_cluster = test::make_cluster(n, machines);
  mpc::Simulator ref_sim(ref_cluster);
  VertexSketches ref_vs(n, test::with_threads(cfg, 2));
  mpc::RoutedBatch routed;
  for (std::size_t start = 0; start < deltas.size(); start += 40) {
    const std::size_t len = std::min<std::size_t>(40, deltas.size() - start);
    ref_cluster.route_batch(
        std::span<const EdgeDelta>(deltas).subspan(start, len), n, routed);
    ref_sim.execute(routed, "empty-plan", ref_vs);
  }

  // Same stream with an attached EMPTY injector: the transactional
  // bracket runs (snapshot + commit) but changes nothing observable.
  mpc::FaultInjector empty;
  ASSERT_TRUE(empty.empty());
  mpc::Cluster cluster = test::make_cluster(n, machines);
  mpc::Simulator sim(cluster);
  sim.attach_fault_injector(&empty);
  VertexSketches vs(n, test::with_threads(cfg, 2));
  for (std::size_t start = 0; start < deltas.size(); start += 40) {
    const std::size_t len = std::min<std::size_t>(40, deltas.size() - start);
    cluster.route_batch(
        std::span<const EdgeDelta>(deltas).subspan(start, len), n, routed);
    sim.execute(routed, "empty-plan", vs);
  }

  expect_identical_samples(ref_vs, vs, cfg.banks, sets);
  EXPECT_EQ(ref_vs.allocated_words(), vs.allocated_words());
  EXPECT_EQ(ref_cluster.rounds(), cluster.rounds());
  EXPECT_EQ(ref_cluster.rounds_by_label(), cluster.rounds_by_label());
  EXPECT_EQ(ref_cluster.comm_total(), cluster.comm_total());
  EXPECT_EQ(ref_cluster.comm_ledger().total_words(),
            cluster.comm_ledger().total_words());
  EXPECT_EQ(ref_cluster.comm_ledger().words_by_machine(),
            cluster.comm_ledger().words_by_machine());
  EXPECT_EQ(ref_sim.stats().batches, sim.stats().batches);
  EXPECT_EQ(ref_sim.stats().cell_steps, sim.stats().cell_steps);
  EXPECT_EQ(ref_sim.stats().applied_updates, sim.stats().applied_updates);
  EXPECT_EQ(sim.stats().cell_faults, 0u);
  EXPECT_EQ(sim.stats().rollbacks, 0u);
  EXPECT_EQ(empty.stats().cell_faults_fired, 0u);
}

TEST(FaultInjection, CellFaultRollsBackWholeBatchAndConsumedFaultAllowsRetry) {
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61101;
  const auto deltas = test::random_deltas(n, 120, 61102);
  const auto sets = probe_sets(n, 61103);
  const std::span<const EdgeDelta> all(deltas);
  const auto batch1 = all.first(60);
  const auto batch2 = all.subspan(60);

  // Flat references for the two prefixes.
  VertexSketches after1(n, cfg);
  after1.update_edges(batch1);
  VertexSketches after2(n, cfg);
  after2.update_edges(batch1);
  after2.update_edges(batch2);

  // Plan: one cell fault inside batch 2's step window.  Batch 1 covers
  // steps [0, nonempty * banks); every machine is addressed by 60 random
  // deltas, so its window is exactly [0, 16).
  mpc::FaultInjector injector;
  injector.add_cell_fault(16 + 5);

  mpc::Cluster cluster = test::make_cluster(n, machines);
  mpc::Simulator sim(cluster);
  sim.attach_fault_injector(&injector);
  VertexSketches vs(n, test::with_threads(cfg, 2));
  mpc::RoutedBatch routed;
  cluster.route_batch(batch1, n, routed);
  sim.execute(routed, "phase-1", vs);
  ASSERT_EQ(sim.stats().cell_steps, 16u);
  const std::uint64_t words_after1 = vs.allocated_words();
  expect_identical_samples(after1, vs, cfg.banks, sets);

  // Batch 2 faults mid-grid: the whole batch rolls back to the bytes of
  // the batch-1 state, the delivery round stands (charged), and the fault
  // carries its geometry.
  cluster.route_batch(batch2, n, routed);
  const std::uint64_t rounds_before = cluster.rounds();
  try {
    sim.execute(routed, "phase-2", vs);
    FAIL() << "expected TransientFault";
  } catch (const mpc::TransientFault& fault) {
    EXPECT_EQ(fault.kind(), mpc::FaultKind::kCellFailure);
    EXPECT_EQ(fault.label(), "phase-2");
    EXPECT_EQ(fault.round(), 21u);  // the planned step id
    EXPECT_EQ(fault.retry_after_rounds(), 0u);
  }
  EXPECT_EQ(vs.allocated_words(), words_after1);
  expect_identical_samples(after1, vs, cfg.banks, sets);
  EXPECT_EQ(cluster.rounds(), rounds_before + 1);  // lost round still charged
  EXPECT_EQ(sim.stats().cell_faults, 1u);
  EXPECT_EQ(sim.stats().rollbacks, 1u);
  EXPECT_GT(sim.stats().rolled_back_updates, 0u);
  EXPECT_EQ(sim.stats().cell_steps, 16u);  // success-only clock: unchanged
  EXPECT_EQ(injector.stats().cell_faults_fired, 1u);

  // The one-shot fault was consumed: redelivering the SAME routed batch
  // succeeds and lands on the flat two-batch reference.
  sim.execute(routed, "phase-2-retry", vs);
  expect_identical_samples(after2, vs, cfg.banks, sets);
  EXPECT_EQ(vs.allocated_words(), after2.allocated_words());
  EXPECT_EQ(sim.stats().cell_faults, 1u);
}

TEST(FaultInjection, FaultedRunIsByteIdenticalAcrossGridThreadCounts) {
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 5;
  cfg.seed = 61201;
  cfg.ingest_threads = 1;
  Rng rng(61202);
  const auto edges = gen::gnm(n, 280, rng);
  const auto inserts = insert_deltas(edges);
  const auto deletes = delete_deltas(edges);
  const auto sets = probe_sets(n, 61203);
  const std::uint64_t budget =
      2 * final_resident(n, cfg, edges, machines) + kMarginWords;

  // A mixed plan: cell faults early and mid-stream, one crash window, one
  // budget spike — all three kinds, all firing (asserted on the
  // reference).  Same plan object per run.
  const auto plan = [] {
    mpc::FaultInjector inj;
    inj.add_cell_fault(20);
    inj.add_cell_fault(21);
    inj.add_cell_fault(100);
    // Wide window: cell-fault backoff idles the round clock, so a narrow
    // window could fall entirely between two delivery attempts.
    inj.add_machine_crash(/*machine=*/1, /*first=*/4, /*last=*/12);
    inj.add_budget_spike(/*machine=*/2, /*first=*/9, /*last=*/12,
                         /*factor_num=*/2);
    return inj;
  };

  const auto drive = [&](FaultRun& run) {
    run.ingest(inserts, 70);
    run.ingest(deletes, 140);
  };

  FaultRun ref(n, cfg, machines, /*strict=*/true, budget, /*threads=*/1,
               proportional_config(), plan());
  drive(ref);
  // Every fault kind actually fired / bit.
  ASSERT_EQ(ref.injector.stats().cell_faults_fired, 3u);
  ASSERT_GT(ref.sim.stats().crash_faults, 0u);
  ASSERT_GT(ref.sim.stats().retries, 0u);
  ASSERT_EQ(ref.sim.stats().rollbacks, ref.sim.stats().cell_faults);

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    FaultRun run(n, cfg, machines, /*strict=*/true, budget, threads,
                 proportional_config(), plan());
    drive(run);

    // Byte-identical sketches.
    expect_identical_samples(ref.vs, run.vs, cfg.banks, sets);
    EXPECT_EQ(ref.vs.allocated_words(), run.vs.allocated_words());
    // Identical rounds, labels, ledger.
    EXPECT_EQ(ref.cluster.rounds(), run.cluster.rounds());
    EXPECT_EQ(ref.cluster.rounds_by_label(), run.cluster.rounds_by_label());
    EXPECT_EQ(ref.cluster.comm_ledger().rounds(),
              run.cluster.comm_ledger().rounds());
    EXPECT_EQ(ref.cluster.comm_ledger().total_words(),
              run.cluster.comm_ledger().total_words());
    EXPECT_EQ(ref.cluster.comm_ledger().words_by_machine(),
              run.cluster.comm_ledger().words_by_machine());
    // Identical recovery stats, fault stats, split trees.
    EXPECT_EQ(ref.sim.stats().retries, run.sim.stats().retries);
    EXPECT_EQ(ref.sim.stats().retry_rounds, run.sim.stats().retry_rounds);
    EXPECT_EQ(ref.sim.stats().scheduler_splits,
              run.sim.stats().scheduler_splits);
    EXPECT_EQ(ref.sim.stats().split_log, run.sim.stats().split_log);
    EXPECT_EQ(ref.sim.stats().subbatches, run.sim.stats().subbatches);
    EXPECT_EQ(ref.sim.stats().cell_faults, run.sim.stats().cell_faults);
    EXPECT_EQ(ref.sim.stats().crash_faults, run.sim.stats().crash_faults);
    EXPECT_EQ(ref.sim.stats().rollbacks, run.sim.stats().rollbacks);
    EXPECT_EQ(ref.sim.stats().rolled_back_updates,
              run.sim.stats().rolled_back_updates);
    EXPECT_EQ(ref.sim.stats().cell_steps, run.sim.stats().cell_steps);
    EXPECT_EQ(ref.sim.stats().applied_updates,
              run.sim.stats().applied_updates);
    EXPECT_EQ(ref.injector.stats().cell_faults_fired,
              run.injector.stats().cell_faults_fired);
  }
}

TEST(FaultInjection, CrashWindowBackoffChargesExactlyTheClearingRounds) {
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61301;
  const auto deltas = test::random_deltas(n, 80, 61302);

  // Machine 1 is down for rounds [1, 3).  Chunk 1 delivers at round 0 ->
  // rounds = 1; chunk 2's fault gate sees round 1, rejects, and the
  // scheduler must idle max(next_up - round, 1) = 2 rounds before the
  // retry lands at round 3.
  mpc::FaultInjector plan;
  plan.add_machine_crash(1, 1, 3);

  FaultRun run(n, cfg, machines, /*strict=*/false, 0, 1, proportional_config(),
               std::move(plan));
  run.ingest(deltas, 40, "crash-test");

  EXPECT_EQ(run.sim.stats().crash_faults, 1u);
  EXPECT_EQ(run.sim.stats().retries, 1u);
  EXPECT_EQ(run.sim.stats().retry_rounds, 2u);
  const auto& by_label = run.cluster.rounds_by_label();
  const auto it = by_label.find("crash-test/retry");
  ASSERT_NE(it, by_label.end());
  // 2 idle backoff rounds + 1 redelivery round, all under the retry label.
  EXPECT_EQ(it->second, 3u);
  EXPECT_EQ(run.cluster.rounds(), 4u);  // 2 deliveries + 2 idle
  // The lost attempt charged nothing (rejected pre-charge): ledger rounds
  // count only the two successful deliveries.
  EXPECT_EQ(run.cluster.comm_ledger().rounds(), 2u);
  // The sketches are whole: same bytes as flat ingest.
  VertexSketches flat(n, cfg);
  flat.update_edges(deltas);
  expect_identical_samples(flat, run.vs, cfg.banks, probe_sets(n, 61303));
}

TEST(FaultInjection, BudgetSpikeIsFixableOverflowAndBisectsThroughTheWindow) {
  const VertexId n = 96;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61401;
  Rng rng(61402);
  const auto edges = gen::gnm(n, 260, rng);
  const auto inserts = insert_deltas(edges);
  const auto deletes = delete_deltas(edges);
  // Budget 2x the final resident: spiked claims (x2) stay fixable —
  // 2 * (resident + one delta) <= budget — so the scheduler splits
  // through the window instead of giving up.
  const std::uint64_t budget =
      2 * final_resident(n, cfg, edges, machines) + kMarginWords;

  // Spike every machine: the budget is sized off the LARGEST resident
  // shard, so only the machine carrying it is guaranteed to overflow —
  // and which machine that is depends on the partitioner.
  const auto plan_at = [&](std::uint64_t first, std::uint64_t last) {
    mpc::FaultInjector inj;
    for (std::uint64_t m = 0; m < machines; ++m)
      inj.add_budget_spike(m, first, last, /*factor_num=*/2);
    return inj;
  };

  // Without the spike: big delete chunks fit outright (no splits).
  FaultRun calm(n, cfg, machines, /*strict=*/true, budget, 1,
                proportional_config(), mpc::FaultInjector{});
  calm.ingest(inserts, 35, "spike-test");
  const std::uint64_t calm_rounds = calm.cluster.rounds();
  calm.ingest(deletes, 130, "spike-test");
  ASSERT_EQ(calm.sim.stats().scheduler_splits, 0u);

  // With a spike covering the delete phase's rounds: the same chunks
  // overflow machine 1 while the window is open, split down to fitting
  // leaves, and the stream completes under the strict cluster.
  FaultRun run(n, cfg, machines, /*strict=*/true, budget, 1,
               proportional_config(),
               plan_at(calm_rounds, calm_rounds + 6));
  run.ingest(inserts, 35, "spike-test");
  ASSERT_EQ(run.cluster.rounds(), calm_rounds);
  run.ingest(deletes, 130, "spike-test");

  EXPECT_GT(run.sim.stats().scheduler_splits, 0u);
  EXPECT_EQ(run.sim.stats().exhausted, 0u);
  EXPECT_GT(run.cluster.rounds_by_label().count("spike-test/scheduler-split"),
            0u);
  // Same final bytes as the calm run: spikes cost rounds, never state.
  expect_identical_samples(calm.vs, run.vs, cfg.banks, probe_sets(n, 61403));
}

TEST(FaultInjection, RetryIsBoundedAndExhaustionPropagatesTheFault) {
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61501;
  const auto deltas = test::random_deltas(n, 60, 61502);

  // max_retries + 1 faults in the first batch's step window: the initial
  // attempt and every retry each consume one, and the last allowed retry
  // still faults -> propagate.
  mpc::SchedulerConfig sc = proportional_config();
  sc.max_retries = 2;
  mpc::FaultInjector plan;
  plan.add_cell_fault(0);
  plan.add_cell_fault(1);
  plan.add_cell_fault(2);

  FaultRun run(n, cfg, machines, /*strict=*/false, 0, 1, sc, std::move(plan));
  EXPECT_THROW(
      run.sim.execute(deltas, n, "bounded", run.vs),
      mpc::TransientFault);
  EXPECT_EQ(run.sim.stats().retries, 2u);
  EXPECT_EQ(run.sim.stats().cell_faults, 3u);
  EXPECT_EQ(run.sim.stats().rollbacks, 3u);
  EXPECT_EQ(run.injector.stats().cell_faults_fired, 3u);
  // Every attempt rolled back: the sketches never left their initial
  // (empty) state, and the success-only cell-step clock never advanced.
  EXPECT_EQ(run.vs.allocated_words(), VertexSketches(n, cfg).allocated_words());
  EXPECT_EQ(run.sim.stats().cell_steps, 0u);
  EXPECT_EQ(run.sim.stats().applied_updates, 0u);

  // The plan is now exhausted: a fresh submission of the same batch
  // succeeds (faults are one-shot) and matches flat ingest.
  run.sim.execute(deltas, n, "bounded", run.vs);
  VertexSketches flat(n, cfg);
  flat.update_edges(deltas);
  expect_identical_samples(flat, run.vs, cfg.banks, probe_sets(n, 61503));
}

TEST(FaultInjection, MachineGrowingCompletesResidentOverflowStarStream) {
  // The ROADMAP machine-growing scenario: a star stream saturates every
  // machine's resident shard past the budget.  Single deliveries (and the
  // batch loop without growing) must throw; with GrowPolicy::kDouble the
  // scheduler doubles the cluster, pays the shuffle, and completes with
  // flat-reference bytes.
  const VertexId n = 128;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61601;
  const auto edges = gen::star_graph(n);
  const auto inserts = insert_deltas(edges);
  const std::uint64_t resident_p = final_resident(n, cfg, edges, machines);
  const std::uint64_t resident_2p =
      final_resident(n, cfg, edges, 2 * machines);
  // Budget: fits the final shards at 2P machines with chunk headroom, but
  // is exceeded by the shards at P machines alone (so splitting cannot
  // help and the non-growing paths must die).
  const std::uint64_t budget = resident_2p + kMarginWords;
  ASSERT_GT(resident_p, budget);

  // Single deliveries, strict: the stream dies mid-ingest with the
  // structured diagnostic, label and machine attached.
  {
    mpc::Cluster cluster = test::make_cluster(n, machines, 0.5, true);
    mpc::Simulator sim(cluster, budget);
    VertexSketches vs(n, cfg);
    mpc::RoutedBatch routed;
    bool threw = false;
    for (std::size_t start = 0; start < inserts.size() && !threw;
         start += 8) {
      const std::size_t len = std::min<std::size_t>(8, inserts.size() - start);
      cluster.route_batch(
          std::span<const EdgeDelta>(inserts).subspan(start, len), n, routed);
      try {
        sim.execute(routed, "star-bare", vs);
      } catch (const mpc::MemoryBudgetExceeded& oom) {
        threw = true;
        EXPECT_EQ(oom.label(), "star-bare");
        EXPECT_LT(oom.machine(), machines);
        EXPECT_GT(oom.needed_words(), oom.budget_words());
        EXPECT_GT(oom.resident_words(), 0u);
      }
    }
    EXPECT_TRUE(threw);
  }

  // Scheduler WITHOUT growing: same death (splitting cannot shrink a
  // resident shard).
  {
    FaultRun run(n, cfg, machines, /*strict=*/true, budget, 1,
                 proportional_config(), mpc::FaultInjector{});
    EXPECT_THROW(run.ingest(inserts, 8, "star-nogrow"),
                 mpc::MemoryBudgetExceeded);
    EXPECT_GT(run.sim.stats().exhausted, 0u);
    EXPECT_EQ(run.sim.stats().grows, 0u);
  }

  // Scheduler WITH growing: completes, cluster doubled, shuffle charged
  // and visible, bytes identical to flat ingest.
  mpc::SchedulerConfig grow_sc = proportional_config();
  grow_sc.grow = mpc::GrowPolicy::kDouble;
  FaultRun run(n, cfg, machines, /*strict=*/true, budget, 1, grow_sc,
               mpc::FaultInjector{});
  run.ingest(inserts, 8, "star-grow");

  EXPECT_EQ(run.cluster.machines(), 2 * machines);
  EXPECT_EQ(run.sim.stats().grows, 1u);
  ASSERT_EQ(run.sim.stats().grow_log.size(), 1u);
  const mpc::Simulator::Grow& g = run.sim.stats().grow_log.front();
  EXPECT_EQ(g.machines_before, machines);
  EXPECT_EQ(g.machines_after, 2 * machines);
  EXPECT_GT(g.resident_words, budget);
  EXPECT_GT(g.shuffled_words, 0u);
  EXPECT_EQ(run.sim.stats().grow_words, g.shuffled_words);
  const auto& by_label = run.cluster.rounds_by_label();
  const auto it = by_label.find("star-grow/grow-shuffle");
  ASSERT_NE(it, by_label.end());
  EXPECT_EQ(it->second, run.sim.stats().grow_rounds);
  EXPECT_GE(it->second, 2u);  // >= 1 control + 1 shuffle round
  // The ledger grew with history intact and recorded the shuffle volume.
  EXPECT_EQ(run.cluster.comm_ledger().machines(), 2 * machines);
  EXPECT_EQ(run.sim.stats().exhausted, 0u);
  EXPECT_TRUE(run.cluster.ok());

  VertexSketches flat(n, cfg);
  flat.update_edges(inserts);
  expect_identical_samples(flat, run.vs, cfg.banks, probe_sets(n, 61602));
  EXPECT_EQ(flat.allocated_words(), run.vs.allocated_words());

  // Growing with splitting off (SplitPolicy::kNone + GrowPolicy::kDouble).
  // The star is flat-inserted first, so the hub's resident shard is over
  // budget at P machines before the scheduler sees a batch.
  mpc::SchedulerConfig grow_only;
  grow_only.policy = mpc::SplitPolicy::kNone;
  grow_only.grow = mpc::GrowPolicy::kDouble;
  const auto big =
      delete_deltas(std::vector<Edge>(edges.begin(), edges.begin() + 64));
  const auto small =
      delete_deltas(std::vector<Edge>(edges.begin(), edges.begin() + 8));
  {
    // A fixable overflow (resident fits, the 64-delta batch does not)
    // executes exhausted: no split, no grow, and the strict cluster
    // rejects it.
    FaultRun fixable(n, cfg, machines, /*strict=*/true,
                     resident_p + kMarginWords, 1, grow_only,
                     mpc::FaultInjector{});
    fixable.vs.update_edges(inserts);
    EXPECT_THROW(fixable.sim.execute(big, n, "grow-only", fixable.vs),
                 mpc::MemoryBudgetExceeded);
    EXPECT_EQ(fixable.sim.stats().exhausted, 1u);
    EXPECT_EQ(fixable.sim.stats().scheduler_splits, 0u);
    EXPECT_EQ(fixable.sim.stats().grows, 0u);
    EXPECT_EQ(fixable.cluster.machines(), machines);
  }
  // An unfixable overflow grows once, then the small batch fits.
  FaultRun grown(n, cfg, machines, /*strict=*/true, budget, 1, grow_only,
                 mpc::FaultInjector{});
  grown.vs.update_edges(inserts);
  grown.sim.execute(small, n, "grow-only", grown.vs);
  EXPECT_EQ(grown.sim.stats().grows, 1u);
  EXPECT_EQ(grown.sim.stats().scheduler_splits, 0u);
  EXPECT_EQ(grown.sim.stats().exhausted, 0u);
  EXPECT_EQ(grown.cluster.machines(), 2 * machines);
  EXPECT_TRUE(grown.cluster.ok());
  flat.update_edges(small);
  expect_identical_samples(flat, grown.vs, cfg.banks, probe_sets(n, 61603));
  EXPECT_EQ(flat.allocated_words(), grown.vs.allocated_words());
}

TEST(FaultInjection, BudgetDiagnosticAlwaysCarriesLabelAndMachine) {
  const VertexId n = 64;
  const std::uint64_t machines = 4;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 61701;
  const auto deltas = test::random_deltas(n, 120, 61702);

  // A single delivery, absurdly tight budget: the pre-scan's throw names the
  // phase and the machine.
  mpc::Cluster cluster = test::make_cluster(n, machines, 0.5, true);
  mpc::Simulator sim(cluster, /*scratch_words=*/4);
  VertexSketches vs(n, cfg);
  mpc::RoutedBatch routed;
  cluster.route_batch(deltas, n, routed);
  try {
    sim.execute(routed, "diagnose-me", vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& oom) {
    EXPECT_EQ(oom.label(), "diagnose-me");
    EXPECT_LT(oom.machine(), machines);
    EXPECT_GT(oom.needed_words(), oom.budget_words());
    EXPECT_NE(std::string(oom.what()).find("diagnose-me"), std::string::npos);
  }

  // Retry-path overflow is re-labelled with the ORIGINAL phase label: a
  // spike window that opens after a crash-triggered retry makes the retry
  // attempt overflow, and the caller still sees "spiked-phase", not
  // "spiked-phase/retry".
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kNone;  // no splitting: force the overflow
  sc.max_retries = 3;
  mpc::FaultInjector plan;
  plan.add_machine_crash(/*machine=*/1, /*first=*/0, /*last=*/1);
  plan.add_budget_spike(/*machine=*/1, /*first=*/1, /*last=*/40,
                        /*factor_num=*/1000);
  FaultRun run(n, cfg, machines, /*strict=*/true, 0, 1, sc, std::move(plan));
  try {
    run.sim.execute(deltas, n, "spiked-phase", run.vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& oom) {
    EXPECT_EQ(oom.label(), "spiked-phase");
    EXPECT_EQ(oom.machine(), 1u);
  }
  EXPECT_EQ(run.sim.stats().retries, 1u);  // the crash retry that spiked
}

TEST(FaultInjection, RandomPlanIsDeterministicAndRespectsItsGeometry) {
  mpc::FaultInjector::RandomPlanConfig rc;
  rc.seed = 61801;
  rc.machines = 8;
  rc.cell_faults = 5;
  rc.step_horizon = 200;
  rc.crashes = 3;
  rc.round_horizon = 50;
  rc.crash_rounds = 2;
  rc.spikes = 2;
  rc.spike_rounds = 4;
  rc.spike_factor = 3;

  const mpc::FaultInjector a = mpc::FaultInjector::random_plan(rc);
  const mpc::FaultInjector b = mpc::FaultInjector::random_plan(rc);
  ASSERT_EQ(a.cell_faults().size(), 5u);
  ASSERT_EQ(a.crashes().size(), 3u);
  ASSERT_EQ(a.spikes().size(), 2u);
  for (std::size_t i = 0; i < a.cell_faults().size(); ++i) {
    EXPECT_EQ(a.cell_faults()[i].step, b.cell_faults()[i].step);
    EXPECT_LT(a.cell_faults()[i].step, rc.step_horizon);
  }
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].machine, b.crashes()[i].machine);
    EXPECT_EQ(a.crashes()[i].first_round, b.crashes()[i].first_round);
    EXPECT_LT(a.crashes()[i].machine, rc.machines);
    EXPECT_EQ(a.crashes()[i].last_round - a.crashes()[i].first_round,
              rc.crash_rounds);
  }
  for (std::size_t i = 0; i < a.spikes().size(); ++i) {
    EXPECT_EQ(a.spikes()[i].machine, b.spikes()[i].machine);
    EXPECT_EQ(a.spikes()[i].factor_num, rc.spike_factor);
    EXPECT_EQ(a.spikes()[i].factor_den, 1u);
  }

  mpc::FaultInjector::RandomPlanConfig other = rc;
  other.seed = 61802;
  const mpc::FaultInjector c = mpc::FaultInjector::random_plan(other);
  bool any_different = false;
  for (std::size_t i = 0; i < c.cell_faults().size(); ++i)
    any_different |= c.cell_faults()[i].step != a.cell_faults()[i].step;
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace streammpc
