// Conformance suite for the per-machine simulation executor
// (mpc::Simulator, ISSUE 3): across the full phi × machines matrix,
// simulated == routed == flat ingest byte-identically; ledger round counts
// match the O(1/phi) phase bounds; and an undersized scratch budget
// reliably trips the structured MemoryBudgetExceeded diagnostic (negative
// tests) without mutating the sketches.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "core/dynamic_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::probe_sets;
using test::random_deltas;

constexpr double kPhis[] = {0.1, 0.25, 0.5};
constexpr std::uint64_t kMachineCounts[] = {1, 4, 16, 64};

// One cell of the conformance matrix: simulated == routed == flat in
// bytes, charges and stats.
void expect_matrix_cell(const VertexSketches& flat,
                        const VertexSketches& routed,
                        const VertexSketches& simulated,
                        const mpc::Cluster& routed_cluster,
                        const mpc::Cluster& sim_cluster,
                        const mpc::Simulator& sim, unsigned banks,
                        const std::vector<std::vector<VertexId>>& sets,
                        std::uint64_t batches) {
  // Byte-identical observable surface and identical allocation across
  // all three paths, for every cell of the matrix.
  expect_identical_samples(flat, routed, banks, sets);
  expect_identical_samples(flat, simulated, banks, sets);
  EXPECT_EQ(flat.allocated_words(), routed.allocated_words());
  EXPECT_EQ(flat.allocated_words(), simulated.allocated_words());

  // Identical accounting: the simulated schedule charges exactly the
  // rounds and per-machine loads the routed (accounting-only) mode
  // charges — the machine steps are the local computation of the same
  // delivered round.
  EXPECT_EQ(sim_cluster.rounds(), routed_cluster.rounds());
  EXPECT_EQ(sim_cluster.comm_total(), routed_cluster.comm_total());
  const mpc::CommLedger& a = routed_cluster.comm_ledger();
  const mpc::CommLedger& b = sim_cluster.comm_ledger();
  ASSERT_EQ(a.machines(), b.machines());
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.max_machine_load(), b.max_machine_load());
  EXPECT_EQ(a.words_by_machine(), b.words_by_machine());
  EXPECT_EQ(b.rounds(), batches);

  // Every non-empty sub-batch became one machine step, bounded by the
  // scratch budget.  With resident-memory fidelity an overrun is
  // recorded exactly when some machine's shard + delivery exceeds s
  // (at phi = 0.1 a single machine genuinely cannot host the whole
  // n-vertex shard in n^0.1 memory — the honest accounting says so),
  // and every recorded overrun must carry consistent geometry.
  EXPECT_GE(sim.stats().machine_steps, b.rounds());
  EXPECT_LE(sim.stats().peak_step_words, sim.scratch_words());
  EXPECT_EQ(sim.stats().budget_overruns > 0,
            sim.stats().peak_machine_words > sim.scratch_words());
  EXPECT_EQ(sim.stats().budget_overruns, sim.stats().overruns.size());
  for (const mpc::Simulator::Overrun& o : sim.stats().overruns) {
    EXPECT_GT(o.needed_words, o.budget_words);
    EXPECT_LE(o.resident_words, o.needed_words);
    EXPECT_EQ(o.budget_words, sim.scratch_words());
  }
  EXPECT_EQ(sim.stats().batches, b.rounds());
}

// Ingests `deltas` in chunks of `chunk` through the given mode and returns
// the resulting sketches; a null `cluster` is flat ingest.
void ingest_chunked(VertexSketches& vs, std::span<const EdgeDelta> deltas,
                    std::size_t chunk, mpc::Cluster* cluster,
                    mpc::ExecMode mode,
                    mpc::BatchScheduler* scheduler = nullptr) {
  mpc::RoutedBatch routed;
  for (std::size_t start = 0; start < deltas.size(); start += chunk) {
    const std::size_t len = std::min(chunk, deltas.size() - start);
    routed_ingest(cluster, vs.n(), deltas.subspan(start, len), "conformance",
                  vs, routed, mode, scheduler);
  }
}

TEST(SimulationConformance, SimulatedEqualsRoutedEqualsFlatAcrossMatrix) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 6;
  cfg.seed = 31003;
  const auto deltas = random_deltas(n, 400, 19);
  const auto sets = probe_sets(n, 20);

  VertexSketches flat(n, cfg);
  ingest_chunked(flat, deltas, 64, nullptr, mpc::ExecMode::kRouted);

  for (const double phi : kPhis) {
    for (const std::uint64_t machines : kMachineCounts) {
      mpc::Cluster routed_cluster = test::make_cluster(n, machines, phi);
      VertexSketches routed(n, cfg);
      ingest_chunked(routed, deltas, 64, &routed_cluster,
                     mpc::ExecMode::kRouted);

      // The simulated executor under every split policy (through the
      // scheduler) and both a serial and a 4-wide ingest pool.
      for (const auto policy :
           {mpc::SplitPolicy::kNone, mpc::SplitPolicy::kProportional}) {
        for (const unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(::testing::Message()
                       << "phi=" << phi << " machines=" << machines
                       << " policy=" << static_cast<int>(policy)
                       << " threads=" << threads);
          mpc::Cluster sim_cluster = test::make_cluster(n, machines, phi);
          mpc::Simulator sim(sim_cluster);
          mpc::SchedulerConfig sc;
          sc.policy = policy;
          mpc::BatchScheduler scheduler(sim_cluster, sim, sc);
          VertexSketches simulated(n, test::with_threads(cfg, threads));
          ingest_chunked(simulated, deltas, 64, &sim_cluster,
                         mpc::ExecMode::kSimulated, &scheduler);
          expect_matrix_cell(flat, routed, simulated, routed_cluster,
                             sim_cluster, sim, cfg.banks, sets,
                             (deltas.size() + 63) / 64);
        }
      }
    }
  }
}

TEST(SimulationConformance, LedgerPhaseRoundsWithinConstantPerPhiBudget) {
  // Theorem 6.7's O(1/phi) rounds per batch, observed end-to-end through
  // DynamicConnectivity in kSimulated mode: the worst phase must stay
  // within a constant multiple of ceil(1/phi) tree heights, and the
  // simulated schedule must charge exactly the same rounds as the
  // accounting-only routed mode.
  const VertexId n = 256;
  for (const double phi : kPhis) {
    for (const std::uint64_t machines : kMachineCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "phi=" << phi << " machines=" << machines);
      mpc::Cluster sim_cluster = test::make_cluster(n, machines, phi);
      mpc::Cluster routed_cluster = test::make_cluster(n, machines, phi);
      ConnectivityConfig cfg;
      cfg.sketch.banks = 8;
      cfg.sketch.seed = 6001;
      // Pin the batch scheduler off: this test asserts the simulated mode
      // charges EXACTLY the routed mode's rounds, which is only true when
      // over-budget batches are not adaptively re-split (at phi = 0.1 the
      // resident shard exceeds s, and a splitting policy would
      // legitimately add split + retry rounds; tests/test_mpc_scheduler.cc
      // pins that behavior instead).
      cfg.scheduler.policy = mpc::SplitPolicy::kNone;
      cfg.exec_mode = mpc::ExecMode::kSimulated;
      DynamicConnectivity sim_dc(n, cfg, &sim_cluster);
      cfg.exec_mode = mpc::ExecMode::kRouted;
      DynamicConnectivity routed_dc(n, cfg, &routed_cluster);

      Rng rng(7000 + machines);
      gen::ChurnOptions opt;
      opt.n = n;
      opt.initial_edges = 2 * n;
      opt.num_batches = 6;
      opt.batch_size = 8;
      opt.delete_fraction = 0.4;
      std::uint64_t worst = 0;
      for (const auto& b : gen::churn_stream(opt, rng)) {
        sim_dc.apply_batch(b);
        routed_dc.apply_batch(b);
        EXPECT_EQ(sim_cluster.phase_rounds(), routed_cluster.phase_rounds());
        worst = std::max(worst, sim_cluster.phase_rounds());
      }
      // A phase is a constant number of primitives (sort, gathers,
      // aggregates, one scatter), each at most ~1 + log_s(n) = O(1/phi)
      // rounds deep.
      const std::uint64_t tree_height =
          std::max<std::uint64_t>(1, sim_cluster.aggregate_rounds(n));
      EXPECT_LE(worst, 8 * (tree_height + 2))
          << "phase rounds exceed the O(1/phi) budget";
      // Per-machine delivery loads stay within s in every cell.  (Pinning
      // machines far below n^{1-phi} legitimately violates the *total*
      // capacity check, so cluster.ok() is not asserted here.)
      EXPECT_LE(sim_cluster.comm_ledger().max_machine_load(),
                sim_cluster.local_capacity_words());
      EXPECT_EQ(sim_cluster.comm_ledger().rounds(),
                routed_cluster.comm_ledger().rounds());
    }
  }
}

// ---------------- negative tests: memory budget ------------------------------------

TEST(SimulationBudget, UndersizedScratchRaisesStructuredDiagnostic) {
  // A strict cluster with a deliberately undersized s must reject an
  // over-budget sub-batch with MemoryBudgetExceeded — before any machine
  // has ingested anything — and the diagnostic must carry the offending
  // geometry.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 41;
  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 2;
  mc.local_memory_words = 16;  // s = 16 words: ten 2-word deltas overflow
  mc.strict = true;
  mpc::Cluster cluster(mc);
  mpc::Simulator sim(cluster);
  VertexSketches vs(n, cfg);

  // Star batch: every delta has endpoint 0, so machine 0 receives all ten.
  std::vector<EdgeDelta> batch;
  for (VertexId v = 1; v <= 10; ++v)
    batch.push_back(EdgeDelta{make_edge(0, v), +1});
  mpc::RoutedBatch routed;
  cluster.route_batch(batch, n, routed);

  try {
    sim.execute(routed, "budget-test", vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.machine(), 0u);
    EXPECT_EQ(e.budget_words(), 16u);
    EXPECT_GT(e.needed_words(), e.budget_words());
    EXPECT_EQ(e.needed_words(),
              mpc::RoutedBatch::kWordsPerDelta * batch.size());
    EXPECT_EQ(e.label(), "budget-test");
    EXPECT_NE(std::string(e.what()).find("memory budget exceeded"),
              std::string::npos);
  }
  // The batch was rejected whole: no machine ingested, no round charged.
  EXPECT_EQ(vs.allocated_words(), 0u);
  EXPECT_EQ(cluster.comm_ledger().rounds(), 0u);
  EXPECT_EQ(sim.stats().machine_steps, 0u);
}

TEST(SimulationBudget, ReliablyRaisesAcrossTheMatrixWhenUndersized) {
  // Whatever the (phi, machines) cell, an s smaller than the largest
  // sub-batch must raise — the diagnostic is a function of the routed
  // loads, not of luck.
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 3;
  cfg.seed = 43;
  const auto deltas = random_deltas(n, 200, 44);
  for (const double phi : kPhis) {
    for (const std::uint64_t machines : kMachineCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "phi=" << phi << " machines=" << machines);
      mpc::MpcConfig mc = test::small_mpc_config(n, phi);
      mc.machines = machines;
      mc.strict = true;
      mpc::Cluster cluster(mc);
      mpc::RoutedBatch routed;
      cluster.route_batch(deltas, n, routed);
      ASSERT_GT(routed.max_load_words(), 1u);
      // Scratch override one word below the binding load.
      mpc::Simulator sim(cluster, routed.max_load_words() - 1);
      VertexSketches vs(n, cfg);
      EXPECT_THROW(sim.execute(routed, "undersized", vs),
                   mpc::MemoryBudgetExceeded);
      EXPECT_EQ(vs.allocated_words(), 0u);
    }
  }
}

TEST(SimulationBudget, StrictClusterBindsAtLocalMemoryEvenWithLargerScratch) {
  // A scratch override above s must not defeat the reject-whole contract:
  // a load in (s, scratch] still raises MemoryBudgetExceeded (budget =
  // min(scratch, s)) before any round or ledger state is charged, never a
  // post-charge CheckError from charge_routed.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 2;
  cfg.seed = 49;
  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 2;
  mc.local_memory_words = 16;  // s = 16 < the star sub-batch's 20 words
  mc.strict = true;
  mpc::Cluster cluster(mc);
  mpc::Simulator sim(cluster, /*scratch_words=*/1024);  // scratch >> s
  VertexSketches vs(n, cfg);
  std::vector<EdgeDelta> batch;
  for (VertexId v = 1; v <= 10; ++v)
    batch.push_back(EdgeDelta{make_edge(0, v), +1});
  mpc::RoutedBatch routed;
  cluster.route_batch(batch, n, routed);
  try {
    sim.execute(routed, "over-s", vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.budget_words(), 16u);
    EXPECT_GT(e.needed_words(), 16u);
  }
  EXPECT_EQ(cluster.rounds(), 0u);
  EXPECT_EQ(cluster.comm_ledger().rounds(), 0u);
  EXPECT_EQ(vs.allocated_words(), 0u);
  EXPECT_EQ(sim.stats().batches, 0u);
}

TEST(SimulationBudget, NonStrictClusterRecordsOverrunsAndProceeds) {
  // Benches measure headroom instead of dying: with a non-strict cluster
  // the overrun is counted in the simulator stats, the cluster records the
  // capacity violation (scratch == s), and the sketches still end up
  // byte-identical to flat ingest.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 45;
  const auto deltas = random_deltas(n, 120, 46);
  const auto sets = probe_sets(n, 47);

  VertexSketches flat(n, cfg);
  flat.update_edges(deltas);

  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 4;
  mc.local_memory_words = 8;  // far below any sub-batch
  mc.strict = false;
  mpc::Cluster cluster(mc);
  mpc::Simulator sim(cluster);
  VertexSketches vs(n, cfg);
  mpc::RoutedBatch routed;
  cluster.route_batch(deltas, n, routed);
  sim.execute(routed, "headroom", vs);

  EXPECT_GT(sim.stats().budget_overruns, 0u);
  EXPECT_GT(sim.stats().worst_overrun_words, 0u);
  EXPECT_FALSE(cluster.ok());
  expect_identical_samples(flat, vs, cfg.banks, sets);
  EXPECT_EQ(flat.allocated_words(), vs.allocated_words());
}

TEST(SimulationBudget, RejectsForeignRoutedBatchAndBadOrder) {
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 2;
  cfg.seed = 48;
  VertexSketches vs(n, cfg);
  mpc::Cluster four = test::make_cluster(n, 4);
  mpc::Cluster two = test::make_cluster(n, 2);
  const std::vector<EdgeDelta> batch{{make_edge(1, 2), +1}};
  mpc::RoutedBatch routed;
  four.route_batch(batch, n, routed);
  mpc::Simulator wrong_cluster(two);
  EXPECT_THROW(wrong_cluster.execute(routed, "foreign", vs), CheckError);

  mpc::Simulator sim(four);
  const std::vector<std::uint64_t> not_permutation{0, 1, 2, 2};
  EXPECT_THROW(sim.execute(routed, "order", vs, not_permutation), CheckError);
  const std::vector<std::uint64_t> too_short{0, 1};
  EXPECT_THROW(sim.execute(routed, "order", vs, too_short), CheckError);
}

}  // namespace
}  // namespace streammpc
