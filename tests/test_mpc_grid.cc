// Conformance suite for the 2-D (machine x bank) grid executor:
// thread-count invariance of simulated ingest (byte-identical sketches,
// identical CommLedger state, identical Stats including the overrun list
// in deterministic order, across ingest_threads {1, 2, 8} and machines
// {1, 4, 16, 64}, on a random stream and the hot-cell adversaries); the
// canonical machine-major serial order of the single-thread fallback;
// pre-mutation rejection by strict clusters even
// under a concurrent schedule; the resident-memory accounting
// (vertex blocks, resident sums, ledger peaks, resident-driven rejection,
// the resident counters against the page-map scan);
// and the process-wide pool: the thread budget of serial and nested front
// ends, and one shared pool driven from two threads at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/dynamic_connectivity.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "mpc/cluster.h"
#include "mpc/fault_injector.h"
#include "mpc/simulator.h"
#include "msf/approx_msf.h"
#include "sketch/graphsketch.h"
#include "test_support.h"

namespace streammpc {
namespace {

using test::expect_identical_samples;
using test::probe_sets;
using test::random_deltas;

constexpr unsigned kThreadCounts[] = {1, 2, 8};
constexpr std::uint64_t kMachineCounts[] = {1, 4, 16, 64};

// ---------------- ThreadPool grid scheduling --------------------------------

TEST(GridThreadPool, SerialGridRunsInCanonicalRowMajorOrder) {
  // threads = 1 must execute cells strictly in (row-major) canonical order
  // — for the Simulator's grid this is machine-major, the readable
  // debugging baseline.
  ThreadPool pool(1);
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.parallel_for_grid(3, 4, [&](std::size_t r, std::size_t c) {
    seen.emplace_back(r, c);
  });
  ASSERT_EQ(seen.size(), 12u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i / 4) << "cell " << i;
    EXPECT_EQ(seen[i].second, i % 4) << "cell " << i;
  }
}

TEST(GridThreadPool, ParallelGridCoversEveryCellExactlyOnce) {
  ThreadPool pool(4);
  for (const auto [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {7, 3}, {16, 12}, {64, 5}}) {
    std::vector<std::atomic<int>> hits(rows * cols);
    pool.parallel_for_grid(rows, cols, [&](std::size_t r, std::size_t c) {
      hits[r * cols + c].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "rows=" << rows << " cols=" << cols
                                   << " cell=" << i;
    }
  }
}

TEST(GridThreadPool, StealingBalancesSkewedRows) {
  // One row carries all the work (the star-stream shape): every cell must
  // still run exactly once and the pool must not deadlock.
  ThreadPool pool(3);
  const std::size_t rows = 8, cols = 6;
  std::vector<std::atomic<int>> hits(rows * cols);
  std::atomic<std::uint64_t> work{0};
  pool.parallel_for_grid(rows, cols, [&](std::size_t r, std::size_t c) {
    hits[r * cols + c].fetch_add(1);
    if (r == 0) {  // the heavy machine
      std::uint64_t x = 0;
      for (int i = 0; i < 20000; ++i) x += static_cast<std::uint64_t>(i) * c;
      work.fetch_add(x);
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(GridThreadPool, FirstExceptionPropagatesAfterJoin) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 17) throw std::runtime_error("cell 17");
                        }),
      std::runtime_error);
  // The pool survives and remains usable after a throwing job.
  std::vector<std::atomic<int>> hits(8);
  pool.parallel_for(8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------- thread-count invariance ------------------------------------

void expect_identical_stats(const mpc::Simulator::Stats& a,
                            const mpc::Simulator::Stats& b) {
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.machine_steps, b.machine_steps);
  EXPECT_EQ(a.cell_steps, b.cell_steps);
  EXPECT_EQ(a.applied_updates, b.applied_updates);
  EXPECT_EQ(a.peak_step_words, b.peak_step_words);
  EXPECT_EQ(a.peak_resident_words, b.peak_resident_words);
  EXPECT_EQ(a.peak_machine_words, b.peak_machine_words);
  EXPECT_EQ(a.budget_overruns, b.budget_overruns);
  EXPECT_EQ(a.worst_overrun_words, b.worst_overrun_words);
  EXPECT_EQ(a.overruns, b.overruns);  // deterministic order required
}

void expect_identical_ledgers(const mpc::CommLedger& a,
                              const mpc::CommLedger& b) {
  ASSERT_EQ(a.machines(), b.machines());
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.max_machine_load(), b.max_machine_load());
  EXPECT_EQ(a.words_by_machine(), b.words_by_machine());
  EXPECT_EQ(a.peak_resident_words(), b.peak_resident_words());
  EXPECT_EQ(a.peak_machine_total_words(), b.peak_machine_total_words());
  EXPECT_EQ(a.resident_peak_by_machine(), b.resident_peak_by_machine());
}

// Drives chunked simulated ingest with an explicit ingest thread count.
struct SimRun {
  mpc::Cluster cluster;
  mpc::Simulator sim;
  VertexSketches sketches;

  SimRun(VertexId n, const GraphSketchConfig& cfg, std::uint64_t machines,
         unsigned threads, std::uint64_t scratch_words = 0)
      : cluster(test::make_cluster(n, machines)),
        sim(cluster, scratch_words),
        sketches(n, test::with_threads(cfg, threads)) {}

  void ingest(std::span<const EdgeDelta> deltas, std::size_t chunk) {
    mpc::RoutedBatch routed;
    for (std::size_t start = 0; start < deltas.size(); start += chunk) {
      const std::size_t len = std::min(chunk, deltas.size() - start);
      cluster.route_batch(deltas.subspan(start, len), sketches.n(), routed);
      sim.execute(routed, "grid-invariance", sketches);
    }
  }
};

TEST(GridConformance, ThreadCountInvarianceAcrossMachineCounts) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 6;
  cfg.seed = 71003;
  const auto sets = probe_sets(n, 73);
  // A random stream, then the hot-cell adversaries that pile the batch
  // onto one machine's cells: a star (every delta hits hub 0), a
  // power-law stream (machine 0 hot), and a one-block collision.
  Rng rng(71004);
  const std::pair<const char*, std::vector<EdgeDelta>> streams[] = {
      {"random", random_deltas(n, 400, 72)},
      {"star", test::star_deltas(n)},
      {"power-law", gen::power_law_deltas(n, 400, rng)},
      {"hot-block", gen::hot_block_deltas(n, 16, 400, rng)},
  };

  for (const auto& [name, deltas] : streams) {
    VertexSketches flat(n, cfg);
    flat.update_edges(deltas);

    for (const std::uint64_t machines : kMachineCounts) {
      SimRun baseline(n, cfg, machines, /*threads=*/1);
      baseline.ingest(deltas, 64);
      expect_identical_samples(flat, baseline.sketches, cfg.banks, sets);
      EXPECT_EQ(flat.allocated_words(), baseline.sketches.allocated_words())
          << name;

      for (const unsigned threads : kThreadCounts) {
        if (threads == 1) continue;
        SCOPED_TRACE(::testing::Message() << name << " machines=" << machines
                                          << " threads=" << threads);
        SimRun run(n, cfg, machines, threads);
        run.ingest(deltas, 64);
        // Byte-identical sketches, identical ledger, identical stats — the
        // grid schedule must be unobservable.
        expect_identical_samples(baseline.sketches, run.sketches, cfg.banks,
                                 sets);
        EXPECT_EQ(baseline.sketches.allocated_words(),
                  run.sketches.allocated_words());
        expect_identical_ledgers(baseline.cluster.comm_ledger(),
                                 run.cluster.comm_ledger());
        expect_identical_stats(baseline.sim.stats(), run.sim.stats());
        EXPECT_EQ(baseline.cluster.rounds(), run.cluster.rounds());
        EXPECT_EQ(baseline.cluster.comm_total(), run.cluster.comm_total());
      }
    }
  }
}

TEST(GridConformance, ThreadCountInvarianceIncludesOverrunLists) {
  // An undersized scratch budget on a non-strict cluster produces overruns
  // — the recorded list (machine ids, needed/resident/budget words, order)
  // must be identical for every thread count.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 74001;
  const auto deltas = random_deltas(n, 240, 75);
  const auto sets = probe_sets(n, 76);

  SimRun baseline(n, cfg, 4, /*threads=*/1, /*scratch_words=*/64);
  baseline.ingest(deltas, 48);
  ASSERT_GT(baseline.sim.stats().budget_overruns, 0u);
  ASSERT_EQ(baseline.sim.stats().budget_overruns,
            baseline.sim.stats().overruns.size());

  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SimRun run(n, cfg, 4, threads, /*scratch_words=*/64);
    run.ingest(deltas, 48);
    expect_identical_samples(baseline.sketches, run.sketches, cfg.banks, sets);
    expect_identical_stats(baseline.sim.stats(), run.sim.stats());
    expect_identical_ledgers(baseline.cluster.comm_ledger(),
                             run.cluster.comm_ledger());
  }
}

// ---------------- strict rejection under a concurrent schedule ---------------

TEST(GridBudget, StrictRejectsPreMutationEvenWithConcurrentCells) {
  // A strict cluster must reject an over-budget batch BEFORE any cell has
  // mutated anything — also when the executor is multi-threaded and other
  // cells could already have been scheduled.  State after the throw must
  // equal the state before the batch, bit for bit.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 77001;
  const auto sets = probe_sets(n, 78);
  const auto good = random_deltas(n, 40, 79);

  // Reference: only the good batch.
  VertexSketches reference(n, cfg);
  reference.update_edges(good);

  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 2;
  mc.strict = true;
  mpc::Cluster cluster(mc);
  mpc::RoutedBatch routed;
  cluster.route_batch(good, n, routed);
  // Scratch override sized so the good batch fits (resident + load) but
  // the star batch's hub machine cannot.
  VertexSketches probe(n, cfg);
  probe.update_edges(good);
  const std::uint64_t resident_after =
      probe.resident_words(0, cluster) + probe.resident_words(1, cluster);
  const std::uint64_t scratch = resident_after + 512;

  mpc::Simulator sim(cluster, scratch);
  VertexSketches vs(n, test::with_threads(cfg, 8));
  sim.execute(routed, "good", vs);
  expect_identical_samples(reference, vs, cfg.banks, sets);
  const std::uint64_t rounds_before = cluster.comm_ledger().rounds();
  const auto stats_before = sim.stats();

  // Star batch: every delta lands on machine 0, blowing its budget.
  std::vector<EdgeDelta> star;
  for (VertexId v = 1; v < n; ++v)
    star.push_back(EdgeDelta{make_edge(0, v), +1});
  // Repeat to guarantee the load alone exceeds the scratch budget.
  std::vector<EdgeDelta> big;
  for (int rep = 0; rep < 256; ++rep)
    for (const EdgeDelta& d : star) big.push_back(d);
  cluster.route_batch(big, n, routed);
  ASSERT_GT(routed.load_words[0] + vs.resident_words(0, cluster), scratch);

  try {
    sim.execute(routed, "over-budget", vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.machine(), 0u);
    EXPECT_GT(e.needed_words(), e.budget_words());
    EXPECT_EQ(e.needed_words(),
              e.resident_words() + routed.load_words[0]);
  }
  // Pre-mutation contract: sketches, ledger, and stats untouched.
  expect_identical_samples(reference, vs, cfg.banks, sets);
  EXPECT_EQ(cluster.comm_ledger().rounds(), rounds_before);
  EXPECT_EQ(sim.stats().batches, stats_before.batches);
  EXPECT_EQ(sim.stats().cell_steps, stats_before.cell_steps);
}

// ---------------- resident-memory accounting ---------------------------------

TEST(ResidentAccounting, VertexBlocksPartitionAndInvertMachineOf) {
  for (const std::uint64_t universe : {1ull, 2ull, 7ull, 96ull, 1024ull}) {
    for (const std::uint64_t machines : {1ull, 3ull, 16ull, 64ull, 200ull}) {
      mpc::Cluster cluster = test::make_cluster(
          std::max<std::uint64_t>(universe, 2), machines);
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (std::uint64_t m = 0; m < machines; ++m) {
        const auto [first, last] = cluster.vertex_block(m, universe);
        EXPECT_EQ(first, prev_end) << "blocks must tile the universe";
        EXPECT_LE(first, last);
        for (std::uint64_t v = first; v < last; ++v) {
          EXPECT_EQ(cluster.machine_of(v, universe), m);
        }
        covered += last - first;
        prev_end = last;
      }
      EXPECT_EQ(covered, universe)
          << "universe=" << universe << " machines=" << machines;
    }
  }
}

TEST(ResidentAccounting, ResidentWordsSumToAllocatedWithinRounding) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 5;
  cfg.seed = 80001;
  VertexSketches vs(n, cfg);
  vs.update_edges(random_deltas(n, 300, 81));

  for (const std::uint64_t machines : kMachineCounts) {
    mpc::Cluster cluster = test::make_cluster(n, machines);
    std::uint64_t sum = 0;
    for (std::uint64_t m = 0; m < machines; ++m) {
      sum += vs.resident_words(m, cluster);
    }
    // Page-map words are charged at half a word per entry, so each
    // (block, bank, store) loses at most one word of rounding.
    const std::uint64_t slack = machines * cfg.banks * 20;
    EXPECT_LE(sum, vs.allocated_words());
    EXPECT_GE(sum + slack, vs.allocated_words())
        << "machines=" << machines;
  }
}

TEST(ResidentAccounting, SimulatorTracksResidentGrowthOnLedgerAndStats) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 82001;
  const auto deltas = random_deltas(n, 300, 83);

  SimRun run(n, cfg, 4, /*threads=*/2);
  run.ingest(deltas, 50);

  const mpc::Simulator::Stats& stats = run.sim.stats();
  EXPECT_GT(stats.peak_resident_words, 0u);
  EXPECT_GE(stats.peak_machine_words, stats.peak_resident_words);
  EXPECT_GE(stats.peak_machine_words, stats.peak_step_words);
  // The ledger saw the same peaks (they are folded from the same spans).
  const mpc::CommLedger& ledger = run.cluster.comm_ledger();
  EXPECT_EQ(ledger.peak_resident_words(), stats.peak_resident_words);
  EXPECT_EQ(ledger.peak_machine_total_words(), stats.peak_machine_words);
  ASSERT_EQ(ledger.resident_peak_by_machine().size(), 4u);
  std::uint64_t max_by_machine = 0;
  for (const std::uint64_t w : ledger.resident_peak_by_machine()) {
    max_by_machine = std::max(max_by_machine, w);
  }
  EXPECT_EQ(max_by_machine, ledger.peak_resident_words());
  // The final resident state is what the sketches report now.
  std::uint64_t current = 0;
  for (std::uint64_t m = 0; m < 4; ++m) {
    current = std::max(current, run.sketches.resident_words(m, run.cluster));
  }
  EXPECT_LE(ledger.peak_resident_words(), current)
      << "peaks are recorded pre-delivery, so the final shard is >= the "
         "last recorded peak";
}

TEST(ResidentAccounting, StrictClusterRejectsWhenResidentShardOutgrowsS) {
  // The load alone fits easily; the accumulated resident shard is what
  // breaks the budget — exactly the condition delivery-only accounting
  // (PR 3) could not see.
  const VertexId n = 64;
  GraphSketchConfig cfg;
  cfg.banks = 3;
  cfg.seed = 84001;
  const auto batch1 = random_deltas(n, 60, 85);
  const auto batch2 = random_deltas(n, 20, 86);

  // Learn the resident footprint after batch1 with a throwaway instance.
  mpc::Cluster sizing = test::make_cluster(n, 1);
  VertexSketches probe(n, cfg);
  probe.update_edges(batch1);
  const std::uint64_t resident1 = probe.resident_words(0, sizing);
  ASSERT_GT(resident1, 0u);
  const std::uint64_t load2 = 2 * batch2.size();

  mpc::MpcConfig mc = test::small_mpc_config(n);
  mc.machines = 1;
  mc.local_memory_words = resident1 + load2 - 1;  // batch2 must not fit
  mc.strict = true;
  mpc::Cluster cluster(mc);
  mpc::Simulator sim(cluster);
  VertexSketches vs(n, cfg);
  mpc::RoutedBatch routed;
  cluster.route_batch(batch1, n, routed);
  sim.execute(routed, "fits", vs);  // resident 0 + load1 <= s
  EXPECT_EQ(vs.resident_words(0, cluster), resident1);

  cluster.route_batch(batch2, n, routed);
  try {
    sim.execute(routed, "resident-bound", vs);
    FAIL() << "expected MemoryBudgetExceeded";
  } catch (const mpc::MemoryBudgetExceeded& e) {
    EXPECT_EQ(e.machine(), 0u);
    EXPECT_EQ(e.resident_words(), resident1);
    EXPECT_EQ(e.needed_words(), resident1 + load2);
    EXPECT_EQ(e.budget_words(), resident1 + load2 - 1);
  }
}

TEST(ResidentAccounting, CommLedgerResidentFoldUnit) {
  mpc::CommLedger ledger(3);
  const std::vector<std::uint64_t> resident1{10, 0, 5};
  const std::vector<std::uint64_t> delivered1{4, 8, 0};
  ledger.record_round(delivered1);
  ledger.record_resident(resident1, delivered1);
  EXPECT_EQ(ledger.peak_resident_words(), 10u);
  EXPECT_EQ(ledger.peak_machine_total_words(), 14u);

  const std::vector<std::uint64_t> resident2{2, 20, 5};
  const std::vector<std::uint64_t> delivered2{0, 3, 100};
  ledger.record_round(delivered2);
  ledger.record_resident(resident2, delivered2);
  EXPECT_EQ(ledger.peak_resident_words(), 20u);
  EXPECT_EQ(ledger.peak_machine_total_words(), 105u);
  const std::vector<std::uint64_t> expected_peaks{10, 20, 5};
  EXPECT_EQ(ledger.resident_peak_by_machine(), expected_peaks);

  ledger.reset(3);
  EXPECT_EQ(ledger.peak_resident_words(), 0u);
  EXPECT_EQ(ledger.peak_machine_total_words(), 0u);
  EXPECT_TRUE(ledger.resident_peak_by_machine().empty());
}

// ---------------- Transactional rollback (ISSUE 6) --------------------------

TEST(GridRollback, MidGridFaultRestoresExactBytesAcrossThreadsAndMachines) {
  // A cell fault injected into the second batch's step window must leave
  // the sketches byte-identical to the post-batch-1 state — same samples,
  // same allocated words — no matter how the grid was scheduled.  The
  // skip-cell plan makes the faulted cell deterministic, so this holds for
  // every thread count, and the rollback must undo every OTHER cell of the
  // batch, which parallel schedules interleave differently.
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 5;
  cfg.seed = 71501;
  const auto deltas = random_deltas(n, 400, 71502);
  const auto sets = probe_sets(n, 71503);
  const std::span<const EdgeDelta> all(deltas);
  const auto batch1 = all.first(200);
  const auto batch2 = all.subspan(200);

  VertexSketches after1(n, cfg);
  after1.update_edges(batch1);
  VertexSketches after2(n, cfg);
  after2.update_edges(batch1);
  after2.update_edges(batch2);

  for (const std::uint64_t machines : {std::uint64_t{4}, std::uint64_t{16}}) {
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "machines=" << machines << " threads=" << threads);
      mpc::FaultInjector injector;
      SimRun run(n, cfg, machines, threads);
      run.sim.attach_fault_injector(&injector);
      mpc::RoutedBatch routed;
      run.cluster.route_batch(batch1, n, routed);
      run.sim.execute(routed, "rollback-b1", run.sketches);
      expect_identical_samples(after1, run.sketches, cfg.banks, sets);
      const std::uint64_t words_after1 = run.sketches.allocated_words();

      // Plant the fault a few steps into batch 2's window (the window
      // starts at the current success-only cell-step clock, so this is
      // exact for any machine count).
      injector.add_cell_fault(run.sim.stats().cell_steps + 3);
      run.cluster.route_batch(batch2, n, routed);
      EXPECT_THROW(run.sim.execute(routed, "rollback-b2", run.sketches),
                   mpc::TransientFault);
      // Byte-exact restore of the post-batch-1 state.
      expect_identical_samples(after1, run.sketches, cfg.banks, sets);
      EXPECT_EQ(run.sketches.allocated_words(), words_after1);
      EXPECT_EQ(run.sim.stats().rollbacks, 1u);
      EXPECT_EQ(injector.stats().cell_faults_fired, 1u);

      // And the state is still live, not merely readable: redelivering the
      // batch (fault consumed) lands on the flat two-batch reference.
      run.sim.execute(routed, "rollback-b2", run.sketches);
      expect_identical_samples(after2, run.sketches, cfg.banks, sets);
      EXPECT_EQ(run.sketches.allocated_words(), after2.allocated_words());
    }
  }
}

// ---------------- resident counters vs the page-map scan ---------------------

// kMachineCounts, plus `extra_machines` when nonzero.
std::vector<std::uint64_t> machine_counts(std::uint64_t extra_machines) {
  std::vector<std::uint64_t> counts(std::begin(kMachineCounts),
                                    std::end(kMachineCounts));
  if (extra_machines != 0) counts.push_back(extra_machines);
  return counts;
}

// Every block's counter answer equals the page-map scan oracle, for each
// vertex block at each of machine_counts(extra_machines).
void expect_arena_matches_scan(const BankArena& arena, VertexId n,
                               const std::string& stage,
                               std::uint64_t extra_machines = 0) {
  for (const std::uint64_t machines : machine_counts(extra_machines)) {
    const mpc::Cluster cluster = test::make_cluster(n, machines);
    for (std::uint64_t m = 0; m < machines; ++m) {
      const auto [first, last] = cluster.vertex_block(m, n);
      const auto lo = static_cast<VertexId>(first);
      const auto hi = static_cast<VertexId>(last);
      EXPECT_EQ(arena.resident_words(lo, hi),
                arena.resident_words_scan(lo, hi))
          << stage << " machines=" << machines << " block=" << m;
    }
  }
}

// The same per bank, and the bulk fold (and the per-machine overload)
// against the summed scan.
void expect_counters_match_scan(const VertexSketches& vs,
                                const std::string& stage,
                                std::uint64_t extra_machines = 0) {
  for (unsigned b = 0; b < vs.banks(); ++b)
    expect_arena_matches_scan(vs.arena(b), vs.n(), stage, extra_machines);
  for (const std::uint64_t machines : machine_counts(extra_machines)) {
    const mpc::Cluster cluster = test::make_cluster(vs.n(), machines);
    std::vector<std::uint64_t> bulk(machines, 7);  // overwritten, not added
    vs.resident_words(cluster, bulk);
    for (std::uint64_t m = 0; m < machines; ++m) {
      const auto [first, last] = cluster.vertex_block(m, vs.n());
      std::uint64_t scan = 0;
      for (unsigned b = 0; b < vs.banks(); ++b) {
        scan += vs.arena(b).resident_words_scan(static_cast<VertexId>(first),
                                                static_cast<VertexId>(last));
      }
      EXPECT_EQ(bulk[m], scan)
          << stage << " machines=" << machines << " machine=" << m;
      EXPECT_EQ(vs.resident_words(m, cluster), scan)
          << stage << " machines=" << machines << " machine=" << m;
    }
  }
}

// Levels (over all banks) holding at least one page.  On an arena that was
// never reset or rolled back, a level's page map is populated exactly
// when the level holds a page.
std::size_t populated_levels(const VertexSketches& vs) {
  std::size_t populated = 0;
  for (unsigned b = 0; b < vs.banks(); ++b) {
    const BankArena& arena = vs.arena(b);
    for (unsigned level = 0; level < arena.levels(); ++level) {
      for (VertexId v = 0; v < vs.n(); ++v) {
        if (!arena.level_records(level, v).empty()) {
          ++populated;
          break;
        }
      }
    }
  }
  return populated;
}

TEST(ResidentAccounting, CountersMatchScan) {
  const VertexId n = 96;
  GraphSketchConfig cfg;
  cfg.banks = 4;
  cfg.seed = 85001;
  const auto deltas = random_deltas(n, 300, 85002);
  const std::span<const EdgeDelta> all(deltas);

  // Random flat ingest: the counters track every chunk's page growth.
  VertexSketches flat(n, cfg);
  expect_counters_match_scan(flat, "empty");
  for (std::size_t start = 0; start < all.size(); start += 75) {
    flat.update_edges(all.subspan(start, 75));
    expect_counters_match_scan(flat, "flat");
  }

  // Simulated ingest at every machine count.
  for (const std::uint64_t machines : kMachineCounts) {
    SimRun run(n, cfg, machines, /*threads=*/2);
    run.ingest(deltas, 50);
    expect_counters_match_scan(run.sketches, "simulated");
  }

  // Fault rollback of a batch that first populates deep-level maps: the
  // rollback frees the batch's pages and clears those maps (the !had_map
  // path), and the counters must drop back with them.
  {
    const auto batch1 = all.first(2);
    const auto batch2 = all.subspan(2);
    VertexSketches after1(n, cfg);
    after1.update_edges(batch1);
    VertexSketches after2(n, cfg);
    after2.update_edges(batch1);
    after2.update_edges(batch2);
    ASSERT_GT(populated_levels(after2), populated_levels(after1))
        << "batch 2 must populate an overflow map batch 1 left empty";

    mpc::FaultInjector injector;
    SimRun run(n, cfg, 4, /*threads=*/2);
    run.sim.attach_fault_injector(&injector);
    mpc::RoutedBatch routed;
    run.cluster.route_batch(batch1, n, routed);
    run.sim.execute(routed, "counters-b1", run.sketches);
    injector.add_cell_fault(run.sim.stats().cell_steps + 3);
    run.cluster.route_batch(batch2, n, routed);
    EXPECT_THROW(run.sim.execute(routed, "counters-b2", run.sketches),
                 mpc::TransientFault);
    EXPECT_EQ(run.sketches.allocated_words(), after1.allocated_words());
    expect_counters_match_scan(run.sketches, "rollback");
    for (std::uint64_t m = 0; m < 4; ++m) {
      EXPECT_EQ(run.sketches.resident_words(m, run.cluster),
                after1.resident_words(m, run.cluster));
    }
    run.sim.execute(routed, "counters-b2", run.sketches);
    expect_counters_match_scan(run.sketches, "redelivered");
  }

  // A kDouble grow: the blocks halve, the counters answer any boundary.
  {
    const VertexId gn = 128;
    const std::uint64_t machines = 4;
    const auto star = test::star_deltas(gn);
    const auto max_resident = [&](std::uint64_t p) {
      const mpc::Cluster sizing = test::make_cluster(gn, p);
      VertexSketches vs(gn, cfg);
      vs.update_edges(star);
      std::uint64_t peak = 0;
      for (std::uint64_t m = 0; m < p; ++m)
        peak = std::max(peak, vs.resident_words(m, sizing));
      return peak;
    };
    // Fits the final shards at 2P machines but not at P: only growing can
    // complete the stream.
    const std::uint64_t budget =
        max_resident(2 * machines) + 16 * mpc::RoutedBatch::kWordsPerDelta;
    ASSERT_GT(max_resident(machines), budget);

    mpc::Cluster cluster = test::make_cluster(gn, machines, 0.5, true);
    mpc::SchedulerConfig sc;
    sc.policy = mpc::SplitPolicy::kProportional;
    sc.grow = mpc::GrowPolicy::kDouble;
    mpc::Simulator sim(cluster, budget, sc);
    VertexSketches vs(gn, cfg);
    for (std::size_t start = 0; start < star.size(); start += 8) {
      const std::size_t len = std::min<std::size_t>(8, star.size() - start);
      sim.execute(std::span<const EdgeDelta>(star).subspan(start, len), gn,
                  "counters-grow", vs);
    }
    ASSERT_EQ(sim.stats().grows, 1u);
    ASSERT_EQ(cluster.machines(), 2 * machines);
    expect_counters_match_scan(vs, "grow", cluster.machines());
  }
}

// ---------------- one pool per width ----------------------------------------

// Live threads of this process; nullopt where /proc/self/task is absent.
std::optional<std::size_t> live_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator tasks("/proc/self/task", ec);
  if (ec) return std::nullopt;
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator{}));
}

std::vector<Batch> churn(VertexId n, std::uint64_t seed) {
  gen::ChurnOptions opt;
  opt.n = n;
  opt.initial_edges = 2 * n;
  opt.num_batches = 6;
  opt.batch_size = 48;
  Rng rng(seed);
  return gen::churn_stream(opt, rng);
}

TEST(ThreadBudget, SerialSimulatedFrontEndAddsNoThread) {
  if (!live_threads()) GTEST_SKIP() << "/proc/self/task is unavailable";
  const VertexId n = 96;
  mpc::Cluster cluster = test::make_cluster(n, 8);
  ConnectivityConfig cfg;
  cfg.sketch.ingest_threads = 1;
  cfg.exec_mode = mpc::ExecMode::kSimulated;
  DynamicConnectivity dc(n, cfg, &cluster);
  const auto batches = churn(n, 90001);
  const std::size_t before = *live_threads();
  dc.apply_batch(batches.front());
  EXPECT_EQ(*live_threads(), before);
}

TEST(ThreadBudget, NestedLevelsShareOnePool) {
  // Synchronous simulated levels, and async levels under kRouted whose
  // gutters drain on the writer: either way every level's cells run on
  // the one shared pool of the default width, so the nested instances
  // add at most that pool's hw - 1 workers however many levels there are.
  if (!live_threads()) GTEST_SKIP() << "/proc/self/task is unavailable";
  const VertexId n = 96;
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async kRouted" : "sync kSimulated");
    mpc::Cluster cluster = test::make_cluster(n, 8);
    ApproxMsfConfig cfg;
    cfg.connectivity.exec_mode =
        async ? mpc::ExecMode::kRouted : mpc::ExecMode::kSimulated;
    cfg.connectivity.async_ingest = async;
    const std::size_t before = *live_threads();
    ApproxMsf msf(n, cfg, &cluster);
    ASSERT_GE(msf.instances(), 8u);
    Rng rng(90002);
    const auto stream = gen::insert_stream(
        gen::with_random_weights(gen::gnm(n, 3 * n, rng), 1, cfg.w_max, rng),
        rng);
    for (const Batch& batch : gen::into_batches(stream, 64)) {
      msf.apply_batch(batch);
    }
    EXPECT_LE(*live_threads(), before + (hw - 1));
  }
}

TEST(SharedPool, TwoFrontEndsOnTwoThreadsMatchSerial) {
  // Both front ends draw on ThreadPool::shared(4); whichever finds it busy
  // runs its cells serially on its own thread.  Neither may notice.
  const VertexId n = 96;
  constexpr unsigned kBanks = 6;
  const std::vector<Batch> streams[] = {churn(n, 90011), churn(n, 90012)};
  struct Run {
    mpc::Cluster cluster;
    DynamicConnectivity dc;
    Run(VertexId n, unsigned threads)
        : cluster(test::make_cluster(n, 8)),
          dc(n, config(threads), &cluster) {}
    static ConnectivityConfig config(unsigned threads) {
      ConnectivityConfig cfg;
      cfg.sketch.banks = kBanks;
      cfg.sketch.ingest_threads = threads;
      cfg.exec_mode = mpc::ExecMode::kSimulated;
      return cfg;
    }
    void apply(const std::vector<Batch>& batches) {
      for (const Batch& batch : batches) dc.apply_batch(batch);
    }
  };
  Run serial[] = {Run(n, 1), Run(n, 1)};
  Run shared[] = {Run(n, 4), Run(n, 4)};
  ASSERT_NE(shared[0].dc.sketches().pool(64), nullptr);
  ASSERT_EQ(shared[0].dc.sketches().pool(64), shared[1].dc.sketches().pool(64));
  for (int i = 0; i < 2; ++i) serial[i].apply(streams[i]);
  std::jthread other([&] { shared[1].apply(streams[1]); });
  shared[0].apply(streams[0]);
  other.join();

  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(::testing::Message() << "stream " << i);
    for (unsigned bank = 0; bank < kBanks; ++bank) {
      test::expect_identical_records(shared[i].dc.sketches().arena(bank),
                                     serial[i].dc.sketches().arena(bank), n);
    }
    EXPECT_EQ(serial[i].dc.spanning_forest(), shared[i].dc.spanning_forest());
    expect_identical_ledgers(serial[i].cluster.comm_ledger(),
                             shared[i].cluster.comm_ledger());
  }
}

}  // namespace
}  // namespace streammpc
