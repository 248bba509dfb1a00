// E13 — grid-parallel simulated ingest: throughput of the 2-D
// (machine x bank) cell executor across thread counts.
//
// The MPC model has every machine computing its round in parallel; the
// grid executor realizes that on the host by scheduling all (machine,
// bank) cells of a routed batch onto a work-stealing pool.  This bench
// routes one fixed churn stream, replays it through mpc::Simulator at
// several ingest_threads widths, and charts updates/second plus the
// speedup over the serial canonical executor.  Correctness is asserted
// inline: every thread count must leave byte-identically allocated
// sketches and identical ledger totals (the `ctest -L mpc` matrix checks
// the full observable surface; here we cross-check while measuring).
//
// On a single-core runner the speedup column records ~1.0x — the value of
// running it in CI is the regression trail for the JSON schema and the
// invariance cross-check, not the scaling numbers (see ROADMAP's
// multi-core-runner item).
//
// A second table times the Simulator's per-delivery resident fold
// (VertexSketches::resident_words(cluster, out), read from the arenas'
// resident counters) at bench scale — n = 2^14, 12 banks, 16 and 128
// machines — next to the page-map scan it replaced
// (BankArena::resident_words_scan, summed per machine).  Every block's
// counter answer is checked against the scan and the bench exits 1 on any
// disagreement; the times are recorded, not gated.  This row runs at full
// size under `--quick` too.
//
// Emits the tables on stdout and BENCH_mpc_parallel.json.  `--quick`
// shrinks the grid workload for CI smoke runs.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "graph/generators.h"
#include "graph/streams.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {
namespace {

struct ParallelConfig {
  VertexId n = 4096;
  std::size_t initial_edges = 8192;
  std::size_t num_batches = 16;
  std::size_t batch_size = 512;
  std::uint64_t machines = 16;
  unsigned banks = 12;
  int repeats = 3;  // best-of wall clock per thread count
};

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

std::string key(unsigned threads, const std::string& metric) {
  std::ostringstream os;
  os << "threads" << threads << "." << metric;
  return os.str();
}

// Resident-fold row: times the bulk counter fold and the per-machine scan
// over one power-law stream's sketches, and checks every block's counters
// against the scan.  Returns false on any disagreement.
bool run_resident_fold(bench::BenchJson& json) {
  constexpr VertexId kN = VertexId{1} << 14;
  constexpr unsigned kBanks = 12;
  constexpr std::size_t kUpdates = 8192;
  constexpr int kFoldRepeats = 50;
  constexpr int kScanRepeats = 5;

  bench::section(
      "E13b: resident fold (n = 2^14, banks = 12)",
      "a machine's resident shard plus its delivered sub-batch must fit in "
      "s (section 1.2); the probe checks that sum before every delivery from "
      "per-bank resident counters, one prefix per block boundary");

  GraphSketchConfig sketch;
  sketch.banks = kBanks;
  sketch.seed = 13003;
  sketch.ingest_threads = 1;
  VertexSketches sketches(kN, sketch);
  // The first query builds each arena's counters; asking before ingest
  // makes the ingest maintain them, which is what the check below tests.
  for (unsigned b = 0; b < kBanks; ++b)
    sketches.arena(b).resident_words(0, kN);
  Rng rng(13004);
  sketches.update_edges(gen::power_law_deltas(kN, kUpdates, rng));
  json.set("resident_fold.n", static_cast<std::uint64_t>(kN));
  json.set("resident_fold.banks", static_cast<std::uint64_t>(kBanks));
  json.set("resident_fold.updates", static_cast<std::uint64_t>(kUpdates));
  json.set("resident_fold.allocated_words", sketches.allocated_words());

  Table table({"machines", "fold us (best)", "scan us (best)", "blocks",
               "agree"});
  bool all_agree = true;
  for (const std::uint64_t machines : {std::uint64_t{16}, std::uint64_t{128}}) {
    mpc::MpcConfig mc;
    mc.n = kN;
    mc.machines = machines;
    mc.strict = false;
    const mpc::Cluster cluster(mc);
    std::vector<std::uint64_t> fold(machines);
    double fold_best = 0.0;
    for (int rep = 0; rep < kFoldRepeats; ++rep) {
      bench::Timer timer;
      sketches.resident_words(cluster, fold);
      const double us = timer.seconds() * 1e6;
      fold_best = rep == 0 ? us : std::min(fold_best, us);
    }
    std::vector<std::uint64_t> scan(machines);
    double scan_best = 0.0;
    for (int rep = 0; rep < kScanRepeats; ++rep) {
      bench::Timer timer;
      for (std::uint64_t m = 0; m < machines; ++m) {
        const auto [first, last] = cluster.vertex_block(m, kN);
        std::uint64_t words = 0;
        for (unsigned b = 0; b < kBanks; ++b) {
          words += sketches.arena(b).resident_words_scan(
              static_cast<VertexId>(first), static_cast<VertexId>(last));
        }
        scan[m] = words;
      }
      const double us = timer.seconds() * 1e6;
      scan_best = rep == 0 ? us : std::min(scan_best, us);
    }
    // Block by block and bank by bank, then the folded totals.
    bool agree = fold == scan;
    std::uint64_t blocks = 0;
    for (std::uint64_t m = 0; m < machines; ++m) {
      const auto [first, last] = cluster.vertex_block(m, kN);
      const auto lo = static_cast<VertexId>(first);
      const auto hi = static_cast<VertexId>(last);
      for (unsigned b = 0; b < kBanks; ++b, ++blocks) {
        const BankArena& arena = sketches.arena(b);
        if (arena.resident_words(lo, hi) != arena.resident_words_scan(lo, hi))
          agree = false;
      }
    }
    all_agree = all_agree && agree;

    table.add_row()
        .cell(static_cast<std::int64_t>(machines))
        .cell(fold_best, 1)
        .cell(scan_best, 1)
        .cell(static_cast<std::int64_t>(blocks))
        .cell(agree ? "yes" : "NO");
    const std::string prefix =
        "resident_fold.machines" + std::to_string(machines) + ".";
    json.set(prefix + "fold_us", fold_best);
    json.set(prefix + "scan_us", scan_best);
    json.set(prefix + "blocks_checked", blocks);
    json.set(prefix + "agree", agree ? std::uint64_t{1} : std::uint64_t{0});
  }
  table.print(std::cout);
  json.set("resident_fold.ok", all_agree ? std::uint64_t{1} : std::uint64_t{0});
  if (!all_agree) {
    std::cout << "\nFAIL: the resident counters disagree with the page-map "
                 "scan.\n";
  }
  return all_agree;
}

bool run(const ParallelConfig& cfg) {
  bench::BenchJson json("mpc_parallel");
  // The runner's core count gates how the scaling numbers should be read:
  // a 1-core container records ~1.0x by construction, so downstream
  // regression tooling needs the context next to the speedups.
  const unsigned hw = std::thread::hardware_concurrency();
  json.set("config.hardware_concurrency", static_cast<std::uint64_t>(hw));
  json.set("config.n", static_cast<std::uint64_t>(cfg.n));
  json.set("config.machines", cfg.machines);
  json.set("config.banks", static_cast<std::uint64_t>(cfg.banks));
  json.set("config.num_batches", static_cast<std::uint64_t>(cfg.num_batches));
  json.set("config.batch_size", static_cast<std::uint64_t>(cfg.batch_size));

  bench::section(
      "E13: grid-parallel simulated ingest (n = " + std::to_string(cfg.n) +
          ", machines = " + std::to_string(cfg.machines) + ", banks = " +
          std::to_string(cfg.banks) + ")",
      "all machines work in parallel within a round; the (machine, bank) "
      "grid exposes that parallelism with byte-identical results");

  // One delta stream for every thread count.
  Rng stream_rng(13001);
  gen::ChurnOptions churn;
  churn.n = cfg.n;
  churn.initial_edges = cfg.initial_edges;
  churn.num_batches = cfg.num_batches;
  churn.batch_size = cfg.batch_size;
  churn.delete_fraction = 0.35;
  const auto batches = gen::churn_stream(churn, stream_rng);
  std::vector<std::vector<EdgeDelta>> delta_batches;
  std::size_t total_updates = 0;
  for (const Batch& b : batches) {
    std::vector<EdgeDelta> deltas;
    deltas.reserve(b.size());
    for (const Update& u : b) {
      deltas.push_back(
          EdgeDelta{u.e, u.type == UpdateType::kInsert ? 1 : -1});
    }
    total_updates += deltas.size();
    delta_batches.push_back(std::move(deltas));
  }
  json.set("config.total_updates", static_cast<std::uint64_t>(total_updates));

  GraphSketchConfig sketch;
  sketch.banks = cfg.banks;
  sketch.seed = 13002;

  Table table({"threads", "cells/batch", "seconds (best)", "updates/s",
               "speedup", "peak res+load"});
  double serial_seconds = 0.0;
  std::uint64_t reference_words = 0;
  std::uint64_t reference_ledger = 0;
  for (const unsigned threads : kThreadCounts) {
    double best = 0.0;
    std::uint64_t allocated = 0;
    std::uint64_t ledger_words = 0;
    std::uint64_t peak_machine = 0;
    std::uint64_t cell_steps = 0;
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      mpc::MpcConfig mc;
      mc.n = cfg.n;
      mc.machines = cfg.machines;
      mc.strict = false;
      mpc::Cluster cluster(mc);
      mpc::Simulator sim(cluster);
      sketch.ingest_threads = threads;
      VertexSketches sketches(cfg.n, sketch);
      mpc::RoutedBatch routed;
      bench::Timer timer;
      for (const auto& deltas : delta_batches) {
        cluster.route_batch(deltas, cfg.n, routed);
        sim.execute(routed, "parallel-ingest", sketches);
      }
      const double seconds = timer.seconds();
      if (rep == 0 || seconds < best) best = seconds;
      allocated = sketches.allocated_words();
      ledger_words = cluster.comm_ledger().total_words();
      peak_machine = sim.stats().peak_machine_words;
      cell_steps = sim.stats().cell_steps / sim.stats().batches;
    }
    // Invariance cross-check: the schedule must be unobservable.
    if (threads == kThreadCounts[0]) {
      serial_seconds = best;
      reference_words = allocated;
      reference_ledger = ledger_words;
    } else {
      SMPC_CHECK_MSG(allocated == reference_words,
                     "thread count changed the allocated sketch state");
      SMPC_CHECK_MSG(ledger_words == reference_ledger,
                     "thread count changed the communication ledger");
    }
    const double ups = best == 0.0 ? 0.0
                                   : static_cast<double>(total_updates) / best;
    const double speedup = best == 0.0 ? 0.0 : serial_seconds / best;

    table.add_row()
        .cell(static_cast<std::int64_t>(threads))
        .cell(static_cast<std::int64_t>(cell_steps))
        .cell(best, 4)
        .cell(ups, 0)
        .cell(speedup, 2)
        .cell(static_cast<std::int64_t>(peak_machine));

    json.set(key(threads, "seconds_best"), best);
    json.set(key(threads, "updates_per_second"), ups);
    json.set(key(threads, "speedup_vs_serial"), speedup);
    json.set(key(threads, "cells_per_batch"), cell_steps);
    json.set(key(threads, "allocated_words"), allocated);
    json.set(key(threads, "peak_machine_words"), peak_machine);
  }
  table.print(std::cout);
  std::cout << "\nspeedup is vs the threads=1 canonical serial executor; all\n"
               "rows are asserted byte-identical on sketch allocation and\n"
               "ledger totals before being reported.\n";

  // Scaling check, softened to informational on runners that cannot scale:
  // on a 1-core box (hardware_concurrency <= 1, or unknown == 0) every
  // speedup is ~1.0x by construction, so a hard assert would only test the
  // scheduler overhead, not the scaling claim.  Multi-core runners get a
  // loud warning (and a JSON flag the perf trail can alert on) when the
  // widest thread count fails to beat serial at all; correctness is still
  // enforced above by the byte-identity asserts.
  const unsigned widest = kThreadCounts[std::size(kThreadCounts) - 1];
  const double widest_speedup =
      json.get_double(key(widest, "speedup_vs_serial"), 0.0);
  const bool can_scale = hw > 1;
  const bool scaled = widest_speedup >= 1.05;
  json.set("scaling.widest_threads", static_cast<std::uint64_t>(widest));
  json.set("scaling.checked", can_scale ? std::uint64_t{1} : std::uint64_t{0});
  json.set("scaling.ok",
           (!can_scale || scaled) ? std::uint64_t{1} : std::uint64_t{0});
  if (!can_scale) {
    std::cout << "\nNOTE: hardware_concurrency = " << hw
              << " — single-core runner, scaling is ~1.0x by construction;\n"
                 "speedup columns are recorded for the trail but not "
                 "checked.\n";
  } else if (!scaled) {
    std::cout << "\nWARNING: hardware_concurrency = " << hw << " but "
              << widest << " grid threads ran at " << widest_speedup
              << "x vs serial — the grid executor is not scaling on this "
                 "multi-core runner (scaling.ok = 0 in the JSON record).\n";
  } else {
    std::cout << "\nscaling ok: " << widest << " grid threads at "
              << widest_speedup << "x vs serial on " << hw << " cores.\n";
  }
  return run_resident_fold(json);
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::ParallelConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 512;
      cfg.initial_edges = 1024;
      cfg.num_batches = 6;
      cfg.batch_size = 128;
      cfg.machines = 8;
      cfg.banks = 8;
      cfg.repeats = 2;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: bench_mpc_parallel [--quick]\n";
      return 2;
    }
  }
  return streammpc::run(cfg) ? 0 : 1;
}
