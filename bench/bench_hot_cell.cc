// E17 — hot-cell worst case for the (machine x bank) ingest grid.
//
// The executor's parallelism is one task per (machine, bank) cell, so a
// stream that concentrates its load on one machine — a star hub, a
// power-law degree sequence, or a single-block collision — leaves only
// that machine's `banks` cells to spread across the pool.  This bench
// replays the three named hot streams (src/graph/generators.h) through
// mpc::Simulator at 1 grid thread and at hardware_concurrency threads,
// charts updates/second for each, and asserts inline that the thread
// count is unobservable: identical allocated sketch words, boundary
// samples, and CommLedger words and rounds.
//
// These rows are the baseline any intra-cell parallelism must beat (the
// revival bar in DESIGN.md, "Rejected: per-cell sharding").
//
// Emits the table on stdout and BENCH_hot_cell.json.  `--quick` shrinks
// the workload for CI smoke runs.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/random.h"
#include "common/table.h"
#include "graph/generators.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {
namespace {

struct HotCellConfig {
  VertexId n = 4096;
  unsigned banks = 4;  // few banks: the fewest cells per hot machine
  std::size_t batch_size = 1024;
  std::size_t star_cycles = 6;       // full insert+delete passes over the star
  std::size_t skew_updates = 32768;  // power-law / hot-block stream length
  int repeats = 3;  // best-of wall clock per thread count
};

struct Workload {
  std::string name;
  std::uint64_t machines;
  std::vector<EdgeDelta> deltas;
};

// What one thread count left behind: its timing plus everything the
// identity check compares.
struct Outcome {
  double seconds = 0.0;
  std::uint64_t allocated = 0;
  std::uint64_t ledger_words = 0;
  std::uint64_t ledger_rounds = 0;
  std::vector<std::optional<Edge>> samples;
};

Outcome replay(const HotCellConfig& cfg, const Workload& w, unsigned threads,
               const std::vector<std::vector<VertexId>>& sets) {
  Outcome out;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    mpc::MpcConfig mc;
    mc.n = cfg.n;
    mc.machines = w.machines;
    mc.strict = false;
    mpc::Cluster cluster(mc);
    mpc::Simulator sim(cluster, 0, threads);
    GraphSketchConfig sketch;
    sketch.banks = cfg.banks;
    sketch.seed = 17003;
    sketch.ingest_threads = 1;  // the Simulator's grid pool does the work
    VertexSketches sketches(cfg.n, sketch);
    mpc::RoutedBatch routed;
    const std::span<const EdgeDelta> all(w.deltas);
    bench::Timer timer;
    for (std::size_t start = 0; start < all.size(); start += cfg.batch_size) {
      const std::size_t len = std::min(cfg.batch_size, all.size() - start);
      cluster.route_batch(all.subspan(start, len), cfg.n, routed);
      sim.execute(routed, "hot-cell", sketches);
    }
    const double seconds = timer.seconds();
    if (rep == 0 || seconds < out.seconds) out.seconds = seconds;
    out.allocated = sketches.allocated_words();
    out.ledger_words = cluster.comm_ledger().total_words();
    out.ledger_rounds = cluster.comm_ledger().rounds();
    out.samples.clear();
    for (unsigned bank = 0; bank < cfg.banks; ++bank) {
      for (const auto& set : sets)
        out.samples.push_back(sketches.sample_boundary(bank, set));
    }
  }
  return out;
}

void run(const HotCellConfig& cfg) {
  bench::BenchJson json("hot_cell");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts{1};
  if (hw > 1) thread_counts.push_back(hw);
  json.set("config.hardware_concurrency", static_cast<std::uint64_t>(hw));
  json.set("config.n", static_cast<std::uint64_t>(cfg.n));
  json.set("config.banks", static_cast<std::uint64_t>(cfg.banks));
  json.set("config.batch_size", static_cast<std::uint64_t>(cfg.batch_size));

  bench::section(
      "E17: hot-cell streams on the ingest grid (n = " +
          std::to_string(cfg.n) + ", banks = " + std::to_string(cfg.banks) +
          ", threads 1 and " + std::to_string(hw) + ")",
      "skewed streams leave one machine's cells to the pool; the thread "
      "count must not change a byte or a ledger charge");

  // The three adversaries.  The star replays full insert+delete cycles so
  // every delta keeps hammering the hub vertex; with machines = 1 the
  // whole grid is ONE machine row of `banks` cells.  The hot block routes
  // every delta to machine 0 of 8; the power-law stream concentrates most
  // (not all) of its load there.
  std::vector<Workload> workloads;
  {
    Workload star{"star", 1, {}};
    const auto edges = gen::star_graph(cfg.n);
    for (std::size_t c = 0; c < cfg.star_cycles; ++c) {
      for (const Edge& e : edges) star.deltas.push_back(EdgeDelta{e, +1});
      for (const Edge& e : edges) star.deltas.push_back(EdgeDelta{e, -1});
    }
    workloads.push_back(std::move(star));
  }
  Rng hot_rng(17001);
  workloads.push_back(Workload{
      "hot-block", 8,
      gen::hot_block_deltas(cfg.n, cfg.n / 8, cfg.skew_updates, hot_rng)});
  Rng power_rng(17002);
  workloads.push_back(Workload{
      "power-law", 8,
      gen::power_law_deltas(cfg.n, cfg.skew_updates, power_rng)});

  // Probe sets for the in-harness boundary-sample identity check.
  std::vector<std::vector<VertexId>> sets;
  sets.push_back({0});
  sets.push_back({1, 2, 3});
  {
    std::vector<VertexId> half;
    for (VertexId v = 0; v < cfg.n / 2; ++v) half.push_back(v);
    sets.push_back(std::move(half));
  }

  Table table({"workload", "threads", "seconds (best)", "updates/s",
               "vs 1 thread", "ledger words"});
  for (const Workload& w : workloads) {
    json.set(w.name + ".config.machines", w.machines);
    json.set(w.name + ".config.updates",
             static_cast<std::uint64_t>(w.deltas.size()));
    Outcome serial;
    for (const unsigned threads : thread_counts) {
      const Outcome o = replay(cfg, w, threads, sets);
      if (threads == 1) {
        serial = o;
      } else {
        // The grid contract, asserted while measuring: the schedule must
        // be unobservable in the bytes AND in the accounting.
        SMPC_CHECK_MSG(o.allocated == serial.allocated,
                       "thread count changed the allocated sketch state");
        SMPC_CHECK_MSG(o.samples == serial.samples,
                       "thread count changed a boundary sample");
        SMPC_CHECK_MSG(o.ledger_words == serial.ledger_words &&
                           o.ledger_rounds == serial.ledger_rounds,
                       "thread count changed the communication ledger");
      }
      const double ups =
          o.seconds == 0.0 ? 0.0
                           : static_cast<double>(w.deltas.size()) / o.seconds;
      const double vs_serial =
          o.seconds == 0.0 ? 0.0 : serial.seconds / o.seconds;
      table.add_row()
          .cell(w.name)
          .cell(static_cast<std::int64_t>(threads))
          .cell(o.seconds, 4)
          .cell(ups, 0)
          .cell(vs_serial, 2)
          .cell(static_cast<std::int64_t>(o.ledger_words));
      const std::string prefix =
          w.name + ".threads" + std::to_string(threads) + ".";
      json.set(prefix + "seconds_best", o.seconds);
      json.set(prefix + "updates_per_second", ups);
      json.set(prefix + "allocated_words", o.allocated);
      json.set(prefix + "ledger_words", o.ledger_words);
    }
  }
  table.print(std::cout);
  std::cout << "\nbyte-identity: ok — every thread count matched the serial "
               "grid on\nallocated words, boundary samples, ledger words, and "
               "rounds.\n";
  json.set("identity.ok", std::uint64_t{1});
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::HotCellConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 512;
      cfg.batch_size = 256;
      cfg.star_cycles = 2;
      cfg.skew_updates = 4096;
      cfg.repeats = 2;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: bench_hot_cell [--quick]\n";
      return 2;
    }
  }
  streammpc::run(cfg);
  return 0;
}
