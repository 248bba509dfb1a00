// E14 — fault-injected recovery overhead: rounds and wall-clock cost of
// transactional rollback + scheduler retry as a function of fault rate.
//
// Drives the same churn-style delta stream through the simulated
// executor's batch loop under seeded random fault plans of increasing
// density (cell failures spread over the stream's step window plus crash
// windows over its round window), and charts:
//   * rounds — total charged rounds, vs the fault-free baseline (the
//     overhead ratio is the headline: recovery costs rounds, never
//     correctness);
//   * retry rounds / retries / rollbacks / rolled-back words — where the
//     overhead went (idle backoff vs redelivery vs undone grid work);
//   * wall seconds, and bytes-identical verification against the
//     fault-free run (allocated words must match — rollback is exact).
//
// A second section measures the machine-growing path on the adversarial
// star stream from the ROADMAP scenario: resident shards outgrow the
// budget, the scheduler doubles the cluster, and the one-off shuffle cost
// is reported next to the rounds the stream still needed.
//
// Emits the table on stdout and BENCH_fault_recovery.json.  "correct.ok" is
// 1 iff every E14 row's final allocated words match the fault-free run and
// the E14b grow run's match flat ingest of the star; the bench exits 1
// otherwise.  `--quick` shrinks the workload for CI smoke runs.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "mpc/cluster.h"
#include "mpc/fault_injector.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {
namespace {

struct RecoveryConfig {
  VertexId n = 1024;
  std::size_t edges = 6000;
  std::size_t chunk = 128;
  std::uint64_t machines = 8;
  VertexId star_n = 2048;
};

struct RunResult {
  std::uint64_t rounds = 0;
  std::uint64_t allocated_words = 0;
  mpc::Simulator::Stats sim;
  std::uint64_t faults_fired = 0;
  double seconds = 0;
};

// One full ingest (inserts then deletes) under the given fault plan.
RunResult run_stream(const RecoveryConfig& cfg,
                     std::span<const EdgeDelta> deltas,
                     mpc::FaultInjector plan) {
  mpc::MpcConfig mc;
  mc.n = cfg.n;
  mc.phi = 0.5;
  mc.machines = cfg.machines;
  mc.strict = false;
  mpc::Cluster cluster(mc);
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.max_retries = 8;  // dense plans can stack several faults per window
  mpc::Simulator sim(cluster, 0, sc);
  mpc::FaultInjector injector = std::move(plan);
  sim.attach_fault_injector(&injector);

  GraphSketchConfig gcfg;
  gcfg.banks = 6;
  gcfg.seed = 13002;
  gcfg.ingest_threads = 2;
  VertexSketches vs(cfg.n, gcfg);

  bench::Timer timer;
  for (std::size_t start = 0; start < deltas.size(); start += cfg.chunk) {
    const std::size_t len = std::min(cfg.chunk, deltas.size() - start);
    sim.execute(deltas.subspan(start, len), cfg.n, "bench/fault", vs);
  }
  RunResult r;
  r.seconds = timer.seconds();
  r.rounds = cluster.rounds();
  r.allocated_words = vs.allocated_words();
  r.sim = sim.stats();
  r.faults_fired = injector.stats().cell_faults_fired;
  return r;
}

int run(const RecoveryConfig& cfg) {
  bench::BenchJson json("fault_recovery");
  json.set("config.n", static_cast<std::uint64_t>(cfg.n));
  json.set("config.edges", static_cast<std::uint64_t>(cfg.edges));
  json.set("config.chunk", static_cast<std::uint64_t>(cfg.chunk));
  json.set("config.machines", cfg.machines);

  bench::section(
      "E14: recovery overhead vs fault rate (n = " + std::to_string(cfg.n) +
          ", " + std::to_string(cfg.edges) + " edges in+out)",
      "faults cost retry rounds, never bytes: every faulted sub-batch "
      "rolls back exactly and redelivers");

  // Insert every edge, then delete every edge: deletions run at the
  // resident watermark, the regime where rollback has real work to undo.
  Rng rng(13001);
  const auto edges = gen::gnm(cfg.n, cfg.edges, rng);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(2 * edges.size());
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, +1});
  for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, -1});

  // Fault-free baseline fixes the stream's step/round geometry, which the
  // random plans are then spread across.
  const RunResult base = run_stream(cfg, deltas, mpc::FaultInjector{});
  json.set("baseline.rounds", base.rounds);
  json.set("baseline.cell_steps", base.sim.cell_steps);
  json.set("baseline.seconds", base.seconds);

  Table table({"cell faults", "crashes", "fired", "rounds", "overhead",
               "retries", "retry rounds", "rollbacks", "undone words",
               "bytes ok", "seconds"});
  const std::uint64_t fault_counts[] = {0, 4, 16, 64};
  std::uint64_t mismatches = 0;
  for (const std::uint64_t faults : fault_counts) {
    mpc::FaultInjector::RandomPlanConfig rc;
    rc.seed = 13000 + faults;
    rc.machines = cfg.machines;
    rc.cell_faults = faults;
    rc.step_horizon = std::max<std::uint64_t>(base.sim.cell_steps, 1);
    rc.crashes = faults / 8;
    rc.round_horizon = std::max<std::uint64_t>(base.rounds, 1);
    rc.crash_rounds = 2;
    rc.spikes = 0;
    const RunResult r =
        run_stream(cfg, deltas,
                   faults == 0 ? mpc::FaultInjector{}
                               : mpc::FaultInjector::random_plan(rc));

    const double overhead = base.rounds == 0
                                ? 0.0
                                : static_cast<double>(r.rounds) /
                                      static_cast<double>(base.rounds);
    const bool bytes_ok = r.allocated_words == base.allocated_words;
    if (!bytes_ok) ++mismatches;
    table.add_row()
        .cell(faults)
        .cell(static_cast<std::uint64_t>(rc.crashes))
        .cell(r.faults_fired)
        .cell(r.rounds)
        .cell(overhead, 3)
        .cell(r.sim.retries)
        .cell(r.sim.retry_rounds)
        .cell(r.sim.rollbacks)
        .cell(r.sim.rolled_back_updates)
        .cell(std::string(bytes_ok ? "yes" : "NO"))
        .cell(r.seconds, 3);

    const std::string key = "faults" + std::to_string(faults) + ".";
    json.set(key + "fired", r.faults_fired);
    json.set(key + "rounds", r.rounds);
    json.set(key + "overhead", overhead);
    json.set(key + "retries", r.sim.retries);
    json.set(key + "retry_rounds", r.sim.retry_rounds);
    json.set(key + "rollbacks", r.sim.rollbacks);
    json.set(key + "rolled_back_updates", r.sim.rolled_back_updates);
    json.set(key + "crash_faults", r.sim.crash_faults);
    json.set(key + "bytes_identical",
             static_cast<std::uint64_t>(bytes_ok ? 1 : 0));
    json.set(key + "seconds", r.seconds);
  }
  table.print(std::cout);

  // ---- machine-growing on the adversarial star stream ----------------------
  bench::section(
      "E14b: machine-growing recovery (star, n = " +
          std::to_string(cfg.star_n) + ")",
      "when the resident shard alone outgrows s, re-splitting cannot help; "
      "the scheduler doubles the machines and pays one shuffle");

  const auto star = gen::star_graph(cfg.star_n);
  std::vector<EdgeDelta> star_deltas;
  star_deltas.reserve(star.size());
  for (const Edge& e : star) star_deltas.push_back(EdgeDelta{e, +1});

  // Budget sized so the final shards fit at 2x machines but not at 1x —
  // measured the same way the fault suite does it.
  const std::uint64_t star_machines = 4;
  GraphSketchConfig gcfg;
  gcfg.banks = 6;
  gcfg.seed = 13002;
  gcfg.ingest_threads = 2;
  const auto resident_at = [&](std::uint64_t machines) {
    mpc::MpcConfig mc;
    mc.n = cfg.star_n;
    mc.phi = 0.5;
    mc.machines = machines;
    mpc::Cluster probe_cluster(mc);
    VertexSketches probe_vs(cfg.star_n, gcfg);
    probe_vs.update_edges(star_deltas);
    std::uint64_t max_resident = 0;
    for (std::uint64_t m = 0; m < machines; ++m)
      max_resident =
          std::max(max_resident, probe_vs.resident_words(m, probe_cluster));
    return max_resident;
  };
  const std::uint64_t budget = resident_at(2 * star_machines) + 256;

  mpc::MpcConfig mc;
  mc.n = cfg.star_n;
  mc.phi = 0.5;
  mc.machines = star_machines;
  mc.strict = true;
  mpc::Cluster cluster(mc);
  mpc::SchedulerConfig sc;
  sc.policy = mpc::SplitPolicy::kProportional;
  sc.grow = mpc::GrowPolicy::kDouble;
  mpc::Simulator sim(cluster, budget, sc);
  VertexSketches vs(cfg.star_n, gcfg);

  bench::Timer timer;
  for (std::size_t start = 0; start < star_deltas.size(); start += 32) {
    const std::size_t len =
        std::min<std::size_t>(32, star_deltas.size() - start);
    sim.execute(std::span<const EdgeDelta>(star_deltas).subspan(start, len),
                cfg.star_n, "bench/grow", vs);
  }
  const double grow_seconds = timer.seconds();

  const mpc::Simulator::Stats& gs = sim.stats();
  Table grow_table({"machines", "grows", "grow rounds", "shuffled words",
                    "total rounds", "splits", "seconds"});
  grow_table.add_row()
      .cell(cluster.machines())
      .cell(gs.grows)
      .cell(gs.grow_rounds)
      .cell(gs.grow_words)
      .cell(cluster.rounds())
      .cell(gs.scheduler_splits)
      .cell(grow_seconds, 3);
  grow_table.print(std::cout);

  json.set("grow.machines_final", cluster.machines());
  json.set("grow.grows", gs.grows);
  json.set("grow.grow_rounds", gs.grow_rounds);
  json.set("grow.shuffled_words", gs.grow_words);
  json.set("grow.total_rounds", cluster.rounds());
  json.set("grow.budget_words", budget);
  json.set("grow.seconds", grow_seconds);
  VertexSketches flat(cfg.star_n, gcfg);
  flat.update_edges(star_deltas);
  const bool grow_bytes_ok = vs.allocated_words() == flat.allocated_words();
  json.set("grow.bytes_identical",
           static_cast<std::uint64_t>(grow_bytes_ok ? 1 : 0));
  if (!grow_bytes_ok) ++mismatches;
  json.set("correct.ok", mismatches == 0 ? 1 : 0);

  std::cout << "\nreading: overhead is the charged-round ratio vs the "
               "fault-free run — pure\nrecovery cost, since every row's "
               "final sketches are byte-identical.  The star\nrow shows the "
               "one-off shuffle price of doubling the cluster when the\n"
               "resident shard, not the batch, is what outgrew s.\n";
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " runs left different allocated words than their reference\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::RecoveryConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 256;
      cfg.edges = 1200;
      cfg.chunk = 64;
      cfg.star_n = 512;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: bench_fault_recovery [--quick]\n";
      return 2;
    }
  }
  return streammpc::run(cfg);
}
