// Network monitoring: a backbone operator watches an evolving topology —
// links fail and recover in bursts (batches).  Per phase the operator
// needs to know, without storing the full link table on any box:
//   * is the backbone still one partition? which routers got isolated?
//     (DynamicConnectivity, Theorem 1.1)
//   * an estimate of the minimum cost to re-span the network — the
//     (1+eps)-approximate MSF weight over link costs (Theorem 1.2(ii)),
//   * whether the client/server overlay stayed two-colorable, i.e. no
//     server-server link crept in (DynamicBipartiteness, Theorem 7.3).
//
// The backbone runs in *simulated* execution mode (mpc::ExecMode::
// kSimulated): every update batch is routed per machine and then executed
// as a (machine x bank) cell grid under each machine's memory budget —
// resident sketch shard plus delivered sub-batch charged against a scratch
// budget sized just above the resident watermark, so the adaptive batch
// scheduler (mpc::BatchScheduler, SplitPolicy::kProportional) has real work
// to do: a batch that would overflow a machine is cut where that machine's
// load crosses its headroom and delivered in fitting pieces, every split
// and delivery charged honestly on the CommLedger.
#include <algorithm>
#include <iostream>
#include <unordered_set>

#include "bipartite/bipartiteness.h"
#include "common/random.h"
#include "common/table.h"
#include "core/dynamic_connectivity.h"
#include "graph/generators.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "msf/approx_msf.h"

using namespace streammpc;

// Sizes the simulated machines' scratch budget to the backbone's resident
// watermark plus a one-delta margin: a dry deploy on a throwaway structure
// measures how many words of sketch shard the busiest machine will host,
// and the margin (2 words — a single routed delta) is deliberately smaller
// than a batch's per-machine load once the shards saturate — so whole
// batches overflow the busiest machine and the scheduler's split loop is
// visible end to end, while a 1-delta leaf always fits (never exhausts).
static std::uint64_t measure_scratch_budget(VertexId n,
                                            const ConnectivityConfig& conn,
                                            const std::vector<Edge>& links) {
  mpc::MpcConfig mc;
  mc.n = n;
  mc.phi = 0.5;
  mpc::Cluster probe_cluster(mc);
  ConnectivityConfig probe_config = conn;
  probe_config.scheduler.policy = mpc::SplitPolicy::kNone;
  DynamicConnectivity probe(n, probe_config, &probe_cluster);
  probe.bootstrap(links);
  std::uint64_t max_resident = 0;
  for (std::uint64_t m = 0; m < probe_cluster.machines(); ++m) {
    max_resident = std::max(
        max_resident, probe.sketches().resident_words(m, probe_cluster));
  }
  return max_resident + mpc::RoutedBatch::kWordsPerDelta;
}

int main() {
  const VertexId rows = 12, cols = 12;
  const VertexId n = rows * cols;  // router grid
  Rng rng(31337);

  mpc::MpcConfig mpc_config;
  mpc_config.n = n;
  mpc_config.phi = 0.5;
  mpc::Cluster cluster(mpc_config);

  const auto grid_links = gen::grid_graph(rows, cols);

  ConnectivityConfig conn_config;
  conn_config.sketch.banks = 10;
  conn_config.sketch.seed = 11;
  conn_config.exec_mode = mpc::ExecMode::kSimulated;
  conn_config.scheduler.policy = mpc::SplitPolicy::kProportional;
  conn_config.simulator_scratch_words =
      measure_scratch_budget(n, conn_config, grid_links);
  DynamicConnectivity backbone(n, conn_config, &cluster);
  std::cout << "scheduler: proportional split policy, per-machine budget "
            << conn_config.simulator_scratch_words
            << " words (resident watermark + one routed delta)\n";

  ApproxMsfConfig msf_config;
  msf_config.eps = 0.25;
  msf_config.w_max = 32;  // link costs in [1, 32]
  msf_config.connectivity.sketch.banks = 6;
  msf_config.connectivity.exec_mode = mpc::ExecMode::kSimulated;
  msf_config.connectivity.scheduler.policy = mpc::SplitPolicy::kProportional;
  ApproxMsf spanning_cost(n, msf_config, &cluster);

  BipartitenessConfig bip_config;
  bip_config.connectivity.sketch.banks = 8;
  DynamicBipartiteness overlay(n, bip_config);

  // Deploy the grid: every link gets a cost; overlay edges connect
  // even-indexed (client) to odd-indexed (server) routers only.
  const auto& grid = grid_links;
  std::unordered_set<Edge, EdgeHash> live(grid.begin(), grid.end());
  std::vector<Edge> live_list(grid.begin(), grid.end());
  std::unordered_map<Edge, Weight, EdgeHash> cost;

  std::cout << "deploying " << grid.size() << " links on a " << rows << "x"
            << cols << " router grid...\n";
  Batch deploy;
  for (const Edge& e : grid) {
    const Weight w = rng.uniform_int(1, 32);
    cost[e] = w;
    deploy.push_back(Update{UpdateType::kInsert, e, w});
    if (deploy.size() == 24) {
      backbone.apply_batch(deploy);
      spanning_cost.apply_batch(deploy);
      if ((e.u + e.v) % 2 == 1) {
        // parity-respecting edges only for the overlay demo below
      }
      deploy.clear();
    }
  }
  if (!deploy.empty()) {
    backbone.apply_batch(deploy);
    spanning_cost.apply_batch(deploy);
  }
  // Overlay starts with the grid too (a grid is bipartite by parity).
  Batch overlay_deploy;
  for (const Edge& e : grid)
    overlay_deploy.push_back(Update{UpdateType::kInsert, e, 1});
  overlay.apply_batch(overlay_deploy);

  std::cout << "initial: " << backbone.num_components()
            << " partition(s), approx spanning cost "
            << spanning_cost.weight_estimate() << ", overlay bipartite: "
            << (overlay.is_bipartite() ? "yes" : "no") << "\n\n";

  // Failure/recovery phases.  The "splits" column shows the adaptive loop
  // at work: splits the backbone's batch scheduler performed in that
  // phase to keep every machine's resident + delivered claim under budget.
  Table table({"phase", "failed", "recovered", "partitions", "approx cost",
               "overlay 2-colorable", "rounds", "splits"});
  std::vector<Edge> failed_links;
  for (int phase = 1; phase <= 10; ++phase) {
    Batch batch;
    Batch overlay_batch;
    std::size_t failures = 0, recoveries = 0;
    // A burst of failures...
    for (int i = 0; i < 6 && !live_list.empty(); ++i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.below(live_list.size()));
      const Edge e = live_list[j];
      live_list[j] = live_list.back();
      live_list.pop_back();
      live.erase(e);
      failed_links.push_back(e);
      batch.push_back(Update{UpdateType::kDelete, e, cost[e]});
      overlay_batch.push_back(Update{UpdateType::kDelete, e, 1});
      ++failures;
    }
    // ... and some repairs.
    for (int i = 0; i < 4 && !failed_links.empty(); ++i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.below(failed_links.size()));
      const Edge e = failed_links[j];
      failed_links[j] = failed_links.back();
      failed_links.pop_back();
      live.insert(e);
      live_list.push_back(e);
      batch.push_back(Update{UpdateType::kInsert, e, cost[e]});
      overlay_batch.push_back(Update{UpdateType::kInsert, e, 1});
      ++recoveries;
    }
    const auto rounds_before = cluster.rounds();
    const auto splits_before = backbone.scheduler()->stats().splits;
    backbone.apply_batch(batch);
    spanning_cost.apply_batch(batch);
    overlay.apply_batch(overlay_batch);
    table.add_row()
        .cell(static_cast<std::int64_t>(phase))
        .cell(static_cast<std::int64_t>(failures))
        .cell(static_cast<std::int64_t>(recoveries))
        .cell(static_cast<std::int64_t>(backbone.num_components()))
        .cell(spanning_cost.weight_estimate(), 1)
        .cell(overlay.is_bipartite() ? "yes" : "no")
        .cell(cluster.rounds() - rounds_before)
        .cell(backbone.scheduler()->stats().splits - splits_before);
  }
  table.print(std::cout);

  // A misconfigured server-server link breaks two-colorability: adding a
  // diagonal (same-parity) edge creates an odd cycle in the grid overlay.
  overlay.apply_batch({insert_of(0, cols + 1)});
  std::cout << "\nafter a diagonal (same-parity) link 0-" << (cols + 1)
            << ": overlay bipartite: "
            << (overlay.is_bipartite() ? "yes" : "no") << "\n";
  std::cout << "cluster healthy: " << (cluster.ok() ? "yes" : "no") << "\n";

  // The simulated executor's view of the run: every routed batch executed
  // as a (machine x bank) cell grid, each machine budgeted for its
  // resident sketch shard plus the delivered sub-batch (an overrun would
  // have been a structured MemoryBudgetExceeded, never a silent spill).
  const mpc::Simulator::Stats& sim = backbone.simulator()->stats();
  std::cout << "simulated execution: " << sim.machine_steps
            << " machine steps (" << sim.cell_steps << " grid cells) over "
            << sim.batches << " routed batches, "
            << "peak step " << sim.peak_step_words << " / "
            << backbone.simulator()->scratch_words()
            << " scratch words, peak resident+delivered "
            << sim.peak_machine_words << " words, overruns: "
            << sim.budget_overruns << "\n";

  // The adaptive loop, end to end: every split decision the backbone's
  // scheduler took (which chunk, at what depth, which machine overflowed
  // and by how much), then the ledger the split-and-retry discipline
  // actually charged.
  const mpc::BatchScheduler::Stats& sched = backbone.scheduler()->stats();
  std::cout << "\nbatch scheduler (proportional): " << sched.batches
            << " batches -> " << sched.subbatches << " deliveries via "
            << sched.splits << " splits (" << sched.split_rounds
            << " control rounds, max depth " << sched.max_depth
            << ", exhausted " << sched.exhausted << ")\n";
  const std::size_t shown = std::min<std::size_t>(sched.split_log.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    const mpc::BatchScheduler::Split& s = sched.split_log[i];
    std::cout << "  split[" << i << "] chunk @" << s.offset << "+" << s.size
              << " depth " << s.depth << ": machine " << s.machine
              << " needed " << s.needed_words << " / " << s.budget_words
              << " words -> split\n";
  }
  if (sched.split_log.size() > shown) {
    std::cout << "  ... " << (sched.split_log.size() - shown)
              << " more splits\n";
  }
  std::cout << "\nfinal communication ledger:\n"
            << cluster.comm_ledger().report();
  return 0;
}
