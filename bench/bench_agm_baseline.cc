// E8 — §2.1 discussion: our maintained-forest design vs the direct AGM
// implementation (AgmStaticConnectivity, §4.1).
//
// Claim: a direct MPC port of Ahn–Guha–McGregor answers a spanning-forest
// query by running O(log n) Boruvka levels over the sketches — O(log n)
// rounds per query — while this paper's structure maintains the forest
// explicitly and answers in O(1) rounds (0 extra rounds here), paying the
// same O(1) rounds per update batch.  The table shows the query-round gap
// growing with n while the update rounds stay matched.
//
// Every AGM query's component count (E8 and each of E8b's 16 phases) is
// checked against the adjacency oracle.  Emits the tables on stdout and
// BENCH_agm_baseline.json: "correct.ok" (1 iff every query matched; the
// bench exits 1 otherwise) and the E8/E8b round counts, which depend only
// on the seeded streams, not on the host.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"

namespace streammpc {
namespace {

unsigned log2_banks(VertexId n) {
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  return 2 * lg;
}

// Returns the number of AGM queries whose component count disagreed with
// the oracle.
std::uint64_t compare(bench::BenchJson& json) {
  bench::section("E8: maintained forest vs direct AGM query",
                 "AGM query costs O(log n) Boruvka levels (O(log n) "
                 "rounds); ours is maintained -> 0 extra rounds");
  Table t({"n", "AGM levels", "AGM query rounds", "ours query rounds",
           "AGM correct", "AGM update rounds max", "ours update rounds max",
           "sec"});
  std::uint64_t mismatches = 0;
  for (const VertexId n : {256u, 1024u, 4096u}) {
    bench::Timer timer;
    Rng rng(9500 + n);
    mpc::MpcConfig mc;
    mc.n = n;
    mc.phi = 0.5;

    // Shared input graph.
    const auto edges = gen::gnm(n, 3 * static_cast<std::size_t>(n), rng);
    AdjGraph ref(n);

    // AGM baseline: sketches only, t = 2 log2 n banks.
    mpc::Cluster agm_cluster(mc);
    GraphSketchConfig gsc;
    gsc.banks = log2_banks(n);
    gsc.shape = L0Shape{1, 8};
    gsc.seed = 9600 + n;
    AgmStaticConnectivity agm(n, gsc, &agm_cluster);

    // Our structure.
    mpc::Cluster our_cluster(mc);
    ConnectivityConfig cc;
    cc.sketch.banks = 8;
    cc.sketch.shape = L0Shape{1, 8};
    cc.sketch.seed = 9700 + n;
    DynamicConnectivity ours(n, cc, &our_cluster);

    bench::PhaseRounds agm_updates, our_updates;
    for (const auto& b :
         gen::into_batches(gen::insert_stream(edges, rng), 32)) {
      agm.apply_batch(b);
      agm_updates.record(agm_cluster.phase_rounds());
      ours.apply_batch(b);
      our_updates.record(our_cluster.phase_rounds());
      for (const Update& u : b) ref.apply(u);
    }

    const auto agm_result = agm.query_spanning_forest();
    const bool agm_correct = agm_result.components == num_components(ref);
    if (!agm_correct) ++mismatches;
    const std::string key = "e8.n" + std::to_string(n) + ".";
    json.set(key + "agm_levels", static_cast<std::uint64_t>(agm_result.levels));
    json.set(key + "agm_query_rounds", agm_result.rounds);
    t.add_row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(static_cast<std::uint64_t>(agm_result.levels))
        .cell(agm_result.rounds)
        .cell(std::uint64_t{0})
        .cell(agm_correct ? "yes" : "NO")
        .cell(agm_updates.max_rounds)
        .cell(our_updates.max_rounds)
        .cell(timer.seconds(), 2);
  }
  t.print(std::cout);
  return mismatches;
}

// Same contract as compare().
std::uint64_t repeated_queries(bench::BenchJson& json) {
  bench::section("E8b: query-heavy workloads (n = 1024, one query per "
                 "phase over 16 phases)",
                 "the gap compounds: AGM pays O(log n) rounds per query, "
                 "ours pays none");
  const VertexId n = 1024;
  Rng rng(9800);
  mpc::MpcConfig mc;
  mc.n = n;
  mc.phi = 0.5;

  mpc::Cluster agm_cluster(mc);
  GraphSketchConfig gsc;
  gsc.banks = log2_banks(n);
  gsc.shape = L0Shape{1, 8};
  gsc.seed = 9801;
  AgmStaticConnectivity agm(n, gsc, &agm_cluster);

  mpc::Cluster our_cluster(mc);
  ConnectivityConfig cc;
  cc.sketch.banks = 8;
  cc.sketch.shape = L0Shape{1, 8};
  cc.sketch.seed = 9802;
  DynamicConnectivity ours(n, cc, &our_cluster);

  const auto edges = gen::gnm(n, 3000, rng);
  const auto batches = gen::into_batches(gen::insert_stream(edges, rng), 200);
  AdjGraph ref(n);
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(16, batches.size()); ++i) {
    agm.apply_batch(batches[i]);
    ours.apply_batch(batches[i]);
    ref.apply(batches[i]);
    if (agm.query_spanning_forest().components != num_components(ref))
      ++mismatches;
    (void)ours.spanning_forest();  // maintained: no rounds
  }
  Table t({"system", "total rounds (16 update+query phases)", "AGM correct"});
  t.add_row()
      .cell("AGM direct")
      .cell(agm_cluster.rounds())
      .cell(mismatches == 0 ? "yes" : "NO");
  t.add_row().cell("this paper").cell(our_cluster.rounds()).cell("-");
  t.print(std::cout);
  json.set("e8b.agm_rounds", agm_cluster.rounds());
  json.set("e8b.ours_rounds", our_cluster.rounds());
  return mismatches;
}

}  // namespace
}  // namespace streammpc

int main() {
  std::cout << "E8 — ours vs direct AGM implementation (§2.1, §4.1)\n";
  std::uint64_t mismatches = 0;
  {
    streammpc::bench::BenchJson json("agm_baseline");
    mismatches += streammpc::compare(json);
    mismatches += streammpc::repeated_queries(json);
    json.set("correct.ok", mismatches == 0 ? 1 : 0);
  }
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " AGM queries disagreed with the oracle's component count\n";
    return 1;
  }
  return 0;
}
