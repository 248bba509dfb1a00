// E16 — async ingest front door: guttering (ingest/gutter_ingest.h).
//
// The serve-heavy regime receives millions of tiny updates, most of them
// churn — the same edges toggling on and off.  A front end with MPC
// accounting attached applies each one synchronously as one full
// routed_ingest: route_batch, a CommLedger round, a machines x banks grid
// walk, and a full per-bank hash plan, per delta.  The gutter front door
// buffers deltas per vertex block and delivers each full gutter through
// routed_ingest as one batch, so the per-update overhead is amortized
// over gutter_capacity deltas.  Sections:
//   * per-update synchronous baseline — one routed_ingest call per delta
//     against the cluster, on >= 10^6 updates of a churn-heavy stream;
//   * batched synchronous baseline — routed_ingest of consecutive
//     gutter_capacity-sized chunks of the same stream: the same batching
//     without the gutter, so the gutter's own cost (per-block buffering)
//     is visible.  Recorded, not gated;
//   * gutter — the same stream submitted through GutterIngest in kRouted
//     mode; the headline is its speedup over the per-update baseline,
//     gated at >= 2x;
//   * uniform-stream rows — the same comparison on a uniform random
//     stream;
//   * conformance — on a smaller instance, the gutter-drained sketch
//     state must match one-shot flat ingest on the full per-vertex decode
//     surface across a capacity x ingest-width x gutters matrix, for BOTH
//     stream shapes; any mismatch fails the bench (exit 1,
//     "correct.ok": 0).
//
// Emits the table on stdout and BENCH_gutter_ingest.json.  `--quick`
// shrinks the workload for CI smoke runs.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/table.h"
#include "graph/types.h"
#include "ingest/gutter_ingest.h"
#include "mpc/cluster.h"
#include "sketch/graphsketch.h"

namespace streammpc {
namespace {

struct GutterBenchConfig {
  VertexId n = 1 << 16;
  std::size_t updates = 1 << 20;  // >= 10^6 (the ISSUE's floor)
  std::size_t hot_edges = 1 << 14;  // churn working set
  std::size_t gutter_capacity = 1 << 10;
  VertexId conf_n = 96;
  std::size_t conf_updates = 600;
};

double ops_per_sec(std::size_t ops, double seconds) {
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
}

Edge random_edge(VertexId n, Rng& rng) {
  const VertexId u = static_cast<VertexId>(rng.below(n));
  VertexId v = static_cast<VertexId>(rng.below(n - 1));
  if (v >= u) ++v;
  return make_edge(u, v);
}

// Mixed insert/delete stream whose deletes only remove live edges.
std::vector<EdgeDelta> mixed_deltas(VertexId n, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(count);
  std::vector<Edge> live;
  while (deltas.size() < count) {
    if (!live.empty() && rng.chance(0.25)) {
      const std::size_t i = rng.below(live.size());
      deltas.push_back(EdgeDelta{live[i], -1});
      live[i] = live.back();
      live.pop_back();
    } else {
      const Edge e = random_edge(n, rng);
      deltas.push_back(EdgeDelta{e, +1});
      live.push_back(e);
    }
  }
  return deltas;
}

// Churn-heavy small-update stream: 90% of updates toggle an edge from a
// fixed hot set (insert if absent, delete if live — a valid stream), 10%
// insert cold random edges.
std::vector<EdgeDelta> churn_deltas(VertexId n, std::size_t count,
                                    std::size_t hot_edges,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> hot;
  std::vector<char> hot_live;
  hot.reserve(hot_edges);
  while (hot.size() < hot_edges) hot.push_back(random_edge(n, rng));
  hot_live.assign(hot.size(), 0);
  std::vector<EdgeDelta> deltas;
  deltas.reserve(count);
  while (deltas.size() < count) {
    if (rng.chance(0.9)) {
      const std::size_t i = rng.below(hot.size());
      deltas.push_back(EdgeDelta{hot[i], hot_live[i] ? -1 : +1});
      hot_live[i] = !hot_live[i];
    } else {
      deltas.push_back(EdgeDelta{random_edge(n, rng), +1});
    }
  }
  return deltas;
}

// Full per-vertex decode surface comparison; returns the mismatch count.
std::uint64_t state_mismatches(const VertexSketches& a,
                               const VertexSketches& b) {
  std::uint64_t mismatches = 0;
  if (a.allocated_words() != b.allocated_words()) ++mismatches;
  for (unsigned bank = 0; bank < a.banks(); ++bank) {
    for (VertexId v = 0; v < a.n(); ++v) {
      const L0Sampler sa = a.sampler(bank, v);
      const L0Sampler sb = b.sampler(bank, v);
      if (sa.words() != sb.words() ||
          sa.active_levels() != sb.active_levels() ||
          a.decode_sample(bank, sa) != b.decode_sample(bank, sb))
        ++mismatches;
    }
  }
  return mismatches;
}

int run(const GutterBenchConfig& cfg) {
  bench::BenchJson json("gutter_ingest");
  json.set("config.n", static_cast<std::uint64_t>(cfg.n));
  json.set("config.updates", static_cast<std::uint64_t>(cfg.updates));
  json.set("config.gutter_capacity",
           static_cast<std::uint64_t>(cfg.gutter_capacity));

  GraphSketchConfig sketch;  // defaults: 12 banks
  sketch.seed = 0xe16;
  const auto churn = churn_deltas(cfg.n, cfg.updates, cfg.hot_edges, 0x916e);
  const auto uniform = mixed_deltas(cfg.n, cfg.updates, 0x824d);

  mpc::MpcConfig mpc_cfg;
  mpc_cfg.n = cfg.n;
  json.set("config.machines", mpc::Cluster(mpc_cfg).machines());
  json.set("config.hot_edges", static_cast<std::uint64_t>(cfg.hot_edges));

  const auto per_update_routed = [&](std::span<const EdgeDelta> deltas) {
    VertexSketches vs(cfg.n, sketch);
    mpc::Cluster cluster(mpc_cfg);
    mpc::RoutedBatch routed;
    bench::Timer t;
    for (const EdgeDelta& d : deltas)
      routed_ingest(&cluster, cfg.n, std::span<const EdgeDelta>(&d, 1),
                    "bench/ingest", vs, routed);
    return ops_per_sec(deltas.size(), t.seconds());
  };
  const auto batched_routed = [&](std::span<const EdgeDelta> deltas) {
    VertexSketches vs(cfg.n, sketch);
    mpc::Cluster cluster(mpc_cfg);
    mpc::RoutedBatch routed;
    bench::Timer t;
    for (std::size_t start = 0; start < deltas.size();
         start += cfg.gutter_capacity) {
      const std::size_t len =
          std::min(cfg.gutter_capacity, deltas.size() - start);
      routed_ingest(&cluster, cfg.n, deltas.subspan(start, len),
                    "bench/ingest", vs, routed);
    }
    return ops_per_sec(deltas.size(), t.seconds());
  };
  struct GutterRun {
    double ops;
    std::uint64_t delta_batches;
    std::uint64_t peak_buffered;
  };
  const auto gutter_routed = [&](std::span<const EdgeDelta> deltas) {
    VertexSketches vs(cfg.n, sketch);
    mpc::Cluster cluster(mpc_cfg);
    GutterIngestConfig gc;
    gc.gutter_capacity = cfg.gutter_capacity;
    GutterIngest gutter(cfg.n, vs, gc, &cluster, mpc::ExecMode::kRouted);
    bench::Timer t;
    gutter.submit(deltas);
    gutter.flush();
    return GutterRun{ops_per_sec(deltas.size(), t.seconds()),
                     gutter.stats().delta_batches,
                     gutter.stats().peak_buffered};
  };

  bench::section(
      "E16: async ingest front door (n = " + std::to_string(cfg.n) +
          ", updates = " + std::to_string(cfg.updates) + ", hot set = " +
          std::to_string(cfg.hot_edges) + ")",
      "guttering amortizes the per-update routed-ingest overhead (route, "
      "ledger round, machines x banks grid walk) over whole drains; "
      "resident bytes are unchanged");
  Table table({"stream", "path", "updates/sec", "vs per-update"});
  const std::string chunk_label =
      "batched routed_ingest, " + std::to_string(cfg.gutter_capacity) +
      "-delta chunks";

  // --- churn stream: the headline gate ---------------------------------------
  const double base_ops = per_update_routed(churn);
  table.add_row()
      .cell("churn")
      .cell("per-update routed_ingest")
      .cell(base_ops)
      .cell(1.0);
  json.set("per_update.ops_per_sec", base_ops);

  const double batched_ops = batched_routed(churn);
  table.add_row()
      .cell("churn")
      .cell(chunk_label)
      .cell(batched_ops)
      .cell(batched_ops / base_ops);
  json.set("batched.ops_per_sec", batched_ops);

  const GutterRun gutter_run = gutter_routed(churn);
  table.add_row()
      .cell("churn")
      .cell("gutter")
      .cell(gutter_run.ops)
      .cell(gutter_run.ops / base_ops);
  json.set("gutter.ops_per_sec", gutter_run.ops);
  json.set("gutter.delta_batches", gutter_run.delta_batches);
  json.set("gutter.peak_buffered", gutter_run.peak_buffered);

  // --- uniform stream ---------------------------------------------------------
  const double uniform_base_ops = per_update_routed(uniform);
  table.add_row()
      .cell("uniform")
      .cell("per-update routed_ingest")
      .cell(uniform_base_ops)
      .cell(1.0);
  json.set("uniform_per_update.ops_per_sec", uniform_base_ops);
  const double uniform_batched_ops = batched_routed(uniform);
  table.add_row()
      .cell("uniform")
      .cell(chunk_label)
      .cell(uniform_batched_ops)
      .cell(uniform_batched_ops / uniform_base_ops);
  json.set("uniform_batched.ops_per_sec", uniform_batched_ops);
  const GutterRun uniform_run = gutter_routed(uniform);
  table.add_row()
      .cell("uniform")
      .cell("gutter")
      .cell(uniform_run.ops)
      .cell(uniform_run.ops / uniform_base_ops);
  json.set("uniform_gutter.ops_per_sec", uniform_run.ops);
  table.print(std::cout);

  const double speedup = gutter_run.ops / base_ops;
  std::cout << "gutter speedup over per-update synchronous ingest (churn "
               "stream): "
            << speedup << "x (gate: >= 2x)\n"
            << "gutter vs batched synchronous ingest (churn stream): "
            << gutter_run.ops / batched_ops << "x (recorded, not gated)\n";
  json.set("gutter.speedup", speedup);
  json.set("gutter.speedup_ok", speedup >= 2.0 ? 1 : 0);
  json.set("gutter.vs_batched", gutter_run.ops / batched_ops);

  // --- conformance matrix -----------------------------------------------------
  bench::section("conformance: gutter == flat",
                 "linear sketches: any drain partition of the same delta "
                 "multiset yields the same resident state");
  std::uint64_t mismatches = 0;
  {
    GraphSketchConfig flat_sketch;
    flat_sketch.seed = 0xc0f;
    const std::vector<EdgeDelta> conf_streams[2] = {
        mixed_deltas(cfg.conf_n, cfg.conf_updates, 0x1611),
        churn_deltas(cfg.conf_n, cfg.conf_updates, 24, 0x1612)};
    for (const auto& conf_deltas : conf_streams) {
      VertexSketches flat(cfg.conf_n, flat_sketch);
      flat.update_edges(std::span<const EdgeDelta>(conf_deltas));
      for (const std::size_t capacity :
           {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          for (const std::size_t gutters : {std::size_t{1}, std::size_t{4}}) {
            GraphSketchConfig conf_sketch = flat_sketch;
            conf_sketch.ingest_threads = threads;
            VertexSketches vs(cfg.conf_n, conf_sketch);
            GutterIngestConfig gc;
            gc.gutter_capacity = capacity;
            gc.gutters = gutters;
            GutterIngest gutter(cfg.conf_n, vs, gc);
            gutter.submit(std::span<const EdgeDelta>(conf_deltas));
            gutter.flush();
            mismatches += state_mismatches(flat, vs);
          }
        }
      }
    }
  }
  json.set("correct.mismatches", mismatches);
  json.set("correct.ok", mismatches == 0 ? 1 : 0);
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " per-vertex decode mismatches between gutter and flat\n";
    return 1;
  }
  std::cout << "all gutter geometries matched flat ingest on the full "
               "per-vertex decode surface\n";
  return 0;
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::GutterBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 1 << 14;
      cfg.updates = 1 << 17;
      cfg.hot_edges = 1 << 12;
      cfg.conf_updates = 300;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: bench_gutter_ingest [--quick]\n";
      return 2;
    }
  }
  return streammpc::run(cfg);
}
