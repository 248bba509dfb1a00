// E15 — serve-heavy query path: cached-snapshot point queries vs rerunning
// the AGM Boruvka per query (core/query_cache.h, ISSUE 7).
//
// Three sections over the AGM front end (the structure with the worst
// uncached query — O(log n) Boruvka levels over the sketches per call):
//   * point-query latency — connected(u,v) against the published snapshot
//     vs a fresh query_spanning_forest() + DSU per query (the "seed"
//     behaviour before the cache existed); the headline is the speedup,
//     gated at the ISSUE's >= 10x;
//   * a 99%-read / 1%-update serve workload — batches of mostly-insert
//     updates (with periodic deletes, so the repair AND rebuild paths both
//     run) interleaved 1:100 with point queries; reports cache hit rate,
//     repairs, rebuilds, and served queries/sec, and checks every
//     published snapshot's labels against the AdjGraph oracle;
//   * concurrent readers — T threads hammering snapshot()->connected()
//     with no writer interference, reporting aggregate reads/sec;
//   * boundary sampling — one AGM Boruvka level over singletons (n = 2^13)
//     through the fused top-down kernel (sample_boundaries) and through
//     the materializing oracle (merged_into + decode_sample per group),
//     timed side by side; any disagreement fails the bench
//     ("sample.agree": 0, exit 1).  The times are recorded, not gated:
//     speed depends on the host.
//
// Every timed cached answer is cross-checked against the uncached answer
// in-harness — the bench fails (exit 1, "correct.ok": 0) on any mismatch.
//
// Emits the table on stdout and BENCH_query_serving.json.  `--quick`
// shrinks the workload for CI smoke runs.
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/agm_static.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "sketch/graphsketch.h"
#include "sketch/l0sampler.h"

namespace streammpc {
namespace {

struct ServeConfig {
  VertexId n = 4096;
  std::size_t initial_edges = 8192;
  std::size_t rounds = 48;             // update batches in the 99/1 phase
  std::size_t queries_per_round = 100; // 32-edge batch : 100 point queries
  std::size_t batch_edges = 32;
  std::size_t uncached_samples = 12;   // fresh-Boruvka queries to time
  std::size_t cached_queries = 200000; // snapshot queries to time
  unsigned reader_threads = 4;
  std::size_t reads_per_thread = 200000;
  std::size_t sample_levels = 24;  // timed Boruvka levels, one bank each
};

GraphSketchConfig sketch_config(VertexId n, std::uint64_t seed) {
  GraphSketchConfig c;
  unsigned lg = 1;
  while ((1u << lg) < n) ++lg;
  c.banks = 2 * lg + 2;
  c.seed = seed;
  return c;
}

struct Workload {
  AdjGraph oracle;
  std::vector<Edge> live;
  Rng rng;

  Workload(VertexId n, std::uint64_t seed) : oracle(n), rng(seed) {}

  Edge random_pair() {
    const VertexId n = oracle.n();
    const VertexId u = static_cast<VertexId>(rng.below(n));
    VertexId v = static_cast<VertexId>(rng.below(n - 1));
    if (v >= u) ++v;
    return make_edge(u, v);
  }

  // One mostly-insert batch; `deletes` of the slots remove live edges.
  Batch next_batch(std::size_t edges, std::size_t deletes) {
    Batch batch;
    for (std::size_t i = 0; i < edges; ++i) {
      if (i < deletes && !live.empty()) {
        const std::size_t j = static_cast<std::size_t>(rng.below(live.size()));
        const Edge e = live[j];
        live[j] = live.back();
        live.pop_back();
        batch.push_back(erase_of(e.u, e.v));
        oracle.apply(batch.back());
        continue;
      }
      Edge e = random_pair();
      for (int tries = 0; oracle.has_edge(e.u, e.v) && tries < 32; ++tries)
        e = random_pair();
      if (oracle.has_edge(e.u, e.v)) continue;
      live.push_back(e);
      batch.push_back(insert_of(e.u, e.v));
      oracle.apply(batch.back());
    }
    return batch;
  }
};

bool uncached_connected(AgmStaticConnectivity& agm, VertexId u, VertexId v) {
  // The pre-cache "seed" query path: rerun Boruvka from the sketches and
  // answer from the sampled forest.
  const auto fresh = agm.query_spanning_forest();
  Dsu dsu(agm.n());
  for (const Edge& e : fresh.forest) dsu.unite(e.u, e.v);
  return dsu.same(u, v);
}

// Section 4: times sample_boundaries over n = 2^13 singletons against
// the materializing oracle, one bank per timed level, and returns the
// number of groups on which they disagree.
std::uint64_t sampling_section(const ServeConfig& cfg, bench::BenchJson& json) {
  const VertexId n = 1u << 13;
  Rng rng(0x5a3e);
  VertexSketches sketches(n, sketch_config(n, 0x5a3f));
  std::vector<EdgeDelta> deltas;
  for (const Edge& e : gen::connected_gnm(n, 2 * std::size_t{n}, rng))
    deltas.push_back({e, +1});
  sketches.update_edges(deltas);
  std::vector<VertexId> members(n);
  std::vector<std::uint32_t> offsets(n + 1);
  for (VertexId v = 0; v < n; ++v) {
    members[v] = v;
    offsets[v + 1] = v + 1;
  }
  std::vector<std::optional<Edge>> fused;
  std::vector<std::optional<Edge>> materialized(n);
  L0Sampler scratch;
  double fused_sec = 0.0;
  double materialized_sec = 0.0;
  std::uint64_t disagreements = 0;
  std::uint64_t hits = 0;
  for (std::size_t level = 0; level < cfg.sample_levels; ++level) {
    const unsigned bank = static_cast<unsigned>(level % sketches.banks());
    bench::Timer fused_timer;
    sketches.sample_boundaries(bank, members, offsets, fused);
    fused_sec += fused_timer.seconds();
    bench::Timer materialized_timer;
    for (VertexId v = 0; v < n; ++v) {
      sketches.merged_into(bank, std::span<const VertexId>(&members[v], 1),
                           scratch);
      materialized[v] = sketches.decode_sample(bank, scratch);
    }
    materialized_sec += materialized_timer.seconds();
    for (VertexId v = 0; v < n; ++v) {
      disagreements += fused[v] != materialized[v];
      hits += fused[v].has_value();
    }
  }
  const double levels = static_cast<double>(cfg.sample_levels);
  const double fused_us = fused_sec / levels * 1e6;
  const double materialized_us = materialized_sec / levels * 1e6;
  std::cout << "n = " << n << " singletons, " << cfg.sample_levels
            << " levels: fused " << fused_us << " us/level, materialized "
            << materialized_us << " us/level ("
            << (fused_us > 0 ? materialized_us / fused_us : 0.0)
            << "x); hit rate "
            << static_cast<double>(hits) / (levels * n) << ", "
            << disagreements << " disagreements\n";
  json.set("sample.n", static_cast<std::uint64_t>(n));
  json.set("sample.levels", static_cast<std::uint64_t>(cfg.sample_levels));
  json.set("sample.fused_us", fused_us);
  json.set("sample.materialized_us", materialized_us);
  json.set("sample.agree", disagreements == 0 ? 1 : 0);
  if (disagreements != 0) {
    std::cerr << "FAIL: " << disagreements
              << " fused samples disagreed with the materializing oracle\n";
  }
  return disagreements;
}

int run(const ServeConfig& cfg) {
  bench::BenchJson json("query_serving");
  json.set("workload.n", static_cast<std::uint64_t>(cfg.n));
  json.set("workload.initial_edges",
           static_cast<std::uint64_t>(cfg.initial_edges));
  std::uint64_t mismatches = 0;

  AgmStaticConnectivity agm(cfg.n, sketch_config(cfg.n, 0xe15));
  Workload wl(cfg.n, 0x515e);
  while (wl.live.size() < cfg.initial_edges) {
    agm.apply_batch(wl.next_batch(256, 0));
  }

  // --- section 1: point-query latency, cached vs fresh Boruvka ---------------
  bench::section("point-query latency",
                 "batch-dynamic split: expensive maintenance, cheap point "
                 "queries (vs AGM's O(log n)-round query)");
  double uncached_total = 0.0;
  for (std::size_t s = 0; s < cfg.uncached_samples; ++s) {
    const Edge q = wl.random_pair();
    bench::Timer t;
    const bool slow = uncached_connected(agm, q.u, q.v);
    uncached_total += t.seconds();
    if (slow != agm.connected(q.u, q.v)) ++mismatches;
  }
  const double uncached_sec = uncached_total / cfg.uncached_samples;

  const auto snap = agm.snapshot();
  std::uint64_t sink = 0;
  bench::Timer cached_timer;
  for (std::size_t q = 0; q < cfg.cached_queries; ++q) {
    const Edge e = wl.random_pair();
    sink += agm.connected(e.u, e.v) ? 1 : 0;
  }
  const double cached_sec = cached_timer.seconds() / cfg.cached_queries;
  const double speedup = cached_sec > 0 ? uncached_sec / cached_sec : 0.0;
  std::cout << "uncached (fresh Boruvka + DSU): " << uncached_sec * 1e6
            << " us/query\n"
            << "cached   (snapshot connected): " << cached_sec * 1e9
            << " ns/query   [" << sink << "/" << cfg.cached_queries
            << " connected]\n"
            << "speedup: " << speedup << "x (gate: >= 10x)\n";
  json.set("query.uncached_sec", uncached_sec);
  json.set("query.cached_sec", cached_sec);
  json.set("query.speedup", speedup);
  json.set("query.speedup_ok", speedup >= 10.0 ? 1 : 0);
  json.set("query.snapshot_version", snap->version);

  // --- section 2: 99/1 serve workload ----------------------------------------
  bench::section("99/1 serve workload",
                 "repair-vs-rebuild rule: insert-only batches repair the "
                 "snapshot, deletes force a rebuild");
  const auto stats_before = agm.query_cache().stats();
  std::uint64_t served = 0;
  bench::Timer mixed_timer;
  for (std::size_t r = 0; r < cfg.rounds; ++r) {
    // Every 8th batch deletes a few live edges: both cache paths exercise.
    const std::size_t deletes = (r % 8 == 7) ? 4 : 0;
    agm.apply_batch(wl.next_batch(cfg.batch_edges, deletes));
    for (std::size_t q = 0; q < cfg.queries_per_round; ++q) {
      const Edge e = wl.random_pair();
      sink += agm.connected(e.u, e.v) ? 1 : 0;
      ++served;
    }
    const auto labels = component_labels(wl.oracle);
    if (agm.snapshot()->labels != labels) ++mismatches;
  }
  const double mixed_seconds = mixed_timer.seconds();
  const auto& cs = agm.query_cache().stats();
  const std::uint64_t hits = cs.hits - stats_before.hits;
  const std::uint64_t misses = cs.misses - stats_before.misses;
  const double hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  const double mixed_qps =
      mixed_seconds > 0 ? static_cast<double>(served) / mixed_seconds : 0.0;
  std::cout << "served " << served << " point queries across " << cfg.rounds
            << " update batches: hit rate " << hit_rate << ", "
            << cs.repairs - stats_before.repairs << " repairs, "
            << cs.rebuilds - stats_before.rebuilds << " rebuilds, "
            << mixed_qps << " queries/sec (update cost included)\n";
  json.set("mixed.hit_rate", hit_rate);
  json.set("mixed.repairs", cs.repairs - stats_before.repairs);
  json.set("mixed.rebuilds", cs.rebuilds - stats_before.rebuilds);
  json.set("mixed.invalidations", cs.invalidations - stats_before.invalidations);
  json.set("mixed.qps", mixed_qps);

  // --- section 3: concurrent readers -----------------------------------------
  bench::section("concurrent readers",
                 "snapshots are immutable; readers scale with threads");
  agm.snapshot();
  const QueryCache& cache = agm.query_cache();
  std::vector<std::thread> readers;
  std::vector<std::uint64_t> reader_sink(cfg.reader_threads, 0);
  bench::Timer reader_timer;
  for (unsigned t = 0; t < cfg.reader_threads; ++t) {
    readers.emplace_back([&, t] {
      SplitMix64 rng(0xbeef + t);
      const VertexId n = cfg.n;
      std::uint64_t local = 0;
      for (std::size_t q = 0; q < cfg.reads_per_thread; ++q) {
        const VertexId u = static_cast<VertexId>(rng.next() % n);
        const VertexId v = static_cast<VertexId>(rng.next() % n);
        local += cache.snapshot()->connected(u, v) ? 1 : 0;
      }
      reader_sink[t] = local;
    });
  }
  for (std::thread& t : readers) t.join();
  const double reader_seconds = reader_timer.seconds();
  const double total_reads =
      static_cast<double>(cfg.reader_threads) *
      static_cast<double>(cfg.reads_per_thread);
  const double reader_qps =
      reader_seconds > 0 ? total_reads / reader_seconds : 0.0;
  for (unsigned t = 0; t < cfg.reader_threads; ++t) sink += reader_sink[t];
  std::cout << cfg.reader_threads << " readers: " << reader_qps
            << " reads/sec aggregate\n";
  json.set("readers.threads", static_cast<std::uint64_t>(cfg.reader_threads));
  json.set("readers.qps", reader_qps);

  // --- section 4: boundary sampling, fused vs materialized -------------------
  bench::section("boundary sampling",
                 "one AGM Boruvka level: one boundary sample per supernode "
                 "(Lemma 3.5), here over singletons");
  const std::uint64_t sample_disagreements = sampling_section(cfg, json);
  mismatches += sample_disagreements;

  json.set("correct.mismatches", mismatches);
  json.set("correct.ok", mismatches == 0 ? 1 : 0);
  if (mismatches != 0) {
    std::cerr << "FAIL: " << mismatches
              << " answers disagreed with their oracle\n";
    return 1;
  }
  std::cout << "all cached answers matched the uncached oracle and all fused "
               "samples the materializing one (sink "
            << sink << ")\n";
  return 0;
}

}  // namespace
}  // namespace streammpc

int main(int argc, char** argv) {
  streammpc::ServeConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.n = 1024;
      cfg.initial_edges = 2048;
      cfg.rounds = 12;
      cfg.uncached_samples = 4;
      cfg.cached_queries = 40000;
      cfg.reads_per_thread = 50000;
      cfg.sample_levels = 4;
    } else {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: bench_query_serving [--quick]\n";
      return 2;
    }
  }
  return streammpc::run(cfg);
}
