// End-to-end benchmark of the paper's streaming workload.
//
// Batches of ~n^phi updates stream through DynamicConnectivity and the AGM
// baseline on a simulated MPC cluster, with queries interleaved.  One
// process runs one workload, so peak RSS and warm caches stay per workload.
// One thread issues each call when the previous one returns (a closed loop:
// the paper applies one batch per phase).  The clock covers only calls into
// the front end; stream generation, the oracle and the checks run outside it.
//
// A run repeats an *episode* until --seconds have passed: build the cluster
// and the front end, bootstrap, then stream the workload's batches with their
// query events.  Every episode replays the same seeded stream, so every count
// must repeat exactly from one episode to the next; latencies are pooled over
// episodes and set-up time is the median over them.
//
// --trace 1 runs the same loop and replays each call through the layers on
// shadow state (replay.h) to split its time by layer.
//
//   bench_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//             [--json PATH]
//
// Prints `<workload>.<metric> <value> <unit>` lines, a verdict line and, as
// the last line, one JSON object; writes BENCH_e2e.json (and TRACE_e2e.json
// when tracing).  README.md documents the workloads and every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/agm_static.h"
#include "core/dynamic_connectivity.h"
#include "graph/adjacency.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/streams.h"
#include "replay.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_COMPILER
#define BENCH_COMPILER "unknown"
#endif

namespace streammpc::e2e {
namespace {

constexpr double kPhi = 0.5;
constexpr std::size_t kMinEpisodes = 3;  // setup_s is a median over these

enum class Front { kDynamic, kAgm };
enum class Graph { kChurn, kPrefAttach };

struct Workload {
  const char* name;
  Front front;
  Graph graph;
  VertexId n;
  std::size_t batch;        // updates per batch
  std::size_t batches;      // batches per episode
  std::size_t query_every;  // a query event after every k-th batch
  std::size_t points;       // point queries per query event
  double delete_share;      // churn streams: share of deletes per batch
  bool async;               // DynamicConnectivity with async_ingest
};

// Why each workload is here: README.md, "Workloads".
constexpr Workload kWorkloads[] = {
    {"churn", Front::kDynamic, Graph::kChurn, 1u << 14, 128, 60, 1, 128, 0.5,
     false},
    {"insert_skew", Front::kDynamic, Graph::kPrefAttach, 1u << 14, 128, 200, 4,
     128, 0.0, false},
    {"insert_async", Front::kDynamic, Graph::kPrefAttach, 1u << 14, 128, 760,
     8, 128, 0.0, true},
    {"agm", Front::kAgm, Graph::kChurn, 1u << 13, 91, 60, 1, 91, 0.25, false},
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ---- host and build record ----------------------------------------------------

struct Host {
  unsigned nproc = 1;                 // CPUs this process may run on
  unsigned hardware_concurrency = 1;  // what the library's pools default to
};

Host probe_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = std::max(1, CPU_COUNT(&set));
  }
  h.hardware_concurrency = std::max(1u, std::thread::hardware_concurrency());
  return h;
}

// ---- the stream and its oracle --------------------------------------------------

struct Stream {
  std::vector<Edge> bootstrap;
  std::vector<Batch> batches;
  std::vector<std::size_t> components;  // expected, after each batch
  // Per query event: the point queries and their expected answers.
  std::vector<std::vector<std::pair<VertexId, VertexId>>> pairs;
  std::vector<std::vector<char>> connected;
};

// Ground truth for one stream.  The AdjGraph enforces stream validity and,
// through component_labels(), gives the partition; insert-only streams get
// the same partition from a union-find in O(batch) per batch.
class Oracle {
 public:
  Oracle(VertexId n, bool insert_only)
      : graph_(n), dsu_(n), insert_only_(insert_only) {}

  void apply(const Batch& batch) {
    graph_.apply(batch);
    if (!insert_only_) return;
    for (const Update& u : batch) dsu_.unite(u.e.u, u.e.v);
  }
  void insert(std::span<const Edge> edges) {
    for (const Edge& e : edges) {
      graph_.insert_edge(e.u, e.v);
      dsu_.unite(e.u, e.v);
    }
  }

  std::vector<VertexId> labels() {
    if (!insert_only_) return component_labels(graph_);
    const VertexId n = graph_.n();
    std::vector<VertexId> min_of(n, kNoVertex);
    std::vector<VertexId> out(n);
    for (VertexId v = 0; v < n; ++v) {
      VertexId& m = min_of[dsu_.find(v)];
      if (m == kNoVertex) m = v;
      out[v] = m;
    }
    return out;
  }
  std::size_t components() {
    if (insert_only_) return dsu_.num_sets();
    const std::vector<VertexId> l = labels();
    std::size_t c = 0;
    for (VertexId v = 0; v < l.size(); ++v) c += l[v] == v;
    return c;
  }

 private:
  AdjGraph graph_;
  Dsu dsu_;
  bool insert_only_;
};

Stream make_stream(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  Stream s;
  const std::size_t initial = 2 * static_cast<std::size_t>(w.n);
  if (w.graph == Graph::kChurn) {
    // Bootstrap G(n, 2n), then churn: churn_stream's warm-up batches hold
    // exactly the initial edges.
    gen::ChurnOptions opt;
    opt.n = w.n;
    opt.initial_edges = initial;
    opt.num_batches = w.batches;
    opt.batch_size = w.batch;
    opt.delete_fraction = w.delete_share;
    std::vector<Batch> all = gen::churn_stream(opt, rng);
    const std::size_t warm = (initial + w.batch - 1) / w.batch;
    for (std::size_t b = 0; b < warm; ++b) {
      for (const Update& u : all[b]) s.bootstrap.push_back(u.e);
    }
    s.batches.assign(all.begin() + static_cast<std::ptrdiff_t>(warm),
                     all.end());
  } else {
    // A shuffled preferential-attachment graph: the first 2n edges are the
    // bootstrap, the rest arrive as insert batches.
    std::vector<Edge> edges = gen::preferential_attachment(w.n, 8, rng);
    shuffle(edges, rng);
    SMPC_CHECK_MSG(edges.size() >= initial + w.batch * w.batches,
                   "preferential-attachment graph too small for the workload");
    s.bootstrap.assign(edges.begin(),
                       edges.begin() + static_cast<std::ptrdiff_t>(initial));
    for (std::size_t b = 0; b < w.batches; ++b) {
      Batch batch;
      for (std::size_t i = 0; i < w.batch; ++i) {
        batch.push_back(Update{UpdateType::kInsert,
                               edges[initial + b * w.batch + i], 1});
      }
      s.batches.push_back(std::move(batch));
    }
  }

  Oracle oracle(w.n, w.graph == Graph::kPrefAttach);
  oracle.insert(s.bootstrap);
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    oracle.apply(s.batches[b]);
    s.components.push_back(oracle.components());
    if ((b + 1) % w.query_every != 0) continue;
    const std::vector<VertexId> labels = oracle.labels();
    auto& pairs = s.pairs.emplace_back();
    auto& expect = s.connected.emplace_back();
    for (std::size_t q = 0; q < w.points; ++q) {
      const VertexId u = static_cast<VertexId>(rng.below(w.n));
      VertexId v = static_cast<VertexId>(rng.below(w.n - 1));
      if (v >= u) ++v;
      pairs.emplace_back(u, v);
      expect.push_back(labels[u] == labels[v]);
    }
  }
  return s;
}

// ---- the structure under test -----------------------------------------------------

// The library's pools run with one thread: the simulator's cell grid, the
// sketches' ingest pool and, under async ingest, one drain worker beside
// the writer.  On a shared host a parallel grid waits at every barrier for
// its slowest CPU, and a CPU the hypervisor lends to another tenant stalls
// the whole call, so parallel timings measure the host's scheduler more
// than the library.  README, "History", gives the spreads this bought.
constexpr unsigned kPoolThreads = 1;

GraphSketchConfig sketch_config() {
  GraphSketchConfig c;
  c.ingest_threads = kPoolThreads;
  return c;
}

ConnectivityConfig dynamic_config(const Workload& w) {
  ConnectivityConfig c;
  c.sketch = sketch_config();
  // kSimulated delivers gutter drains on the writer thread, bypassing the
  // drain workers, so async ingest runs under kRouted.
  c.exec_mode = w.async ? mpc::ExecMode::kRouted : mpc::ExecMode::kSimulated;
  c.async_ingest = w.async;
  c.gutter.drain_threads = kPoolThreads;
  return c;
}

mpc::MpcConfig mpc_config(const Workload& w) {
  mpc::MpcConfig c;
  c.n = w.n;
  c.phi = kPhi;
  return c;
}

// Exactly one of the two front ends.
struct FrontEnd {
  std::unique_ptr<DynamicConnectivity> dc;
  std::unique_ptr<AgmStaticConnectivity> agm;

  FrontEnd(const Workload& w, mpc::Cluster& cluster) {
    if (w.front == Front::kDynamic) {
      dc = std::make_unique<DynamicConnectivity>(w.n, dynamic_config(w),
                                                 &cluster);
    } else {
      agm = std::make_unique<AgmStaticConnectivity>(
          w.n, sketch_config(), &cluster, mpc::ExecMode::kSimulated);
    }
  }

  void bootstrap(std::span<const Edge> edges) {
    if (dc) {
      dc->bootstrap(edges);
      dc->flush_ingest();  // set-up ends with the bootstrap resident
      return;
    }
    Batch batch;
    for (const Edge& e : edges) batch.push_back(Update{UpdateType::kInsert, e, 1});
    agm->apply_batch(batch);
  }
  void apply(const Batch& batch) {
    dc ? dc->apply_batch(batch) : agm->apply_batch(batch);
  }
  void flush() { dc ? dc->flush_ingest() : agm->flush_ingest(); }
  QueryCache::SnapshotPtr snapshot() {
    return dc ? dc->snapshot() : agm->snapshot();
  }
  void answer(std::span<const std::pair<VertexId, VertexId>> pairs,
              std::vector<char>& out) {
    out.clear();
    if (dc) {
      for (const bool b : dc->batch_query(pairs)) out.push_back(b);
      return;
    }
    for (const auto& [u, v] : pairs) out.push_back(agm->connected(u, v));
  }
  const QueryCache& cache() const {
    return dc ? dc->query_cache() : agm->query_cache();
  }
  const VertexSketches& sketches() const {
    return dc ? dc->sketches() : agm->sketches();
  }
  std::uint64_t memory_words() const {
    return dc ? dc->memory_words() : agm->memory_words();
  }
  const mpc::Simulator* simulator() const {
    return dc ? dc->simulator() : agm->simulator();
  }
  const GutterIngest* gutter() const {
    return dc ? dc->gutter() : agm->gutter();
  }
};

// ---- one episode ------------------------------------------------------------------

struct Episode {
  double setup_s = 0.0;
  double timed_s = 0.0;  // inside front-end calls
  std::uint64_t updates = 0;
  std::vector<double> batch_ms;
  std::vector<double> query_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;   // an exception escaped a front-end call
  std::string replay;  // the shadow state diverged
  // Everything below is a pure function of the stream and must repeat
  // exactly in every episode.
  std::map<std::string, double> counts;
};

// Sums rounds_by_label() growth since `before` into the per-layer classes.
void add_round_classes(const std::map<std::string, std::uint64_t>& before,
                       const std::map<std::string, std::uint64_t>& after,
                       std::map<std::string, double>& counts) {
  for (const char* k : {"mpc.rounds_sketch_update", "mpc.rounds_boruvka",
                        "mpc.rounds_euler", "mpc.rounds_query",
                        "mpc.rounds_other"}) {
    counts[k] = 0;
  }
  for (const auto& [label, rounds] : after) {
    const auto it = before.find(label);
    const double delta =
        static_cast<double>(rounds - (it == before.end() ? 0 : it->second));
    const auto has = [&](const char* s) {
      return label.find(s) != std::string::npos;
    };
    const char* key = "mpc.rounds_other";
    if (has("query")) {
      key = "mpc.rounds_query";
    } else if (has("sketch-update")) {
      key = "mpc.rounds_sketch_update";
    } else if (label.rfind("euler/", 0) == 0) {
      key = "mpc.rounds_euler";
    } else if (has("boruvka") || has("sketch-merge")) {
      key = "mpc.rounds_boruvka";
    }
    counts[key] += delta;
  }
}

std::uint64_t cube_log2(VertexId n) {
  std::uint64_t lg = 1;
  while ((1ULL << lg) < n) ++lg;
  return lg * lg * lg;
}

Episode run_episode(const Workload& w, const Stream& s, std::uint32_t index,
                    Tracer& tracer, bool trace) {
  Episode ep;
  const auto t0 = Clock::now();
  mpc::Cluster cluster(mpc_config(w));
  FrontEnd fe(w, cluster);
  fe.bootstrap(s.bootstrap);
  ep.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::unique_ptr<Replay> replay;
  if (trace) {
    replay = std::make_unique<Replay>(w.n, mpc_config(w), sketch_config(),
                                      fe.dc != nullptr, w.async,
                                      dynamic_config(w).gutter, tracer);
    replay->bootstrap(s.bootstrap, fe.dc ? &fe.dc->forest() : nullptr);
  }

  const auto labels0 = cluster.rounds_by_label();
  const auto cache0 = fe.cache().stats();
  const auto dc0 = fe.dc ? fe.dc->stats() : DynamicConnectivity::Stats{};
  const auto sharded0 = fe.sketches().auto_sharded_batches();
  const auto splits = [&] {
    return fe.simulator() ? fe.simulator()->stats().scheduler_splits : 0;
  };
  const auto splits0 = splits();
  const auto gutter0 = fe.gutter() ? fe.gutter()->stats() : GutterIngest::Stats{};

  std::uint64_t update_rounds = 0;
  std::uint64_t window_rounds = 0;
  std::uint64_t window_batches = 0;
  double window_max = 0.0;
  std::uint64_t query_rounds_max = 0;
  std::size_t event = 0;
  std::vector<char> got;

  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    const Batch& batch = s.batches[b];
    tracer.at(index, static_cast<std::uint32_t>(b));
    const std::uint64_t levels0 = fe.dc ? fe.dc->stats().boruvka_levels : 0;
    const std::uint64_t r0 = cluster.rounds();
    ++ep.attempted;
    double ms = 0.0;
    try {
      ms = tracer.time("core.apply_batch", kLoop, [&] { fe.apply(batch); });
    } catch (const std::exception& e) {
      ep.error = std::string("apply_batch threw: ") + e.what();
      ++ep.failed;
      break;
    }
    ep.batch_ms.push_back(ms);
    ep.timed_s += ms / 1e3;
    ep.updates += batch.size();
    window_rounds += cluster.rounds() - r0;
    ++window_batches;
    bool batch_ok = fe.dc == nullptr ||
                    fe.dc->num_components() == s.components[b];
    if (replay) {
      replay->batch(batch, fe.dc ? fe.dc->stats().boruvka_levels - levels0 : 0,
                    fe.dc ? &fe.dc->forest() : nullptr);
    }

    if ((b + 1) % w.query_every == 0) {
      // One query event: flush_ingest + snapshot + the point answers.
      try {
        const std::uint64_t q0 = cluster.rounds();
        double query_ms = tracer.time("core.flush", kLoop, [&] { fe.flush(); });
        const std::uint64_t q1 = cluster.rounds();
        // Rounds a flush charges deliver batches, so they are update rounds.
        window_rounds += q1 - q0;
        window_max = std::max(window_max, static_cast<double>(window_rounds) /
                                              static_cast<double>(window_batches));
        update_rounds += window_rounds;
        window_rounds = 0;
        window_batches = 0;

        const std::uint64_t rebuilds0 = fe.cache().stats().rebuilds;
        QueryCache::SnapshotPtr snap;
        query_ms += tracer.time("core.snapshot", kLoop,
                                [&] { snap = fe.snapshot(); });
        const bool rebuilt = fe.cache().stats().rebuilds != rebuilds0;
        query_ms += tracer.time("core.point_query", kLoop,
                                [&] { fe.answer(s.pairs[event], got); });
        query_rounds_max = std::max(query_rounds_max, cluster.rounds() - q1);
        ep.query_ms.push_back(query_ms);
        ep.timed_s += query_ms / 1e3;

        batch_ok = batch_ok && snap->components() == s.components[b];
        ep.attempted += got.size();
        for (std::size_t q = 0; q < got.size(); ++q) {
          ep.failed += got[q] != s.connected[event][q];
        }
        if (replay) replay->query(rebuilt);
      } catch (const std::exception& e) {
        ep.error = std::string("query event threw: ") + e.what();
        ++ep.failed;
        break;
      }
      ++event;
    }
    ep.failed += !batch_ok;
  }

  auto& c = ep.counts;
  const double batches = static_cast<double>(s.batches.size());
  c["rounds_per_batch_mean"] = static_cast<double>(update_rounds) / batches;
  c["rounds_per_batch_max"] = window_max;
  c["query_rounds_max"] = static_cast<double>(query_rounds_max);
  c["memory_over_nlog3n"] = static_cast<double>(fe.memory_words()) /
                            static_cast<double>(w.n * cube_log2(w.n));
  const mpc::CommLedger& ledger = cluster.comm_ledger();
  c["machine_peak_over_s"] =
      static_cast<double>(std::max(ledger.peak_machine_total_words(),
                                   ledger.max_machine_load())) /
      static_cast<double>(cluster.local_capacity_words());

  add_round_classes(labels0, cluster.rounds_by_label(), c);
  const auto& cache = fe.cache().stats();
  c["core.snapshot_rebuilds"] = static_cast<double>(cache.rebuilds - cache0.rebuilds);
  c["core.snapshot_repairs"] = static_cast<double>(cache.repairs - cache0.repairs);
  c["core.snapshot_hits"] = static_cast<double>(cache.hits - cache0.hits);
  c["mpc.scheduler_splits"] = static_cast<double>(splits() - splits0);
  c["sketch.sharded_batches"] =
      static_cast<double>(fe.sketches().auto_sharded_batches() - sharded0);
  const auto gutter = fe.gutter() ? fe.gutter()->stats() : GutterIngest::Stats{};
  c["ingest.capacity_drains"] =
      static_cast<double>(gutter.capacity_drains - gutter0.capacity_drains);
  c["ingest.flush_drains"] =
      static_cast<double>(gutter.flush_drains - gutter0.flush_drains);
  c["ingest.delta_batches"] =
      static_cast<double>(gutter.delta_batches - gutter0.delta_batches);
  if (fe.dc) {
    const auto& st = fe.dc->stats();
    c["core.boruvka_levels"] = static_cast<double>(st.boruvka_levels - dc0.boruvka_levels);
    c["core.replacements_found"] =
        static_cast<double>(st.replacements_found - dc0.replacements_found);
    c["core.empty_levels"] = static_cast<double>(st.empty_levels - dc0.empty_levels);
  }

  if (replay) {
    const ReplayCounts& r = replay->counts();
    if (!fe.dc) {
      c["core.boruvka_levels"] = static_cast<double>(r.agm_levels);
      c["core.replacements_found"] = static_cast<double>(r.agm_forest_edges);
      c["core.empty_levels"] = static_cast<double>(r.agm_empty_levels);
    }
    c["mpc.route_skew"] = r.routed_batches == 0
                              ? 0.0
                              : r.skew_sum / static_cast<double>(r.routed_batches);
    c["sketch.prepare_words"] = static_cast<double>(r.prepare_words);
    c["sketch.apply_items"] = static_cast<double>(r.apply_items);
    c["sketch.sample_groups"] = static_cast<double>(r.sample_groups);
    c["sketch.sample_hit_ratio"] =
        r.sample_groups == 0 ? 0.0
                             : static_cast<double>(r.sample_hits) /
                                   static_cast<double>(r.sample_groups);
    c["euler.cut_edges"] = static_cast<double>(r.cut_edges);
    c["euler.link_edges"] = static_cast<double>(r.link_edges);
    const bool same_words =
        replay->allocated_words() == fe.sketches().allocated_words();
    const bool same_trees =
        !fe.dc || replay->num_trees() == fe.dc->num_components();
    c["trace.replay_identity"] = same_words && same_trees ? 1.0 : 0.0;
    if (!same_words || !same_trees) {
      ep.replay = "shadow state diverged: allocated words " +
                  std::to_string(replay->allocated_words()) + " vs " +
                  std::to_string(fe.sketches().allocated_words()) +
                  ", trees " + std::to_string(replay->num_trees()) + " vs " +
                  std::to_string(fe.dc ? fe.dc->num_components() : 0);
    }
  }
  return ep;
}

// ---- statistics and output ----------------------------------------------------------

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

const char* count_unit(const std::string& name) {
  if (name == "sketch.prepare_words") return "words";
  if (name.rfind("mpc.rounds_", 0) == 0) return "rounds";
  if (name == "mpc.route_skew" || name == "sketch.sample_hit_ratio" ||
      name == "trace.replay_identity") {
    return "ratio";
  }
  return "count";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string json = "BENCH_e2e.json";
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload churn|insert_skew|insert_async|agm"
               " [--seed S] [--seconds T] [--trace 0|1] [--json PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    // std::stoull / std::stod throw on text that is not a number.
    const auto number = [&](auto convert) {
      const std::string text = value();
      try {
        return convert(text);
      } catch (const std::logic_error&) {
        usage(("bad value for " + a + ": " + text).c_str());
      }
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = number([](const std::string& s) { return std::stoull(s); });
    } else if (a == "--seconds") {
      o.seconds = number([](const std::string& s) { return std::stod(s); });
    } else if (a == "--trace") {
      // `--trace` alone turns tracing on; `--trace 0|1` sets it.
      o.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        o.trace = argv[++i][0] == '1';
      }
    } else if (a == "--json") {
      o.json = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const Workload& w = *found;

  const Host host = probe_host();
  if (host.hardware_concurrency > host.nproc) {
    std::cerr << "bench_e2e: warning: hardware_concurrency ("
              << host.hardware_concurrency << ") > nproc (" << host.nproc
              << "); this process may use fewer CPUs than the host has\n";
  }
  // The benchmark fixes the thread knobs itself (kPoolThreads).
  for (const char* knob : {"SMPC_SHARDS", "SMPC_SCHED", "SMPC_GROW"}) {
    if (std::getenv(knob) != nullptr) {
      std::cerr << "bench_e2e: warning: " << knob << " is set; the library"
                << " does not run at its defaults\n";
    }
  }
  // The Simulator's grid width has no config field; it reads
  // SMPC_SIM_THREADS when it is built.
  setenv("SMPC_SIM_THREADS", std::to_string(kPoolThreads).c_str(), 1);

  const auto prep0 = Clock::now();
  const Stream stream = make_stream(w, opt.seed);
  const double prep_s =
      std::chrono::duration<double>(Clock::now() - prep0).count();

  Tracer tracer(opt.trace);

  // Episodes until the time is up; untraced runs need at least
  // kMinEpisodes set-ups for the setup_s median.
  std::vector<Episode> episodes;
  const std::size_t min_episodes = opt.trace ? 1 : kMinEpisodes;
  const auto start = Clock::now();
  double last_s = 0.0;
  for (;;) {
    const auto e0 = Clock::now();
    episodes.push_back(run_episode(w, stream,
                                   static_cast<std::uint32_t>(episodes.size()),
                                   tracer, opt.trace));
    last_s = std::chrono::duration<double>(Clock::now() - e0).count();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (!episodes.back().error.empty() || !episodes.back().replay.empty()) break;
    if (episodes.size() >= min_episodes && elapsed + last_s > opt.seconds) break;
  }

  // ---- aggregate ----
  std::uint64_t attempted = 0, failed = 0, updates = 0;
  double timed_s = 0.0;
  std::vector<double> batch_ms, query_ms, setup_s;
  std::string error;
  for (const Episode& ep : episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
    updates += ep.updates;
    timed_s += ep.timed_s;
    batch_ms.insert(batch_ms.end(), ep.batch_ms.begin(), ep.batch_ms.end());
    query_ms.insert(query_ms.end(), ep.query_ms.begin(), ep.query_ms.end());
    setup_s.push_back(ep.setup_s);
    if (error.empty() && !ep.error.empty()) error = ep.error;
    if (error.empty() && !ep.replay.empty()) error = ep.replay;
  }
  const Episode& first = episodes.front();
  if (error.empty()) {
    for (const Episode& ep : episodes) {
      for (const auto& [k, v] : first.counts) {
        const auto it = ep.counts.find(k);
        if (it == ep.counts.end() || it->second != v) {
          error = "count " + k + " did not repeat across episodes";
        }
      }
    }
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double per_episode = 1.0 / static_cast<double>(episodes.size());
  const auto count = [&](const char* k) {
    const auto it = first.counts.find(k);
    return it == first.counts.end() ? 0.0 : it->second;
  };

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"updates_per_s", static_cast<double>(updates) / timed_s, "1/s"},
        {"batch_p50_ms", quantile(batch_ms, 0.5), "ms"},
        {"batch_p90_ms", quantile(batch_ms, 0.9), "ms"},
        {"query_p50_ms", quantile(query_ms, 0.5), "ms"},
        {"query_p90_ms", quantile(query_ms, 0.9), "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"memory_over_nlog3n", count("memory_over_nlog3n"), "ratio"},
        {"rounds_per_batch_mean", count("rounds_per_batch_mean"), "rounds"},
        {"rounds_per_batch_max", count("rounds_per_batch_max"), "rounds"},
        {"query_rounds_max", count("query_rounds_max"), "rounds"},
        {"machine_peak_over_s", count("machine_peak_over_s"), "ratio"},
    };
  } else {
    const auto ms = [&](const char* span) {
      return tracer.total_ms(span) * per_episode;
    };
    const double apply_ms = ms("core.apply_batch");
    metrics = {
        {"core.apply_batch_ms", apply_ms, "ms"},
        {"core.flush_ms", ms("core.flush"), "ms"},
        {"core.snapshot_ms", ms("core.snapshot"), "ms"},
        {"core.point_query_ms", ms("core.point_query"), "ms"},
        {"core.unattributed_ms",
         apply_ms - tracer.cause_ms(kApplyBatch) * per_episode, "ms"},
        {"mpc.route_ms", ms("mpc.route"), "ms"},
        {"mpc.probe_ms", ms("mpc.probe"), "ms"},
        {"sketch.prepare_ms", ms("sketch.prepare"), "ms"},
        {"sketch.apply_ms", ms("sketch.apply"), "ms"},
        {"sketch.sample_ms", ms("sketch.sample"), "ms"},
        {"euler.cut_ms", ms("euler.cut"), "ms"},
        {"euler.link_ms", ms("euler.link"), "ms"},
        {"ingest.submit_ms", ms("ingest.submit"), "ms"},
    };
    for (const char* k :
         {"core.snapshot_rebuilds", "core.snapshot_repairs",
          "core.snapshot_hits", "core.boruvka_levels",
          "core.replacements_found", "core.empty_levels", "mpc.route_skew",
          "mpc.rounds_sketch_update", "mpc.rounds_boruvka", "mpc.rounds_euler",
          "mpc.rounds_query", "mpc.rounds_other", "mpc.scheduler_splits",
          "sketch.prepare_words", "sketch.apply_items", "sketch.sample_groups",
          "sketch.sample_hit_ratio", "sketch.sharded_batches",
          "euler.cut_edges", "euler.link_edges", "ingest.capacity_drains",
          "ingest.flush_drains", "ingest.delta_batches",
          "trace.replay_identity"}) {
      metrics.push_back({k, count(k), count_unit(k)});
    }
    tracer.write("TRACE_e2e.json", w.name);
  }

  const bool correct = error.empty() && failed == 0;
  const std::size_t events = query_ms.size();

  // ---- report ----
  std::cout << "# workload " << w.name << ": seed " << opt.seed << ", "
            << episodes.size() << " episodes, " << batch_ms.size()
            << " batches, " << events << " query events, stream built in "
            << num(prep_s) << " s\n";
  std::cout << "# host: nproc " << host.nproc << ", hardware_concurrency "
            << host.hardware_concurrency << ", " << BENCH_COMPILER << ", "
            << BENCH_BUILD_TYPE << "\n";
  for (const Metric& m : metrics) {
    std::cout << w.name << "." << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  }

  std::ofstream json(opt.json);
  json << "{\n  \"bench\": \"e2e\",\n  \"workload\": \"" << w.name
       << "\",\n  \"seed\": " << opt.seed << ",\n  \"trace\": " << opt.trace
       << ",\n  \"host\": {\"nproc\": " << host.nproc
       << ", \"hardware_concurrency\": " << host.hardware_concurrency
       << ", \"compiler\": \"" << BENCH_COMPILER << "\", \"build_type\": \""
       << BENCH_BUILD_TYPE << "\"},\n  \"episodes\": " << episodes.size()
       << ",\n  \"samples\": {\"batches\": " << batch_ms.size()
       << ", \"query_events\": " << events << "},\n  \"per_episode\": [";
  // Per-episode medians show drift within a run.
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    json << (e == 0 ? "\n    " : ",\n    ") << "{\"setup_s\": "
         << num(ep.setup_s) << ", \"batch_p50_ms\": "
         << num(quantile(ep.batch_ms, 0.5)) << ", \"query_p50_ms\": "
         << num(quantile(ep.query_ms, 0.5)) << ", \"updates_per_s\": "
         << num(static_cast<double>(ep.updates) / ep.timed_s) << "}";
  }
  json << "],\n  \"correct\": "
       << (correct ? "true" : "false") << ",\n  \"attempted\": " << attempted
       << ",\n  \"failed\": " << failed
       << ",\n  \"metrics\": " << metrics_json(metrics)
       << ",\n  \"direct_ms_per_episode\": {\"core.apply_batch\": "
       << num(tracer.total_ms("core.apply_batch") * per_episode)
       << ", \"core.query\": "
       << num((tracer.total_ms("core.flush") + tracer.total_ms("core.snapshot") +
               tracer.total_ms("core.point_query")) *
              per_episode)
       << "}\n}\n";

  if (!error.empty()) std::cout << "error: " << error << "\n";
  std::cout << "verdict: " << (correct ? "PASS" : "FAIL") << " (" << failed
            << " of " << attempted << " batches and point queries failed)\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace streammpc::e2e

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "bench_e2e: refusing to run without NDEBUG; build with "
               "-DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  const auto opt = streammpc::e2e::parse(argc, argv);
  try {
    return streammpc::e2e::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
