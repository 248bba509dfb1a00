// Spans and the per-layer replay of bench_e2e's traced run.
//
// The library has no clock of its own, so the traced run splits time by
// layer from outside.  After each front-end call returns, the benchmark
// replays what that call did through the layers' public functions on
// *shadow* state: a second mpc::Cluster, VertexSketches with the same config
// and seed, an mpc::Simulator, an EulerTourForest and a GutterIngest.  Every
// layer call is timed as a span.  The shadow sees exactly the deltas the
// real structure saw, so at the end of an episode its allocated_words() (and,
// for DynamicConnectivity, its tree count) must equal the real one: that is
// trace.replay_identity.
//
// Every workload replays the same layer sequence once per batch: the
// synchronous delivery (route, budget probe, page preparation, cell apply),
// the gutter (submit), the Euler tours (cut, link) and the replacement
// search's sampling.  A layer the workload does not use — the gutter under
// synchronous ingest, the Euler tours under AGM — is called on an empty
// input, so every layer reports a measured time on every workload; its spans
// have cause `unused` and explain no front-end call.
//
// Span names are the per-layer metric names without the unit suffix
// (mpc.route, sketch.apply, ...), so that tracing inside the library can
// later emit the same names.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/dynamic_connectivity.h"
#include "euler/tour_forest.h"
#include "graph/reference.h"
#include "ingest/gutter_ingest.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc::e2e {

using Clock = std::chrono::steady_clock;

// Causes: the front-end call a span explains.  Spans around the front-end
// calls themselves are caused by the benchmark loop.
inline constexpr const char* kLoop = "loop";
inline constexpr const char* kApplyBatch = "apply_batch";
inline constexpr const char* kSnapshot = "snapshot";
inline constexpr const char* kUnused = "unused";

struct Span {
  const char* name;
  const char* cause;
  std::uint32_t episode;
  std::uint32_t batch;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Times calls and keeps per-name and per-cause totals in every run; keeps
// the spans themselves (in memory, written once at exit) only when tracing.
class Tracer {
 public:
  explicit Tracer(bool keep_spans)
      : keep_spans_(keep_spans), origin_(Clock::now()) {}

  void at(std::uint32_t episode, std::uint32_t batch) {
    episode_ = episode;
    batch_ = batch;
  }

  void record(const char* name, const char* cause, Clock::time_point start,
              Clock::time_point end) {
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    total_ms_[name] += ms;
    if (std::string_view(cause) != kLoop) cause_ms_[cause] += ms;
    if (keep_spans_) {
      spans_.push_back(Span{name, cause, episode_, batch_, ns(start), ns(end)});
    }
  }

  // Runs fn as one span; returns its duration in ms.
  template <typename Fn>
  double time(const char* name, const char* cause, Fn&& fn) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    record(name, cause, start, end);
    return std::chrono::duration<double, std::milli>(end - start).count();
  }

  double total_ms(const std::string& name) const {
    const auto it = total_ms_.find(name);
    return it == total_ms_.end() ? 0.0 : it->second;
  }
  // Replay time spent explaining one front-end call.
  double cause_ms(const std::string& cause) const {
    const auto it = cause_ms_.find(cause);
    return it == cause_ms_.end() ? 0.0 : it->second;
  }

  void write(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    out << "{\"workload\": \"" << workload << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"workload\": \"" << workload << "\", \"episode\": "
          << s.episode << ", \"batch\": " << s.batch
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"cause\": \"" << s.cause << "\"}";
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool keep_spans_;
  Clock::time_point origin_;
  std::uint32_t episode_ = 0;
  std::uint32_t batch_ = 0;
  std::map<std::string, double> total_ms_;
  std::map<std::string, double> cause_ms_;
  std::vector<Span> spans_;
};

// Work counts of the replayed layers, per episode.
struct ReplayCounts {
  std::uint64_t routed_batches = 0;  // non-empty synchronous deliveries
  double skew_sum = 0.0;             // of max / mean machine load over them
  std::uint64_t prepare_words = 0;
  std::uint64_t apply_items = 0;
  std::uint64_t sample_groups = 0;
  std::uint64_t sample_hits = 0;
  std::uint64_t cut_edges = 0;
  std::uint64_t link_edges = 0;
  // The AGM query's Boruvka, which only the replay sees level by level.
  std::uint64_t agm_levels = 0;
  std::uint64_t agm_forest_edges = 0;
  std::uint64_t agm_empty_levels = 0;
};

class Replay {
 public:
  // `dynamic`: the real structure is DynamicConnectivity (else the AGM
  // baseline).  `async`: it ingests through its gutter, configured by
  // `gutter`, under kRouted.
  // Like the real run's pools, the replay runs serially.
  Replay(VertexId n, const mpc::MpcConfig& mpc,
         const GraphSketchConfig& sketch, bool dynamic, bool async,
         const GutterIngestConfig& gutter, Tracer& tracer)
      : n_(n),
        dynamic_(dynamic),
        async_(async),
        tracer_(tracer),
        cluster_(mpc),
        sketches_(n, sketch),
        simulator_(cluster_),
        forest_(n),
        gutter_(n, sketches_, gutter, &cluster_, mpc::ExecMode::kRouted) {}

  // Untimed: brings the shadow to the real state after bootstrap.
  void bootstrap(std::span<const Edge> edges, const EulerTourForest* real) {
    std::vector<EdgeDelta> deltas;
    for (const Edge& e : edges) deltas.push_back(EdgeDelta{e, +1});
    sketches_.update_edges(deltas);
    if (real != nullptr) {
      std::vector<Edge> tree(real->tree_edges().begin(),
                             real->tree_edges().end());
      std::sort(tree.begin(), tree.end());
      forest_.batch_link(tree);
    }
  }

  // Replays one apply_batch.  `levels` is the number of Boruvka levels the
  // real replacement search ran for this batch; `real` is the real forest
  // after the batch (null for AGM, which keeps none).
  void batch(const Batch& batch, std::uint64_t levels,
             const EulerTourForest* real) {
    // The deliveries the real call makes: AgmStaticConnectivity ingests the
    // batch as given; DynamicConnectivity its net inserts, then its net
    // deletes.  An empty one is skipped, as routed_ingest skips it.
    std::vector<Update> ins;
    std::vector<Update> del;
    std::vector<std::vector<EdgeDelta>> parts;
    if (dynamic_) {
      std::tie(ins, del) = normalize_batch(batch);
      parts = {deltas_of(ins), deltas_of(del)};
    } else {
      parts = {deltas_of(batch)};
    }
    for (const auto& part : parts) {
      if (part.empty()) continue;
      async_ ? submit(part, kApplyBatch) : deliver(part, kApplyBatch);
    }
    async_ ? deliver({}, kUnused) : submit({}, kUnused);

    std::vector<Edge> cuts;
    for (const Update& u : del) {
      if (forest_.is_tree_edge(u.e)) cuts.push_back(u.e);
    }
    const char* euler = real != nullptr ? kApplyBatch : kUnused;
    tracer_.time("euler.cut", euler, [&] { forest_.batch_cut(cuts); });
    counts_.cut_edges += cuts.size();
    if (dynamic_) sample_fragments(cuts, levels);

    // New tree edges: without cuts only the batch's inserts can have
    // joined the forest; with cuts, replacements may be any graph edge.
    std::vector<Edge> links;
    if (real != nullptr && cuts.empty()) {
      for (const Update& u : ins) {
        if (real->is_tree_edge(u.e) && !forest_.is_tree_edge(u.e)) {
          links.push_back(u.e);
        }
      }
    } else if (real != nullptr) {
      for (const Edge& e : real->tree_edges()) {
        if (!forest_.is_tree_edge(e)) links.push_back(e);
      }
      std::sort(links.begin(), links.end());
    }
    tracer_.time("euler.link", euler, [&] { forest_.batch_link(links); });
    counts_.link_edges += links.size();
  }

  // Replays a query event.  `rebuilt`: the real snapshot() rebuilt.
  void query(bool rebuilt) {
    gutter_.flush();  // mirrors the real flush_ingest()
    if (!dynamic_ && rebuilt) agm_boruvka();
  }

  std::uint64_t allocated_words() const { return sketches_.allocated_words(); }
  std::size_t num_trees() const { return forest_.num_trees(); }
  const ReplayCounts& counts() const { return counts_; }

 private:
  template <typename Updates>
  static std::vector<EdgeDelta> deltas_of(const Updates& updates) {
    std::vector<EdgeDelta> out;
    for (const Update& u : updates) {
      out.push_back(EdgeDelta{u.e, u.type == UpdateType::kInsert ? +1 : -1});
    }
    return out;
  }

  // One synchronous delivery: route -> budget probe -> page preparation ->
  // (machine x bank) cells, as routed_ingest runs it under kSimulated.
  void deliver(std::span<const EdgeDelta> deltas, const char* cause) {
    tracer_.time("mpc.route", cause,
                 [&] { cluster_.route_batch(deltas, n_, routed_); });
    if (!deltas.empty()) {
      const double mean = static_cast<double>(routed_.total_words()) /
                          static_cast<double>(routed_.machines());
      ++counts_.routed_batches;
      counts_.skew_sum += static_cast<double>(routed_.max_load_words()) / mean;
    }
    tracer_.time("mpc.probe", cause,
                 [&] { simulator_.probe(routed_, sketches_); });
    const std::uint64_t before = sketches_.allocated_words();
    tracer_.time("sketch.prepare", cause,
                 [&] { sketches_.begin_routed_cells(routed_); });
    counts_.prepare_words += sketches_.allocated_words() - before;
    std::uint64_t items = 0;
    tracer_.time("sketch.apply", cause, [&] {
      for (std::uint64_t m = 0; m < routed_.machines(); ++m) {
        for (unsigned b = 0; b < sketches_.banks(); ++b) {
          items += sketches_.ingest_cell(m, b, routed_);
        }
      }
    });
    counts_.apply_items += items;
  }

  void submit(std::span<const EdgeDelta> deltas, const char* cause) {
    tracer_.time("ingest.submit", cause, [&] { gutter_.submit(deltas); });
  }

  // DynamicConnectivity's replacement search: the trees now holding the
  // cut edges' endpoints, sampled once per level the real run used.  A
  // batch without cuts runs no search; it replays as one unused sample over
  // the empty fragment set.
  void sample_fragments(const std::vector<Edge>& cuts, std::uint64_t levels) {
    std::vector<TourId> fragments;
    std::unordered_map<TourId, char> seen;
    for (const Edge& e : cuts) {
      for (const VertexId x : {e.u, e.v}) {
        const TourId t = forest_.tour_of(x);
        if (seen.try_emplace(t, 1).second) fragments.push_back(t);
      }
    }
    csr_.build(
        fragments.size(), [](std::size_t i) { return static_cast<VertexId>(i); },
        [&](std::size_t i) {
          const auto& members = forest_.members_of(fragments[i]);
          return std::span<const VertexId>(members.data(), members.size());
        });
    if (cuts.empty()) {
      sample(0, kUnused);
      return;
    }
    for (unsigned level = 0; level < levels; ++level) sample(level, kApplyBatch);
  }

  // AgmStaticConnectivity::query_spanning_forest on the shadow sketches:
  // Boruvka over singletons, one bank per level, the same stopping rule.
  void agm_boruvka() {
    Dsu dsu(n_);
    std::vector<VertexId> ids(n_);
    for (VertexId v = 0; v < n_; ++v) ids[v] = v;
    for (unsigned level = 0; level < sketches_.banks(); ++level) {
      ++counts_.agm_levels;
      csr_.build(
          n_, [&](std::size_t v) { return dsu.find(static_cast<VertexId>(v)); },
          [&](std::size_t v) { return std::span<const VertexId>(&ids[v], 1); });
      sample(level, kSnapshot);
      bool any_edge = false;
      bool progress = false;
      for (const auto& e : samples_) {
        if (!e) continue;
        any_edge = true;
        if (dsu.unite(e->u, e->v)) {
          ++counts_.agm_forest_edges;
          progress = true;
        }
      }
      if (!any_edge) ++counts_.agm_empty_levels;
      if (!progress) break;
    }
  }

  void sample(unsigned level, const char* cause) {
    tracer_.time("sketch.sample", cause, [&] {
      sketches_.sample_boundaries(level, csr_.members(), csr_.offsets(),
                                  scratch_, samples_);
    });
    counts_.sample_groups += csr_.groups();
    for (const auto& e : samples_) counts_.sample_hits += e.has_value();
  }

  VertexId n_;
  bool dynamic_;
  bool async_;
  Tracer& tracer_;
  mpc::Cluster cluster_;
  VertexSketches sketches_;
  mpc::Simulator simulator_;
  EulerTourForest forest_;
  GutterIngest gutter_;  // after the sketches and cluster it delivers into
  mpc::RoutedBatch routed_;
  GroupCsr csr_;
  std::vector<L0Sampler> scratch_;
  std::vector<std::optional<Edge>> samples_;
  ReplayCounts counts_;
};

}  // namespace streammpc::e2e
