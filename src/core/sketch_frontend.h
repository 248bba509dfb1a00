// The ingest-and-serve plumbing shared by the connectivity front ends
// (DynamicConnectivity, AgmStaticConnectivity, StreamingConnectivity).
// They differ only in their algorithm state; everything between their
// sketch deltas and the cluster lives here:
//
//   * the executor: the attached cluster (or none — flat ingest) and,
//     under ExecMode::kSimulated, the Simulator built for it (scratch
//     budget, batch-loop policies, fault injector);
//   * delivery: deliver() routes a delta batch through routed_ingest under
//     the caller's ledger label, or buffers it in the async GutterIngest
//     once enable_async() ran;
//   * serving: the QueryCache, flushed before every read (flush-on-query),
//     poisoned when a flush throws, and served by serve() — acquire ->
//     derive or repair -> rebuild (core/query_cache.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query_cache.h"
#include "graph/types.h"
#include "ingest/gutter_ingest.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class SketchFrontend {
 public:
  // `sketches` and the optional `cluster` and `fault_injector` are
  // unowned and must outlive this object.  The simulator exists iff a
  // cluster is attached and `mode` is kSimulated; `scratch_words` is its
  // per-machine budget (0 = s) and `scheduler` its batch-loop policies.
  SketchFrontend(VertexId universe, VertexSketches& sketches,
                 mpc::Cluster* cluster, mpc::ExecMode mode,
                 const mpc::SchedulerConfig& scheduler = {},
                 std::uint64_t scratch_words = 0,
                 mpc::FaultInjector* fault_injector = nullptr);

  // Sends `deltas` to the gutter when async ingest is on, otherwise
  // straight through routed_ingest, charged under `label`.
  void deliver(std::span<const EdgeDelta> deltas, const std::string& label);
  // The same for updates: +1 per insert, -1 per delete.
  void deliver(std::span<const Update> updates, const std::string& label);

  // Switches deliver() to the async gutter.  A default-constructed label
  // becomes `default_label`, so drains charge where direct ingest does.
  void enable_async(const GutterIngestConfig& config,
                    const std::string& default_label);
  // Drains the gutter (no-op without one).  A throwing flush poisons the
  // cache's forest delta and rethrows.
  void flush();
  // flush(), then the cache's acquire -> derive or repair -> rebuild at
  // the sketches' mutation epoch.  `labels`: the front end's maintained
  // min-vertex labels (derive), or null when it keeps none (repair).
  QueryCache::SnapshotPtr serve(
      const std::function<QueryCache::Rebuilt()>& rebuild,
      const std::vector<VertexId>* labels = nullptr);

  mpc::Cluster* cluster() const { return cluster_; }
  mpc::Simulator* simulator() const { return simulator_.get(); }
  const GutterIngest* gutter() const { return gutter_.get(); }
  QueryCache& cache() { return cache_; }
  const QueryCache& cache() const { return cache_; }

 private:
  VertexId universe_;
  VertexSketches& sketches_;
  mpc::Cluster* cluster_;
  std::unique_ptr<mpc::Simulator> simulator_;  // kSimulated only
  std::vector<EdgeDelta> delta_scratch_;  // deliver(updates) staging
  mpc::RoutedBatch routed_scratch_;       // reused per-machine sub-batches
  QueryCache cache_;
  // Declared after the executor: the destructor's implicit flush delivers
  // through the simulator above.
  std::unique_ptr<GutterIngest> gutter_;
};

}  // namespace streammpc
