// The ingest-and-serve plumbing shared by the connectivity front ends
// (DynamicConnectivity, AgmStaticConnectivity, StreamingConnectivity).
// They differ only in their algorithm state; everything between their
// sketch deltas and the cluster lives here:
//
//   * the executor: the attached cluster (or none — flat ingest), the
//     ExecMode, and under kSimulated the Simulator (scratch budget, fault
//     injector) and BatchScheduler built for it;
//   * delivery: deliver() routes a delta batch through routed_ingest under
//     the caller's ledger label, or buffers it in the async GutterIngest
//     once enable_async() ran;
//   * serving: the QueryCache, flushed before every read (flush-on-query),
//     poisoned when a flush throws, and served by serve() — acquire ->
//     repair -> rebuild (core/query_cache.h).
//
// DynamicApproxMatching uses only the executor part (null sketches): its
// deltas land in AKLY samplers, not VertexSketches.
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
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {

class SketchFrontend {
 public:
  // `sketches` (may be null, see above) and the optional `cluster` and
  // `fault_injector` are unowned and must outlive this object.  The
  // simulator and scheduler exist iff a cluster is attached and `mode` is
  // kSimulated; `scratch_words` is the Simulator's per-machine budget
  // (0 = s).
  SketchFrontend(VertexId universe, VertexSketches* sketches,
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
  // cache's repair state and rethrows.
  void flush();
  // flush(), then the cache's acquire -> repair -> rebuild at the
  // sketches' mutation epoch.
  QueryCache::SnapshotPtr serve(
      const std::function<QueryCache::Rebuilt()>& rebuild);

  mpc::Cluster* cluster() const { return cluster_; }
  mpc::Simulator* simulator() const { return simulator_.get(); }
  mpc::BatchScheduler* scheduler() const { return scheduler_.get(); }
  const GutterIngest* gutter() const { return gutter_.get(); }
  QueryCache& cache() { return cache_; }
  const QueryCache& cache() const { return cache_; }

 private:
  VertexId universe_;
  VertexSketches* sketches_;
  mpc::Cluster* cluster_;
  mpc::ExecMode mode_;
  std::unique_ptr<mpc::Simulator> simulator_;       // kSimulated only
  std::unique_ptr<mpc::BatchScheduler> scheduler_;  // kSimulated only
  std::vector<EdgeDelta> delta_scratch_;  // deliver(updates) staging
  mpc::RoutedBatch routed_scratch_;       // reused per-machine sub-batches
  QueryCache cache_;
  // Declared after the executor: the destructor's implicit flush delivers
  // through the simulator/scheduler above.
  std::unique_ptr<GutterIngest> gutter_;
};

}  // namespace streammpc
