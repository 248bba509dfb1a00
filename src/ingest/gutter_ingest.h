// Async ingest front door (ISSUE 8): guttering + delta-sketch pipeline.
//
// The paper's MPC streaming model assumes updates arrive as large batches
// per round, but clients send millions of tiny updates — applying each one
// synchronously means millions of tiny ExecPlan::run invocations, exactly
// the regime the serve-heavy north star forbids.  The Landscape
// work-distributor / GraphStreamingCC `delta_sketches` design shows the
// production shape, reproduced here:
//
//   * submit() appends each EdgeDelta to the gutter of the vertex block
//     holding its lower endpoint (per-machine gutters under a cluster's
//     contiguous-block partitioner; the block formula is the same with or
//     without a cluster).  Each delta is stored ONCE, so a drain delivers
//     the original batch and the CommLedger charges come out exactly equal
//     to direct ingest of that batch;
//   * a full gutter drains: the writer stages the batch (Cluster::
//     route_batch under kRouted, a 1-machine flat CSR without a cluster)
//     and hands the job to a worker thread, which accumulates a *delta
//     sketch* into a reusable scratch arena set (sketch/delta_sketch.h) —
//     all the hashing happens off the writer thread;
//   * the writer merges completed jobs into the resident shard IN
//     SUBMISSION ORDER through the ExecPlan::run choke point
//     (VertexSketches::merge_delta) — so the mutation epoch, the query
//     cache, and the ledger see the same deterministic sequence for every
//     worker count, and the resident arenas come out byte-identical to
//     synchronous ingest of the same drain batches;
//   * under kSimulated mode the drain instead delivers through
//     routed_ingest on the writer thread: a gutter flush IS one scheduled
//     batch, so the BatchScheduler's probe/bisect/retry/grow loop and the
//     fault injector compose unchanged (a precomputed delta sketch cannot
//     survive a bisection, so that path does not precompute).
//
// Flush semantics: flush() drains every gutter and blocks until every
// pending job is merged; the destructor flushes (swallowing errors — call
// flush() explicitly to observe them); front ends flush before ANY sketch
// read (flush-on-query).  Queries between submit() and flush() see the
// resident state as of the last merged drain.
//
// Thread contract: submit()/flush()/stats() are writer-side (one thread —
// the same thread that owns the sketches).  Worker threads touch only
// their job's scratch sketch and immutable resident geometry; the resident
// arenas, the ledger, and the epoch are mutated exclusively on the writer
// thread, which is what keeps the query cache's AtomicSharedPtr slot the
// only writer/reader publication point.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "mpc/comm_ledger.h"
#include "mpc/config.h"
#include "sketch/delta_sketch.h"

namespace streammpc {

class VertexSketches;

namespace mpc {
class BatchScheduler;
class Cluster;
class Simulator;
}  // namespace mpc

struct GutterIngestConfig {
  // Deltas buffered per gutter before it drains as one batch.
  std::size_t gutter_capacity = 1024;
  // Gutter count; 0 = one per cluster machine (1 without a cluster).
  // Gutters partition vertices into contiguous blocks by lower endpoint.
  std::size_t gutters = 0;
  // Worker threads sketching drained batches: 0 = min(hardware, 4).  The
  // resident sketch state never depends on this value.
  unsigned drain_threads = 0;
  // Drain jobs (and scratch delta sketches) in flight before submit()
  // blocks and merges completed heads; 0 = drain_threads + 2.
  std::size_t max_pending = 0;
  // CommLedger label for drain deliveries.
  std::string label = "ingest/gutter-flush";
};

class GutterIngest {
 public:
  // `sketches` (and the optional cluster/simulator/scheduler, all
  // unowned) must outlive this object.  `mode` mirrors routed_ingest's
  // dispatch: a null cluster = unaccounted flat staging (whatever the
  // mode); kRouted = route + charge per machine; kSimulated = writer-thread
  // delivery through the simulator/scheduler (`simulator` must be non-null
  // then).
  GutterIngest(VertexId universe, VertexSketches& sketches,
               const GutterIngestConfig& config = {},
               mpc::Cluster* cluster = nullptr,
               mpc::ExecMode mode = mpc::ExecMode::kRouted,
               mpc::Simulator* simulator = nullptr,
               mpc::BatchScheduler* scheduler = nullptr);
  ~GutterIngest();

  GutterIngest(const GutterIngest&) = delete;
  GutterIngest& operator=(const GutterIngest&) = delete;

  // Buffers one delta (validated immediately: normalized edge, v <
  // universe), draining its gutter when full.  Deterministic: drain
  // boundaries depend only on the submission sequence, never on worker
  // timing.
  void submit(const EdgeDelta& delta);
  void submit(std::span<const EdgeDelta> deltas);

  // Drains every non-empty gutter (ascending gutter index) and blocks
  // until every pending job is merged into the resident shard.  Rethrows
  // the first delivery error (validation, strict budget rejection,
  // scheduler exhaustion); the front ends treat a throwing flush as
  // poisoning their repair state.  Idempotent; an empty flush delivers
  // nothing and charges nothing.
  void flush();

  // Deltas currently buffered across gutters (excludes drained-but-
  // unmerged jobs; writer-side).
  std::size_t buffered() const { return buffered_; }
  std::size_t gutters() const { return gutters_.size(); }
  unsigned drain_threads() const { return worker_count_; }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t capacity_drains = 0;  // gutter filled during submit()
    std::uint64_t flush_drains = 0;     // partial gutters drained by flush()
    std::uint64_t flushes = 0;
    std::uint64_t delta_batches = 0;   // merged from worker delta sketches
    std::uint64_t direct_batches = 0;  // delivered through routed_ingest
    // ExecPlan::run's applied-count fold, delta-merge deliveries only (the
    // direct path's count lands in Simulator::Stats as usual).
    std::uint64_t applied = 0;
    std::uint64_t peak_buffered = 0;   // max buffered() ever observed
  };
  const Stats& stats() const { return stats_; }

 private:
  struct DrainJob {
    std::vector<EdgeDelta> deltas;
    mpc::RoutedBatch routed;            // staged by the writer at enqueue
    std::unique_ptr<DeltaSketch> sketch;
    bool ready = false;                 // worker finished (or failed)
    std::exception_ptr error;
  };

  std::size_t gutter_of(Edge e) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(e.u) * gutters_.size() / universe_);
  }
  void drain(std::size_t g);
  // Synchronous writer-thread delivery (kSimulated: scheduler/faults).  A
  // failed delivery is dropped, like a failed worker job: the gutter is
  // emptied either way.
  void deliver_direct(std::vector<EdgeDelta>& gutter);
  // Hands `gutter`'s contents to a worker as a delta-sketch job.
  void enqueue(std::vector<EdgeDelta>& gutter);
  // Merges every completed job at the head of merge_queue_, in submission
  // order.  Called with `lock` held; unlocks around each merge.
  void merge_ready(std::unique_lock<std::mutex>& lock);
  // Pops a pooled job (or allocates below max_pending_), merging completed
  // heads while waiting when the pipeline is full.
  std::unique_ptr<DrainJob> acquire_job(std::unique_lock<std::mutex>& lock);
  void worker_loop();

  VertexId universe_;
  VertexSketches& sketches_;
  mpc::Cluster* cluster_;
  mpc::Simulator* simulator_;
  mpc::BatchScheduler* scheduler_;
  std::string label_;
  std::size_t capacity_;
  bool direct_path_;       // kSimulated: drains deliver via routed_ingest
  unsigned worker_count_;  // 0 on the direct path
  std::size_t max_pending_;

  std::vector<std::vector<EdgeDelta>> gutters_;
  std::size_t buffered_ = 0;
  mpc::RoutedBatch routed_scratch_;  // direct-path staging only
  Stats stats_;

  // Worker hand-off.  mu_ guards the queues, the pool, and stop_; job
  // fields are written unlocked by exactly one side at a time, with the
  // ready flag (set and read under mu_) ordering the hand-offs.
  std::mutex mu_;
  std::condition_variable cv_work_;   // workers: work_queue_ / stop_
  std::condition_variable cv_ready_;  // writer: head ready / job pooled
  std::deque<DrainJob*> work_queue_;            // awaiting a worker
  std::deque<std::unique_ptr<DrainJob>> merge_queue_;  // submission order
  std::vector<std::unique_ptr<DrainJob>> job_pool_;
  std::size_t allocated_jobs_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace streammpc
