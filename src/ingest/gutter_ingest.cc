#include "ingest/gutter_ingest.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "mpc/batch_scheduler.h"
#include "mpc/cluster.h"
#include "mpc/simulator.h"
#include "sketch/graphsketch.h"

namespace streammpc {

namespace {

unsigned resolve_drain_threads(unsigned configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(hw, 4u);
}

// The 1-machine staging lower_flat uses, but into a caller-owned batch so
// a drain job's CSR outlives the enqueue call and can be sketched and
// merged while later jobs stage into their own buffers.
void stage_flat(std::span<const EdgeDelta> deltas, mpc::RoutedBatch& out) {
  SMPC_CHECK_MSG(deltas.size() <= UINT32_MAX,
                 "gutter batch too large for 32-bit CSR offsets");
  constexpr std::uint8_t kBoth =
      mpc::RoutedBatch::kEndpointU | mpc::RoutedBatch::kEndpointV;
  out.items.clear();
  out.items.reserve(deltas.size());
  for (const EdgeDelta& d : deltas)
    out.items.push_back(mpc::RoutedBatch::Item{d, kBoth});
  out.offsets.assign({0u, static_cast<std::uint32_t>(out.items.size())});
  out.load_words.assign(
      1, mpc::RoutedBatch::kWordsPerDelta * out.items.size());
}

}  // namespace

GutterIngest::GutterIngest(VertexId universe, VertexSketches& sketches,
                           const GutterIngestConfig& config,
                           mpc::Cluster* cluster, mpc::ExecMode mode,
                           mpc::Simulator* simulator,
                           mpc::BatchScheduler* scheduler)
    : universe_(universe),
      sketches_(sketches),
      cluster_(cluster),
      simulator_(simulator),
      scheduler_(scheduler),
      label_(config.label),
      capacity_(std::max<std::size_t>(config.gutter_capacity, 1)),
      direct_path_(cluster != nullptr && mode == mpc::ExecMode::kSimulated),
      worker_count_(direct_path_ ? 0
                                 : resolve_drain_threads(config.drain_threads)),
      max_pending_(config.max_pending != 0 ? config.max_pending
                                           : worker_count_ + 2) {
  SMPC_CHECK(universe >= 1);
  SMPC_CHECK_MSG(!direct_path_ || simulator_ != nullptr,
                 "simulated gutter drains require a Simulator");
  std::size_t gutters = config.gutters;
  if (gutters == 0)
    gutters = cluster_ != nullptr
                  ? static_cast<std::size_t>(cluster_->machines())
                  : 1;
  gutters_.resize(std::max<std::size_t>(gutters, 1));
  workers_.reserve(worker_count_);
  for (unsigned t = 0; t < worker_count_; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

GutterIngest::~GutterIngest() {
  // Destructor flush: buffered deltas must reach the resident shard, but a
  // destructor cannot rethrow — callers who need to observe delivery
  // errors call flush() explicitly first (the front ends flush on every
  // query, so this is a backstop, not the primary path).
  try {
    flush();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "streammpc: gutter destructor flush failed: %s\n",
                 e.what());
  } catch (...) {
    std::fprintf(stderr, "streammpc: gutter destructor flush failed\n");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void GutterIngest::submit(const EdgeDelta& delta) {
  // Validate at the door, like update_edges — a bad edge must throw at
  // submit() with nothing buffered, not surface from a later flush.
  SMPC_CHECK(delta.e.u < delta.e.v && delta.e.v < universe_);
  const std::size_t g = gutter_of(delta.e);
  gutters_[g].push_back(delta);
  ++stats_.submitted;
  ++buffered_;
  stats_.peak_buffered = std::max<std::uint64_t>(stats_.peak_buffered,
                                                 buffered_);
  if (gutters_[g].size() >= capacity_) {
    ++stats_.capacity_drains;
    drain(g);
  }
}

void GutterIngest::submit(std::span<const EdgeDelta> deltas) {
  // Element-wise so drain boundaries are identical to single-delta
  // submission of the same sequence.
  for (const EdgeDelta& d : deltas) submit(d);
}

void GutterIngest::drain(std::size_t g) {
  std::vector<EdgeDelta>& gutter = gutters_[g];
  if (gutter.empty()) return;
  buffered_ -= gutter.size();
  if (direct_path_) {
    deliver_direct(gutter);
  } else {
    enqueue(gutter);
  }
}

void GutterIngest::deliver_direct(std::vector<EdgeDelta>& gutter) {
  // A gutter flush is ONE scheduled batch: the scheduler's probe/bisect/
  // retry/grow loop and the fault injector see exactly what a synchronous
  // front end would have delivered.
  try {
    routed_ingest(cluster_, universe_, gutter, label_, sketches_,
                  routed_scratch_, mpc::ExecMode::kSimulated, simulator_,
                  scheduler_);
  } catch (...) {
    gutter.clear();
    throw;
  }
  ++stats_.direct_batches;
  gutter.clear();
}

void GutterIngest::enqueue(std::vector<EdgeDelta>& gutter) {
  std::unique_lock<std::mutex> lock(mu_);
  std::unique_ptr<DrainJob> job = acquire_job(lock);
  lock.unlock();
  job->ready = false;
  job->error = nullptr;
  job->deltas.clear();
  std::swap(job->deltas, gutter);  // both buffers keep their capacity
  gutter.clear();
  // Stage on the writer thread (route_batch is a read-only pass over the
  // cluster; off the direct path a cluster means kRouted); the worker only
  // ever sees an immutable CSR.
  if (cluster_ != nullptr) {
    cluster_->route_batch(job->deltas, universe_, job->routed);
  } else {
    stage_flat(job->deltas, job->routed);
  }
  if (!job->sketch)
    job->sketch = std::make_unique<DeltaSketch>(sketches_);
  lock.lock();
  DrainJob* raw = job.get();
  merge_queue_.push_back(std::move(job));
  work_queue_.push_back(raw);
  cv_work_.notify_one();
  // Opportunistic: fold in whatever already completed, keeping the merge
  // latency off the flush() critical path.
  merge_ready(lock);
}

void GutterIngest::merge_ready(std::unique_lock<std::mutex>& lock) {
  while (!merge_queue_.empty() && merge_queue_.front()->ready) {
    std::unique_ptr<DrainJob> job = std::move(merge_queue_.front());
    merge_queue_.pop_front();
    lock.unlock();
    std::exception_ptr error = job->error;
    if (error == nullptr) {
      try {
        // Deliveries happen in submission order on this (writer) thread
        // only: the ledger charge and the ExecPlan::run epoch bump form
        // the same deterministic sequence for every worker count.
        if (cluster_ != nullptr)
          cluster_->charge_routed(job->routed, label_);
        stats_.applied += sketches_.merge_delta(job->routed, *job->sketch);
        ++stats_.delta_batches;
      } catch (...) {
        error = std::current_exception();
      }
    }
    lock.lock();
    job_pool_.push_back(std::move(job));
    cv_ready_.notify_all();
    if (error != nullptr) std::rethrow_exception(error);
  }
}

std::unique_ptr<GutterIngest::DrainJob> GutterIngest::acquire_job(
    std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (!job_pool_.empty()) {
      std::unique_ptr<DrainJob> job = std::move(job_pool_.back());
      job_pool_.pop_back();
      return job;
    }
    if (allocated_jobs_ < max_pending_) {
      ++allocated_jobs_;
      return std::make_unique<DrainJob>();
    }
    // Pipeline full: every job is in flight, so the head must become
    // ready eventually — wait for it and merge (which pools its job).
    cv_ready_.wait(lock, [&] {
      return !merge_queue_.empty() && merge_queue_.front()->ready;
    });
    merge_ready(lock);
  }
}

void GutterIngest::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || !work_queue_.empty(); });
    if (work_queue_.empty()) return;  // stop_ set and nothing left
    DrainJob* job = work_queue_.front();
    work_queue_.pop_front();
    lock.unlock();
    try {
      job->sketch->reset();
      job->sketch->accumulate(job->routed);
    } catch (...) {
      job->error = std::current_exception();
    }
    lock.lock();
    job->ready = true;
    cv_ready_.notify_all();
  }
}

void GutterIngest::flush() {
  ++stats_.flushes;
  for (std::size_t g = 0; g < gutters_.size(); ++g) {
    if (gutters_[g].empty()) continue;
    ++stats_.flush_drains;
    drain(g);
  }
  if (direct_path_) return;
  std::unique_lock<std::mutex> lock(mu_);
  while (!merge_queue_.empty()) {
    cv_ready_.wait(lock, [&] {
      return !merge_queue_.empty() && merge_queue_.front()->ready;
    });
    merge_ready(lock);
  }
}

}  // namespace streammpc
