// Minimal persistent worker pool for the bank-parallel and
// (machine, bank) grid-parallel ingest axes.
//
// Sketch banks share no mutable state, and — after deterministic page
// pre-allocation — neither do the (machine, bank) cells of a routed batch,
// so both fan-outs need no synchronization beyond the join barrier: the
// result is bit-identical for any thread count.
//
// One pool per width serves the whole process: shared(threads) builds it
// on first use and never destroys it, so nested structures (ApproxMsf's
// levels, the bipartite double cover) and every front end of one width
// share its workers instead of each spawning their own.  A job that finds
// the pool busy with another caller's job runs serially on its own thread,
// in canonical order — bytes never depend on the schedule, so two front
// ends on two threads may share one pool.
//
// Scheduling: every job's index space is split into one contiguous range
// per participant (the calling thread participates); a participant drains
// its own range front-to-back and, when empty, steals the back half of the
// largest remaining range.  This keeps neighbouring indices (same machine,
// adjacent banks — which share the routed sub-batch's cache lines) on one
// thread while still balancing skewed grids, where one machine's sub-batch
// dwarfs the rest (star streams).
//
// Both entry points block until every index has been processed and rethrow
// the first task exception on the calling thread.  With zero workers
// (threads == 1), or while another caller holds the pool, they degenerate
// to a plain serial loop in ascending / row-major order — the canonical
// order, kept exact so single-threaded runs are a readable debugging
// baseline.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace streammpc {

class ThreadPool {
 public:
  // The process's pool of width `threads` (0 counts as 1): built on first
  // use, never destroyed.
  static ThreadPool& shared(unsigned threads);

  // Spawns `threads` - 1 workers (the calling thread is the last one).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(i) for every i in [0, count), distributing indices across the
  // pool (the calling thread participates).  Blocks until all complete.
  // `fn` must not dispatch on this pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // 2-D variant: runs fn(row, col) for every cell of the rows x cols grid,
  // flattened row-major and distributed with the same range-stealing
  // scheme.  With one thread, cells execute strictly in row-major order
  // (row 0 col 0, row 0 col 1, ...) — for the Simulator's grid this is the
  // canonical machine-major order of the serial executor.
  void parallel_for_grid(std::size_t rows, std::size_t cols,
                         const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  // One participant's contiguous slice of the flattened index space.
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_main(std::size_t id);
  // Shared core of both entry points: serial when workerless or busy with
  // another caller's job, otherwise range-stealing dispatch over [0, count).
  void dispatch(std::size_t count, const std::function<void(std::size_t)>& fn);
  // Claims and runs indices (home range first, then steals) until none are
  // left to claim or the job generation changes.  Called with `lock` held.
  void drain(std::unique_lock<std::mutex>& lock, std::size_t home);

  std::mutex caller_mu_;  // held by the caller whose job owns the workers
  std::mutex mu_;
  std::condition_variable wake_;   // workers wait for a job
  std::condition_variable done_;   // dispatch waits for completion
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::vector<Range> ranges_;      // [participant] remaining slice
  std::size_t remaining_ = 0;      // indices claimed but not yet finished + unclaimed
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace streammpc
