// Minimal persistent worker pool for the bank-parallel and
// (machine, bank) grid-parallel ingest axes.
//
// Sketch banks share no mutable state, and — after deterministic page
// pre-allocation — neither do the (machine, bank) cells of a routed batch,
// so both fan-outs need no synchronization beyond the join barrier: the
// result is bit-identical for any thread count.  The pool is created once
// and reused.
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
// (threads == 1) they degenerate to a plain serial loop in ascending /
// row-major order — the canonical order, kept exact so single-threaded
// runs are a readable debugging baseline.
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
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(i) for every i in [0, count), distributing indices across the
  // pool (the calling thread participates).  Blocks until all complete.
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

  void worker_loop(std::size_t id);
  // Shared core of both entry points: serial when workerless, otherwise
  // range-stealing dispatch over [0, count).
  void dispatch(std::size_t count, const std::function<void(std::size_t)>& fn);
  // Claims and runs indices (home range first, then steals) until none are
  // left to claim or the job generation changes.  Called with `lock` held.
  void drain(std::unique_lock<std::mutex>& lock, std::size_t home);

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
