#include "common/thread_pool.h"

namespace streammpc {

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = threads == 0 ? 1 : threads;
  // The calling thread works too, so spawn one fewer worker.
  workers_.reserve(n - 1);
  for (unsigned i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t id) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    drain(lock, id);
  }
}

void ThreadPool::drain(std::unique_lock<std::mutex>& lock, std::size_t home) {
  const std::function<void(std::size_t)>* job = job_;
  const std::uint64_t gen = generation_;
  for (;;) {
    // The job may have completed (and a new one may even have started)
    // while this participant was running an index — never touch ranges_
    // that belong to another generation.
    if (generation_ != gen || job_ == nullptr) return;
    std::size_t index;
    Range& mine = ranges_[home];
    if (mine.begin < mine.end) {
      index = mine.begin++;
    } else {
      // Steal the back half of the largest remaining range, so the victim
      // keeps its cache-warm front and both halves stay contiguous.
      std::size_t best = ranges_.size();
      std::size_t best_left = 0;
      for (std::size_t r = 0; r < ranges_.size(); ++r) {
        const std::size_t left = ranges_[r].end - ranges_[r].begin;
        if (left > best_left) {
          best_left = left;
          best = r;
        }
      }
      if (best_left == 0) return;  // nothing left to claim
      Range& victim = ranges_[best];
      const std::size_t take = (best_left + 1) / 2;
      mine.begin = victim.end - take;
      mine.end = victim.end;
      victim.end = mine.begin;
      index = mine.begin++;
    }
    lock.unlock();
    try {
      (*job)(index);
    } catch (...) {
      lock.lock();
      if (!first_error_) first_error_ = std::current_exception();
      lock.unlock();
    }
    lock.lock();
    if (--remaining_ == 0) done_.notify_all();
  }
}

void ThreadPool::dispatch(std::size_t count,
                          const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    // Canonical serial order: ascending flat index (row-major for grids).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  remaining_ = count;
  first_error_ = nullptr;
  // Balanced contiguous slices, one per participant (empty when
  // count < participants — stealing redistributes on demand).
  const std::size_t slots = workers_.size() + 1;
  ranges_.resize(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    ranges_[k] = Range{count * k / slots, count * (k + 1) / slots};
  }
  ++generation_;
  wake_.notify_all();
  drain(lock, slots - 1);  // the calling thread owns the last slice
  done_.wait(lock, [&] { return remaining_ == 0; });
  job_ = nullptr;
  const std::exception_ptr err = first_error_;
  first_error_ = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  dispatch(count, fn);
}

void ThreadPool::parallel_for_grid(
    std::size_t rows, std::size_t cols,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (rows == 0 || cols == 0) return;
  const std::function<void(std::size_t)> flat = [&](std::size_t i) {
    fn(i / cols, i % cols);
  };
  dispatch(rows * cols, flat);
}

}  // namespace streammpc
