// WorkerPool: the parked-pool pattern extracted from BatchQueryEngine so
// the label *builders* (ftc_scheme.cpp, dp21/*.cpp, geometry/netfind.cpp)
// can fan work across cores with the same cost model the query path
// already pays: threads are created once (lazily, growing to the largest
// fan-out ever requested) and parked on a condition variable between
// dispatches, so a dispatch costs two mutex hand-offs instead of
// fan-out thread spawns + joins. The build pipeline dispatches a few
// times per hierarchy level, which is exactly the regime where parking
// wins over spawn-per-phase.
//
// Determinism contract (the reason this pool is safe under the
// byte-identical-build guarantee of test_parallel_build): the pool only
// *schedules* work; every caller partitions output locations disjointly
// per worker id (or accumulates in a GF(2)/XOR structure where order is
// irrelevant), so results never depend on interleaving. run() returns
// only after every id of the dispatch finished.
//
// Unlike the original batch-engine pool, tasks MAY throw: the first
// exception (by completion order) is captured and rethrown from run()
// on the dispatching thread after the generation drains, so builder
// invariant checks (FTC_CHECK) keep their fail-fast semantics under
// parallel execution.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace ftc::util {

class WorkerPool {
 public:
  // Thread-count knob semantics shared by every build config: N =
  // exactly N workers (1 = serial). The count must be explicit and at
  // least 1: hardware_concurrency counts hardware threads, not the
  // parallelism a shared host delivers, so it is no default.
  static unsigned resolve_threads(unsigned requested) {
    FTC_REQUIRE(requested >= 1, "build_threads must be at least 1");
    return requested;
  }

  explicit WorkerPool(unsigned default_active = 1)
      : default_active_(std::max(1u, default_active)) {}

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The fan-out run(task) uses; callers partition work into this many
  // stripes/blocks.
  unsigned default_active() const { return default_active_; }

  // Runs task(id) for id in [0, active): ids 1..active-1 on pool
  // threads, id 0 on the calling thread. Returns once every id has
  // finished; rethrows the first captured task exception. Only one
  // run() may be active at a time (single dispatching thread; no
  // nesting from inside a task).
  void run(unsigned active, const std::function<void(unsigned)>& task) {
    if (active <= 1) {
      invoke(task, 0);
      rethrow_pending();
      return;
    }
    while (threads_.size() < active - 1) {
      const unsigned id = static_cast<unsigned>(threads_.size()) + 1;
      threads_.emplace_back([this, id] { worker_main(id); });
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &task;
      active_workers_ = active;
      running_ = active - 1;
      ++generation_;
    }
    cv_work_.notify_all();
    invoke(task, 0);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_done_.wait(lock, [this] { return running_ == 0; });
      job_ = nullptr;
    }
    rethrow_pending();
  }

  void run(const std::function<void(unsigned)>& task) {
    run(default_active_, task);
  }

 private:
  void invoke(const std::function<void(unsigned)>& task, unsigned id) {
    try {
      task(id);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }

  void rethrow_pending() {
    std::exception_ptr err;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      err = std::exchange(first_error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }

  void worker_main(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_work_.wait(lock, [&] {
          return stop_ || (generation_ != seen && job_ != nullptr);
        });
        if (stop_) return;
        seen = generation_;
        if (id >= active_workers_) continue;  // not part of this fan-out
        task = job_;
      }
      invoke(*task, id);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--running_ == 0) cv_done_.notify_one();
      }
    }
  }

  const unsigned default_active_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;  // thread i serves worker id i + 1
  const std::function<void(unsigned)>* job_ = nullptr;
  unsigned active_workers_ = 0;
  unsigned running_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
};

namespace detail {

// The split index std::merge would reach after `s` outputs when merging
// A[0, nA) with B[0, nB): the number of elements taken from A. std::merge
// takes from A on ties, which makes the split unique even with equal keys
// across the runs — so every worker computing boundaries of its output
// chunk lands on the same (i, s - i), and chunk outputs tile the merged
// range exactly.
template <typename T, typename Comp>
std::size_t merge_corank(std::size_t s, const T* a, std::size_t na,
                         const T* b, std::size_t nb, const Comp& comp) {
  std::size_t lo = s > nb ? s - nb : 0;
  std::size_t hi = std::min(s, na);
  // Largest i with: everything taken from A so far precedes (or ties,
  // A winning) the next B element.
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo + 1) / 2;  // i >= lo + 1 >= 1
    const std::size_t j = s - i;
    const bool ok = j >= nb || !comp(b[j], a[i - 1]);
    if (ok) {
      lo = i;
    } else {
      hi = i - 1;
    }
  }
  return lo;
}

}  // namespace detail

// Parallel stable-ish merge sort whose output is BYTE-IDENTICAL to
// std::sort(v, comp) whenever ties under comp only occur between
// bit-identical elements (true for every order the geometry pipeline
// uses: point orders tie-break by edge id, and fully-equal points are
// identical structs). Block-sorts then merges with merge-path (co-rank)
// splitting so every worker participates in every round. Falls back to
// std::sort for small inputs or a serial pool.
template <typename T, typename Comp>
void parallel_sort(std::vector<T>& v, Comp comp, WorkerPool* pool) {
  const std::size_t n = v.size();
  const unsigned workers =
      pool != nullptr
          ? static_cast<unsigned>(std::min<std::size_t>(
                pool->default_active(), std::max<std::size_t>(n / 4096, 1)))
          : 1;
  if (workers <= 1) {
    std::sort(v.begin(), v.end(), comp);
    return;
  }

  // Block boundaries; blocks are the initial sorted runs.
  std::vector<std::size_t> runs(workers + 1);
  for (unsigned b = 0; b <= workers; ++b) runs[b] = n * b / workers;
  pool->run(workers, [&](unsigned b) {
    std::sort(v.begin() + static_cast<std::ptrdiff_t>(runs[b]),
              v.begin() + static_cast<std::ptrdiff_t>(runs[b + 1]), comp);
  });

  std::vector<T> scratch(n);
  T* src = v.data();
  T* dst = scratch.data();
  while (runs.size() > 2) {
    // Pair up runs; the merged output of pair p covers
    // [runs[2p], runs[2p + 2]) of dst. Workers split the total output
    // range evenly and co-rank their chunk boundaries inside each pair.
    const std::size_t pairs = (runs.size() - 1) / 2;
    const bool odd_tail = (runs.size() - 1) % 2 != 0;
    pool->run(workers, [&](unsigned w) {
      const std::size_t g0 = n * w / workers;
      const std::size_t g1 = n * (w + 1) / workers;
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::size_t lo = runs[2 * p];
        const std::size_t mid = runs[2 * p + 1];
        const std::size_t hi = runs[2 * p + 2];
        const std::size_t s0 = std::clamp(g0, lo, hi) - lo;
        const std::size_t s1 = std::clamp(g1, lo, hi) - lo;
        if (s0 >= s1) continue;
        const T* a = src + lo;
        const std::size_t na = mid - lo;
        const T* b = src + mid;
        const std::size_t nb = hi - mid;
        std::size_t i = detail::merge_corank(s0, a, na, b, nb, comp);
        std::size_t j = s0 - i;
        const std::size_t i_end = detail::merge_corank(s1, a, na, b, nb, comp);
        const std::size_t j_end = s1 - i_end;
        T* out = dst + lo + s0;
        while (i < i_end && j < j_end) {
          // std::merge's rule: take from B only when strictly smaller.
          if (comp(b[j], a[i])) {
            *out++ = b[j++];
          } else {
            *out++ = a[i++];
          }
        }
        while (i < i_end) *out++ = a[i++];
        while (j < j_end) *out++ = b[j++];
      }
      if (odd_tail) {
        // Unpaired trailing run: copy through, split across workers.
        const std::size_t lo = runs[runs.size() - 2];
        const std::size_t hi = runs.back();
        const std::size_t c0 = std::clamp(g0, lo, hi);
        const std::size_t c1 = std::clamp(g1, lo, hi);
        if (c0 < c1) std::copy(src + c0, src + c1, dst + c0);
      }
    });
    std::vector<std::size_t> next;
    next.reserve(pairs + 2);
    for (std::size_t p = 0; p <= pairs; ++p) next.push_back(runs[2 * p]);
    if (odd_tail) next.push_back(runs.back());
    if (next.back() != n) next.push_back(n);
    runs = std::move(next);
    std::swap(src, dst);
  }
  if (src != v.data()) {
    std::copy(src, src + n, v.data());
  }
}

}  // namespace ftc::util
