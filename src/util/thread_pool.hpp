#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size worker pool with an exception-propagating parallel_for.
///
/// Threads pay only where a work item is large: the per-particle SPH
/// passes (sph/parallel.hpp) and the fleet's per-round node steps.  Both
/// are embarrassingly parallel: every work item owns its state and the
/// caller merges results in a fixed order.  This pool provides exactly
/// that shape:
///
///   - a fixed number of worker threads created once (no per-call spawn);
///   - parallel_for(n, body): the calling thread participates, indices are
///     claimed from an atomic cursor, and the call returns only after every
///     index completed.  The first exception thrown by any body is captured
///     and rethrown on the calling thread (remaining indices are skipped).
///
/// ThreadPool::shared() is the one process-wide pool, built on first use
/// with one thread per CPU the process may run on.  Callers that want
/// fewer threads pass a per-call cap to parallel_for instead of building a
/// pool of their own.  parallel_for nests: a body may call parallel_for on
/// the same pool, because the calling thread drains every index it can
/// claim and waits only for indices another thread is already running.
///
/// A cap of 1 (or a pool of size 1) runs the plain inline loop.
/// Determinism is the caller's job (and easy): run items concurrently,
/// reduce in index order.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsph::util {

class ThreadPool {
public:
    /// `n_threads` counts the calling thread: a pool of size N runs
    /// parallel_for bodies on N-1 workers plus the caller.  Values <= 0
    /// resolve to the hardware concurrency.
    explicit ThreadPool(int n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total concurrency (workers + the calling thread); always >= 1.
    int size() const { return size_; }

    /// Map a thread-count request to an effective pool size: <= 0 means
    /// "one per CPU in the process affinity mask" (the hardware concurrency
    /// when the mask cannot be read), anything else is taken as-is.
    static int resolve_threads(int requested);

    /// The process-wide pool of resolve_threads(0) threads, built on first
    /// use and joined at exit.
    static ThreadPool& shared();

    /// Run body(0) .. body(n-1), concurrently when the pool has workers.
    /// Blocks until every index finished.  The first exception from any
    /// body is rethrown here; once one is captured, unclaimed indices are
    /// skipped.  Bodies must synchronize access to shared state themselves
    /// (the usual pattern: write to a per-index slot, reduce after).
    /// `max_threads` > 0 caps the concurrency of this call, the calling
    /// thread included; 1 runs the plain inline loop.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                      int max_threads = 0);

private:
    void enqueue(std::function<void()> job);
    void worker_loop();

    int size_ = 1;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

} // namespace gsph::util
