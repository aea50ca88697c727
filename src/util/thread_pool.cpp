#include "util/thread_pool.hpp"

#include <algorithm>

#include <sched.h>

namespace gsph::util {

int ThreadPool::resolve_threads(int requested)
{
    if (requested > 0) return requested;
    // A cpuset-limited container reports the host's cores through
    // hardware_concurrency(); the affinity mask holds the ones we may use.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int allowed = CPU_COUNT(&mask);
        if (allowed > 0) return allowed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool& ThreadPool::shared()
{
    static ThreadPool pool(0);
    return pool;
}

ThreadPool::ThreadPool(int n_threads) : size_(std::max(1, resolve_threads(n_threads)))
{
    workers_.reserve(static_cast<std::size_t>(size_ - 1));
    for (int i = 0; i < size_ - 1; ++i) {
        workers_.emplace_back([this]() { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    wake_.notify_one();
}

void ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty()) return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job();
    }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              int max_threads)
{
    if (n == 0) return;
    std::size_t helpers = std::min(workers_.size(), n - 1);
    if (max_threads > 0) {
        helpers = std::min(helpers, static_cast<std::size_t>(max_threads - 1));
    }
    if (helpers == 0) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }

    struct Shared {
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::size_t n = 0;
        const std::function<void(std::size_t)>* body = nullptr;
        std::mutex mutex;
        std::condition_variable all_done;
        std::exception_ptr error; // first failure wins, guarded by mutex
        std::atomic<bool> failed_flag{false}; // claimers bail early once set
    };
    auto shared = std::make_shared<Shared>();
    shared->n = n;
    shared->body = &body;

    auto drain = [shared]() {
        for (;;) {
            const std::size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= shared->n) return;
            if (!shared->failed_flag.load(std::memory_order_relaxed)) {
                try {
                    (*shared->body)(i);
                }
                catch (...) {
                    std::lock_guard<std::mutex> lock(shared->mutex);
                    if (!shared->error) shared->error = std::current_exception();
                    shared->failed_flag.store(true, std::memory_order_relaxed);
                }
            }
            if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 == shared->n) {
                std::lock_guard<std::mutex> lock(shared->mutex);
                shared->all_done.notify_all();
            }
        }
    };

    // One helper task per worker that could usefully claim an index; the
    // calling thread drains alongside them.
    for (std::size_t i = 0; i < helpers; ++i) enqueue(drain);
    drain();

    {
        std::unique_lock<std::mutex> lock(shared->mutex);
        shared->all_done.wait(lock, [shared]() {
            return shared->done.load(std::memory_order_acquire) == shared->n;
        });
    }
    if (shared->error) std::rethrow_exception(shared->error);
}

} // namespace gsph::util
