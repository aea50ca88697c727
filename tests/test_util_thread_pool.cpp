#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gsph::util {
namespace {

TEST(ThreadPool, ResolveThreadsMapsNonPositiveToHardware)
{
    EXPECT_EQ(ThreadPool::resolve_threads(4), 4);
    EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
    EXPECT_GE(ThreadPool::resolve_threads(0), 1);
    EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
}

TEST(ThreadPool, ResolveThreadsCountsTheAffinityMask)
{
    // 0 means the CPUs this process may run on, not the host's cores.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
    EXPECT_EQ(ThreadPool::resolve_threads(0), CPU_COUNT(&mask));
    EXPECT_EQ(ThreadPool::resolve_threads(-1), CPU_COUNT(&mask));
}

TEST(ThreadPool, SharedPoolIsBuiltOnceWithEveryAvailableCpu)
{
    ThreadPool& pool = ThreadPool::shared();
    EXPECT_EQ(&pool, &ThreadPool::shared());
    EXPECT_EQ(pool.size(), ThreadPool::resolve_threads(0));
}

TEST(ThreadPool, SizeCountsTheCallingThread)
{
    ThreadPool serial(1);
    EXPECT_EQ(serial.size(), 1);
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce)
{
    for (int n_threads : {1, 2, 8}) {
        ThreadPool pool(n_threads);
        constexpr std::size_t kN = 1000;
        std::vector<std::atomic<int>> visits(kN);
        pool.parallel_for(kN, [&](std::size_t i) {
            visits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(visits[i].load(), 1) << "index " << i << " with "
                                           << n_threads << " threads";
        }
    }
}

TEST(ThreadPool, ParallelForZeroAndOneItems)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, IndexedWritesThenOrderedReduceIsDeterministic)
{
    // The pattern every caller uses: concurrent writes to per-index slots,
    // serial reduction in index order afterwards.
    constexpr std::size_t kN = 257;
    auto reduce = [](int n_threads) {
        ThreadPool pool(n_threads);
        std::vector<double> slots(kN);
        pool.parallel_for(kN, [&](std::size_t i) {
            slots[i] = 1.0 / (static_cast<double>(i) + 1.0);
        });
        double sum = 0.0;
        for (double v : slots) sum += v;
        return sum;
    };
    const double serial = reduce(1);
    EXPECT_EQ(serial, reduce(2));
    EXPECT_EQ(serial, reduce(8));
}

TEST(ThreadPool, ParallelForRethrowsTheBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 17) {
                                           throw std::runtime_error("boom at 17");
                                       }
                                   }),
                 std::runtime_error);
    // The pool survives a failed parallel_for and runs the next one.
    std::atomic<int> after{0};
    pool.parallel_for(10, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ExceptionSkipsUnclaimedIndices)
{
    // With one worker + the caller on many items, an early failure must
    // leave later indices unvisited rather than running the full range.
    ThreadPool pool(2);
    std::atomic<int> executed{0};
    try {
        pool.parallel_for(10000, [&](std::size_t) {
            executed.fetch_add(1, std::memory_order_relaxed);
            throw std::runtime_error("first body fails");
        });
        FAIL() << "expected std::runtime_error";
    }
    catch (const std::runtime_error&) {
    }
    EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPool, ParallelForUsesMultipleThreadsWhenAvailable)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    // Enough items that helpers must claim some; record who ran what.
    pool.parallel_for(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    // The calling thread always participates; on a 1-core host the helpers
    // still exist as threads, so more than one id shows up.
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, ConcurrencyCapLimitsTheThreadsOfOneCall)
{
    ThreadPool pool(4);
    for (const int cap : {1, 2, 3}) {
        std::mutex mutex;
        std::set<std::thread::id> ids;
        std::vector<int> hits(48, 0);
        pool.parallel_for(
            hits.size(),
            [&](std::size_t i) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                ++hits[i];
                std::lock_guard<std::mutex> lock(mutex);
                ids.insert(std::this_thread::get_id());
            },
            cap);
        EXPECT_LE(ids.size(), static_cast<std::size_t>(cap)) << "cap " << cap;
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 48) << "cap " << cap;
        if (cap == 1) {
            ASSERT_EQ(ids.size(), 1u);
            EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
        }
    }
}

TEST(ThreadPool, NestedParallelForOnTheSharedPoolFinishes)
{
    // A body that itself calls parallel_for on the same pool: every worker
    // may be busy in an outer body while its inner helpers wait in the
    // queue, so the inner call must be able to finish on its own thread.
    ThreadPool& pool = ThreadPool::shared();
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 64;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::vector<std::size_t>> slots(kOuter,
                                                    std::vector<std::size_t>(kInner, 0));
        pool.parallel_for(kOuter, [&](std::size_t o) {
            pool.parallel_for(kInner, [&](std::size_t i) { slots[o][i] = o * kInner + i; });
        });
        for (std::size_t o = 0; o < kOuter; ++o) {
            for (std::size_t i = 0; i < kInner; ++i) {
                ASSERT_EQ(slots[o][i], o * kInner + i) << "round " << round;
            }
        }
    }
}

} // namespace
} // namespace gsph::util
