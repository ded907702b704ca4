/**
 * @file
 * Unit tests for the worker pool behind the parallel restart loop.
 * These are the primary targets of the TSan CI job.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

using minnoc::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit(
            [&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(1000, 0);
    // Disjoint slots: no synchronization needed, TSan must stay quiet.
    pool.parallelFor(hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    EXPECT_THROW(
        pool.parallelFor(16,
                         [&completed](std::size_t i) {
                             if (i == 7)
                                 throw std::runtime_error("boom");
                             completed.fetch_add(1);
                         }),
        std::runtime_error);
    // Every non-throwing task still ran (parallelFor waits for all
    // tasks before rethrowing, so captured references stay valid).
    EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.parallelFor(1, [&ran](std::size_t) { ran = true; });
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsWithoutDeadlock)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(3);
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 24; ++i) {
            futures.push_back(pool.submit([&counter] {
                counter.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        for (auto &f : futures)
            f.get();
    } // destructor joins here
    EXPECT_EQ(counter.load(), 24);
}

TEST(ThreadPool, ReusableAcrossManyRounds)
{
    ThreadPool pool(4);
    std::atomic<long> total{0};
    for (int round = 0; round < 20; ++round) {
        pool.parallelFor(8, [&total](std::size_t i) {
            total.fetch_add(static_cast<long>(i),
                            std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 20 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(ThreadPool, NestedParallelForOnOneWorkerCompletes)
{
    // The only worker waits on batches it is running itself: it drains
    // them instead of blocking on tickets queued behind its own task.
    ThreadPool pool(1);
    std::atomic<int> leaves{0};
    pool.parallelFor(3, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) {
            pool.parallelFor(2, [&leaves](std::size_t) {
                leaves.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(leaves.load(), 3 * 4 * 2);
}

TEST(ThreadPool, NestedWaiterRunsOnlyItsOwnBatch)
{
    ThreadPool pool(1);
    std::promise<void> started;
    std::promise<void> queued;
    std::atomic<bool> otherRan{false};
    bool ranBeforeBatchReturned = true;
    auto outer = pool.submit([&, go = queued.get_future().share()] {
        started.set_value();
        go.wait();
        pool.parallelFor(8, [](std::size_t) {});
        // The one worker is still inside this task, so the unrelated
        // task can only have run if the waiter picked it up.
        ranBeforeBatchReturned = otherRan.load();
    });
    started.get_future().wait();
    auto other = pool.submit([&otherRan] { otherRan = true; });
    queued.set_value();
    outer.get();
    EXPECT_FALSE(ranBeforeBatchReturned);
    other.get();
    EXPECT_TRUE(otherRan.load());
}

TEST(ThreadPool, ParallelForRethrowsLowestThrowingIndex)
{
    ThreadPool pool(4);
    std::atomic<bool> highThrown{false};
    try {
        pool.parallelFor(16, [&highThrown](std::size_t i) {
            if (i == 11) {
                highThrown = true;
                throw std::runtime_error("11");
            }
            if (i == 5) {
                // Throw after index 11 has, so completion order alone
                // would pick the wrong one. Index 11 is claimed after 5
                // by another worker, so this wait ends.
                while (!highThrown)
                    std::this_thread::yield();
                throw std::runtime_error("5");
            }
        });
        FAIL() << "parallelFor swallowed both exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()), "5");
    }
}
