/**
 * @file
 * Minimal fixed-size worker pool for the methodology's parallel phases.
 *
 * The restart loop and the route-optimizer baseline builds are
 * embarrassingly parallel: independent work items over shared read-only
 * state. This pool is deliberately small — a queue of type-erased tasks
 * drained by std::jthread workers — because the parallelism it hosts is
 * coarse (whole partitioning restarts, chunked pipe scans), not
 * fine-grained.
 */

#ifndef MINNOC_UTIL_THREAD_POOL_HPP
#define MINNOC_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace minnoc {

/** Fixed-size worker pool; tasks run FIFO, exceptions flow via futures. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to at least one). */
    explicit ThreadPool(unsigned threads)
    {
        if (threads == 0)
            threads = 1;
        _workers.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            _workers.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            const std::scoped_lock lock(_mutex);
            _stopping = true;
        }
        _ready.notify_all();
        // _workers are jthreads declared last: they join here, before
        // the queue and mutex they reference are destroyed.
    }

    unsigned size() const { return static_cast<unsigned>(_workers.size()); }

    /** Enqueue @p fn; the future reports completion (or the exception). */
    std::future<void>
    submit(std::function<void()> fn)
    {
        std::packaged_task<void()> task(std::move(fn));
        std::future<void> future = task.get_future();
        {
            const std::scoped_lock lock(_mutex);
            _queue.push_back(std::move(task));
        }
        _ready.notify_one();
        return future;
    }

    /**
     * Run @p fn(i) for every i in [0, @p n) across the workers and wait
     * for all of them. Every task is waited on even when one throws, so
     * no task can outlive the references @p fn captures; the first
     * exception is then rethrown.
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        std::vector<std::future<void>> futures;
        futures.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            futures.push_back(submit([&fn, i] { fn(i); }));
        std::exception_ptr first;
        for (auto &f : futures) {
            try {
                f.get();
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::packaged_task<void()> task;
            {
                std::unique_lock lock(_mutex);
                _ready.wait(lock,
                            [this] { return _stopping || !_queue.empty(); });
                if (_queue.empty())
                    return; // stopping and drained
                task = std::move(_queue.front());
                _queue.pop_front();
            }
            task(); // exceptions land in the task's future
        }
    }

    std::mutex _mutex;
    std::condition_variable _ready;
    std::deque<std::packaged_task<void()>> _queue;
    bool _stopping = false;
    std::vector<std::jthread> _workers; ///< keep last: joins first
};

/** @p pool->parallelFor, or @p fn(i) in order inline when null. */
inline void
parallelFor(ThreadPool *pool, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (pool)
        return pool->parallelFor(n, fn);
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
}

} // namespace minnoc

#endif // MINNOC_UTIL_THREAD_POOL_HPP
