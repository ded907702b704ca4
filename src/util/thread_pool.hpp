/**
 * @file
 * Minimal fixed-size worker pool for the methodology's parallel phases.
 *
 * The restart loop and the route-optimizer baseline builds are
 * embarrassingly parallel: independent work items over shared read-only
 * state. This pool is deliberately small — a queue of type-erased tasks
 * drained by std::jthread workers — because the parallelism it hosts is
 * coarse (whole partitioning restarts, chunked pipe scans), not
 * fine-grained. A task may wait on its own pool: a waiting worker runs
 * its own batch's items meanwhile.
 */

#ifndef MINNOC_UTIL_THREAD_POOL_HPP
#define MINNOC_UTIL_THREAD_POOL_HPP

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
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
     * Run @p fn(i) for every i in [0, @p n) and wait for all of them.
     * min(n, size()) queued tickets drain the batch, and so does a
     * caller that is a worker of this pool while it waits: it runs only
     * its own batch, whose claimed items are all running, so the wait
     * ends. Every item returns before the lowest throwing index's
     * exception is rethrown, so none outlives what @p fn captures.
     */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        const auto batch =
            std::make_shared<Batch>(fn, std::vector<std::exception_ptr>(n));
        for (std::size_t t = std::min<std::size_t>(n, size()); t > 0; --t)
            submit([batch] { batch->drain(); });
        if (tWorkerOf == this)
            batch->drain();
        for (std::size_t done; (done = batch->done.load()) < n;)
            batch->done.wait(done);
        for (const auto &error : batch->errors)
            if (error)
                std::rethrow_exception(error);
    }

  private:
    /** One parallelFor call; tickets outlive it but touch fn no more. */
    struct Batch
    {
        const std::function<void(std::size_t)> &fn;
        std::vector<std::exception_ptr> errors; ///< one slot per item
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};

        /** Run unclaimed items until none are left. */
        void
        drain()
        {
            for (std::size_t i; (i = next.fetch_add(1)) < errors.size();) {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                if (done.fetch_add(1) + 1 == errors.size())
                    done.notify_all();
            }
        }
    };

    void
    workerLoop()
    {
        tWorkerOf = this;
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

    /** The pool whose worker this thread is, if any. */
    static inline thread_local const ThreadPool *tWorkerOf = nullptr;

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

/**
 * The pool for a run asking for @p threads workers (0 = hardware
 * concurrency) over at most @p work items that can run at once: that
 * many workers, capped at the work, or none when that is one or fewer.
 */
inline std::unique_ptr<ThreadPool>
makePool(unsigned threads, std::size_t work = SIZE_MAX)
{
    const std::size_t n = std::min<std::size_t>(
        threads ? threads : std::thread::hardware_concurrency(), work);
    if (n <= 1)
        return nullptr;
    return std::make_unique<ThreadPool>(static_cast<unsigned>(n));
}

} // namespace minnoc

#endif // MINNOC_UTIL_THREAD_POOL_HPP
