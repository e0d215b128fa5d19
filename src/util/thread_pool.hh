/**
 * @file
 * A fixed-size worker thread pool with futures-based job submission.
 *
 * The design-space sweeps of the paper's evaluation are embarrassingly
 * parallel -- every (configuration, workload) point is an independent
 * simulation -- so the sweep engine (core/sweep.hh) only needs the
 * simplest possible pool: submit() hands a callable to one of N
 * workers and returns a std::future for its result.  Tasks run in
 * submission order (single FIFO queue) but complete in any order;
 * callers that need ordered results keep the futures in submission
 * order and wait on each in turn.
 *
 * Exception safety: a throwing task can never kill a worker or wedge
 * the pool.  Each task runs inside a std::packaged_task, which
 * captures any exception into the task's future (rethrown from
 * future::get() on the caller's thread); the worker loop itself
 * never sees it.  The destructor still drains every queued task --
 * including ones queued behind a thrower -- before joining, so no
 * future is ever abandoned (a dropped packaged_task would surface as
 * std::future_error(broken_promise) at get()).  test_thread_pool.cc
 * pins both properties under TSan.
 */

#ifndef GAAS_UTIL_THREAD_POOL_HH
#define GAAS_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gaas
{

/** The fixed worker pool; see file comment. */
class ThreadPool
{
  public:
    /**
     * Start @p workers threads.
     *
     * @param workers pool size; 0 means hardware_concurrency
     *        (with a floor of 1 if that reports 0)
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins the workers after the queued tasks have drained. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue @p fn for execution on a worker.
     *
     * @return a future for fn's return value; an exception thrown by
     *         fn is captured and rethrown from future::get()
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        // packaged_task is move-only but std::function requires a
        // copyable callable, hence the shared_ptr wrapper.
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> result = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex);
            tasks.emplace_back([task] { (*task)(); });
        }
        available.notify_one();
        return result;
    }

  private:
    void workerLoop();

    std::vector<std::thread> threads;
    std::deque<std::function<void()>> tasks;
    std::mutex mutex;
    std::condition_variable available;
    bool stopping = false;
};

} // namespace gaas

#endif // GAAS_UTIL_THREAD_POOL_HH
