/**
 * @file
 * A fixed pool of worker threads with a shared task queue.
 *
 * The profiler's forward pass decomposes into per-function units
 * (postdominators and control dependences are computed per CFG), so the
 * only primitive the pipeline needs is a blocking parallelFor over an
 * index range. The calling thread participates in the loop, so a pool of
 * W workers applies W+1 threads to the work; a pool of 0 workers degrades
 * to a plain serial loop with no synchronization.
 */

#ifndef WEBSLICE_SUPPORT_THREAD_POOL_HH
#define WEBSLICE_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace webslice {

/**
 * Tracks a set of tasks posted to a ThreadPool so a producer can block
 * until all of them have run. The service scheduler posts its queries
 * against one group; the first exception thrown by any task is
 * captured and rethrown from wait().
 */
class TaskGroup
{
  public:
    /** Block until every task posted against this group has finished;
     *  rethrows the first captured task exception. */
    void wait();

    /** Tasks posted but not yet finished (racy; diagnostics only). */
    size_t outstanding() const;

  private:
    friend class ThreadPool;

    void finishOne(std::exception_ptr error);

    mutable std::mutex mutex_;
    std::condition_variable done_;
    size_t outstanding_ = 0;
    std::exception_ptr error_;
};

class ThreadPool
{
  public:
    /** Start `workers` background threads (0 is valid: serial fallback). */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Background threads in the pool (excludes the calling thread). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Run body(i) for every i in [begin, end), distributing indices
     * dynamically over the workers and the calling thread. Blocks until
     * every index has been processed. The first exception thrown by any
     * body is rethrown on the caller; remaining indices are abandoned.
     *
     * Not reentrant: body must not call parallelFor on the same pool.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &body);

    /**
     * Enqueue one task against `group`. Returns immediately; the task
     * runs on a worker thread (or inside a drain() call). With zero
     * workers the task runs inline before post() returns, so callers
     * need no special serial path.
     */
    void post(TaskGroup &group, std::function<void()> task);

    /**
     * Let the calling thread execute queued tasks until `group` has no
     * outstanding work, then return (rethrowing the group's first task
     * exception). Tasks from other groups encountered in the queue are
     * executed too — work is work. The scheduler's graceful drain
     * waits for its queries this way.
     */
    void drain(TaskGroup &group);

    /**
     * Translate a user-facing --jobs value into a thread count: values
     * <= 0 mean "all hardware threads", anything else is taken as-is.
     */
    static unsigned resolveJobs(int jobs);

  private:
    void workerLoop();

    /** Run a group task, routing its exception into the group. */
    static void runGroupTask(TaskGroup &group,
                             const std::function<void()> &task);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> tasks_;
    bool stop_ = false;
};

} // namespace webslice

#endif // WEBSLICE_SUPPORT_THREAD_POOL_HH
