#include "support/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace webslice {

ThreadPool::ThreadPool(unsigned workers)
{
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

namespace {

/** Shared state of one parallelFor invocation. */
struct LoopState
{
    std::atomic<size_t> next;
    size_t end;
    const std::function<void(size_t)> *body;

    std::mutex mutex;
    std::condition_variable done;
    size_t outstanding = 0; ///< Driver tasks not yet finished.
    std::exception_ptr error;

    void
    run()
    {
        while (true) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end)
                break;
            try {
                (*body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                // Abandon the remaining indices.
                next.store(end, std::memory_order_relaxed);
                break;
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &body)
{
    if (begin >= end)
        return;

    const size_t span = end - begin;
    if (workers_.empty() || span == 1) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->next.store(begin, std::memory_order_relaxed);
    state->end = end;
    state->body = &body;

    // One driver per worker (capped by the amount of work); the caller
    // acts as one more driver below.
    const size_t drivers =
        std::min<size_t>(workers_.size(), span > 1 ? span - 1 : 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t d = 0; d < drivers; ++d) {
            ++state->outstanding;
            tasks_.push([state] {
                state->run();
                {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    --state->outstanding;
                }
                state->done.notify_one();
            });
        }
    }
    cv_.notify_all();

    state->run();

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->outstanding == 0; });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return outstanding_ == 0; });
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        std::rethrow_exception(error);
    }
}

size_t
TaskGroup::outstanding() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return outstanding_;
}

void
TaskGroup::finishOne(std::exception_ptr error)
{
    // Notify under the lock: a waiter that sees outstanding_ reach zero
    // may destroy the group as soon as it can take the lock, so the
    // broadcast must be over by then.
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    if (error && !error_)
        error_ = error;
    done_.notify_all();
}

void
ThreadPool::runGroupTask(TaskGroup &group,
                         const std::function<void()> &task)
{
    std::exception_ptr error;
    try {
        task();
    } catch (...) {
        error = std::current_exception();
    }
    group.finishOne(error);
}

void
ThreadPool::post(TaskGroup &group, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(group.mutex_);
        ++group.outstanding_;
    }
    if (workers_.empty()) {
        runGroupTask(group, task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push([&group, task = std::move(task)] {
            runGroupTask(group, task);
        });
    }
    cv_.notify_one();
}

void
ThreadPool::drain(TaskGroup &group)
{
    while (true) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (tasks_.empty())
                break;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
    group.wait();
}

unsigned
ThreadPool::resolveJobs(int jobs)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (jobs > 0) {
        const unsigned wanted = static_cast<unsigned>(jobs);
        return hw ? std::min(wanted, hw) : wanted;
    }
    return hw ? hw : 1;
}

} // namespace webslice
