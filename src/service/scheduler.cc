#include "service/scheduler.hh"

#include <algorithm>
#include <thread>

#include "analysis/categorize.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

namespace webslice {
namespace service {

namespace {

double
millisSince(std::chrono::steady_clock::time_point from,
            std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

} // namespace

const QueryResult &
Job::wait() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    return result_;
}

bool
Job::done() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

Scheduler::Scheduler(SessionCache &cache, const Options &options)
    : cache_(cache),
      pool_(static_cast<unsigned>(std::max(1, options.workers))),
      maxQueue_(std::max<size_t>(1, options.maxQueue)),
      usePlans_(options.usePlans)
{
}

Scheduler::~Scheduler()
{
    drain();
}

Scheduler::Submitted
Scheduler::submit(const std::string &prefix, const SliceQuery &query)
{
    auto &registry = MetricRegistry::global();
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.submitted;
        registry.counter("service.requests_total").add();

        // Identical in-flight work is joined, not repeated; the key
        // folds the prefix so distinct recordings never collide.
        const std::string key = query.dedupKey(
            fnv1a64(prefix.data(), prefix.size()));
        auto inflight = inflight_.find(key);
        if (inflight != inflight_.end()) {
            if (auto twin = inflight->second.lock()) {
                ++counters_.deduped;
                registry.counter("service.requests_deduped").add();
                twin->waiters_.fetch_add(1, std::memory_order_relaxed);
                return {twin, false, true};
            }
            inflight_.erase(inflight);
        }

        if (inQueue_ >= maxQueue_) {
            // Backpressure: reply immediately instead of queueing
            // without bound — the client can retry or shed load.
            ++counters_.rejected;
            registry.counter("service.requests_rejected").add();
            auto rejected = std::make_shared<Job>();
            rejected->done_ = true;
            rejected->result_.status = QueryResult::Status::Rejected;
            rejected->result_.error = format(
                "queue full (%zu requests in flight)", inQueue_);
            return {rejected, true, false};
        }

        job = std::make_shared<Job>();
        job->prefix_ = prefix;
        job->query_ = query;
        job->dedupKey_ = key;
        job->submitted_ = std::chrono::steady_clock::now();
        if (query.timeoutMs != 0) {
            job->deadline_ = job->submitted_ +
                             std::chrono::milliseconds(query.timeoutMs);
        }
        ++inQueue_;
        counters_.queueDepthPeak =
            std::max<uint64_t>(counters_.queueDepthPeak, inQueue_);
        registry.gauge("service.queue_depth_peak").setMax(inQueue_);
        inflight_[key] = job;
    }
    pool_.post(group_, [this, job] { runJob(job); });
    return {job, false, false};
}

void
Scheduler::abandon(const std::shared_ptr<Job> &job)
{
    if (!job || job->done())
        return;
    job->waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void
Scheduler::warmSession(const std::string &prefix)
{
    MetricRegistry::global().counter("service.warm_requests").add();
    pool_.post(group_, [this, prefix] {
        try {
            ScopedFatalCapture capture;
            bool hit = false;
            cache_.acquire(prefix, &hit);
            if (!hit) {
                MetricRegistry::global()
                    .counter("service.sessions_replicated")
                    .add();
            }
        } catch (const std::exception &) {
            // Advisory build only — nobody is waiting on this result.
        }
    });
}

void
Scheduler::runJob(const std::shared_ptr<Job> &job)
{
    const auto start = std::chrono::steady_clock::now();
    QueryResult result;
    result.queueMs = millisSince(job->submitted_, start);

    // A job whose every waiter hung up while it was queued is cancelled
    // here, not computed-and-discarded: the backward pass it would run
    // can be hundreds of milliseconds of pure waste. (Dedup twins keep
    // the job alive — waiters_ counts every attached connection.)
    if (job->waiters_.load(std::memory_order_relaxed) <= 0) {
        result.status = QueryResult::Status::Error;
        result.error = "abandoned: every waiting client disconnected "
                       "before the query ran";
        finishJob(job, std::move(result), /*abandoned=*/true);
        return;
    }

    if (job->deadline_ != std::chrono::steady_clock::time_point{} &&
        start > job->deadline_) {
        result.status = QueryResult::Status::Timeout;
        result.error = format("deadline of %llu ms passed after %.1f ms "
                              "in queue",
                              static_cast<unsigned long long>(
                                  job->query_.timeoutMs),
                              result.queueMs);
        finishJob(job, std::move(result));
        return;
    }

    if (job->query_.debugSleepMs != 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(job->query_.debugSleepMs));
    }

    try {
        // Any fatal() raised by the loaders below must fail this one
        // request with its diagnostic, never the process.
        ScopedFatalCapture capture;
        bool cache_hit = false;
        const auto session = cache_.acquire(job->prefix_, &cache_hit);
        result.cacheHit = cache_hit;

        // A repeat is answered from the session-level memo: no plan,
        // no record scan, no digest, no categorize pass.
        const SliceQuery &query = job->query_;
        const size_t window_end =
            session->windowEnd(query.noWindow, query.endIndex);
        auto answer = cache_.findAnswer(*session, window_end, query.mode);
        result.memoHit = answer != nullptr;
        if (!answer) {
            answer = computeAnswer(session, query, window_end, result);
            cache_.storeAnswer(*session, window_end, query.mode, answer);
        }

        result.mode = query.mode == slicer::CriteriaMode::PixelBuffer
                          ? "pixel-buffer"
                          : "syscalls";
        result.records = session->trace->records().size();
        result.windowEnd = answer->windowEnd;
        result.instructionsAnalyzed = answer->instructionsAnalyzed;
        result.sliceInstructions = answer->sliceInstructions;
        result.criteriaBytesSeeded = answer->criteriaBytesSeeded;
        result.slicePercent = answer->slicePercent;
        result.inSliceFnv1a = answer->inSliceFnv1a;
        result.categoryCoveragePercent = answer->categoryCoveragePercent;
        result.categoryShares = answer->categoryShares;
        result.status = QueryResult::Status::Ok;
    } catch (const std::exception &e) {
        result.status = QueryResult::Status::Error;
        result.error = e.what();
    }

    result.runMs = millisSince(start, std::chrono::steady_clock::now());
    finishJob(job, std::move(result));
}

std::shared_ptr<const SliceAnswer>
Scheduler::computeAnswer(const std::shared_ptr<const Session> &session,
                         const SliceQuery &query, size_t window_end,
                         QueryResult &result)
{
    slicer::SlicerOptions options;
    options.mode = query.mode;
    options.backwardJobs = query.backwardJobs;
    options.endIndex = window_end;

    // Route through the cached criterion-independent transcode: the
    // first query over this (recording, window) builds the plan
    // (singleflight), later ones skip the transcode pass. The
    // shared_ptr keeps the plan (and the session it points into)
    // alive for the duration of the slice.
    std::shared_ptr<const slicer::EpochPlan> plan;
    if (usePlans_) {
        plan = cache_.acquirePlan(session, window_end, &result.planHit);
        options.reusePlan = plan.get();
    }

    const auto records = session->trace->records();
    const auto slice_start = std::chrono::steady_clock::now();
    const auto slice = slicer::computeSlice(
        records, session->cfgs, session->deps, session->sidecars.criteria,
        options);
    result.sliceMs =
        millisSince(slice_start, std::chrono::steady_clock::now());

    auto answer = std::make_shared<SliceAnswer>();
    answer->windowEnd = slice.analyzedWindowEnd;
    answer->instructionsAnalyzed = slice.instructionsAnalyzed;
    answer->sliceInstructions = slice.sliceInstructions;
    answer->criteriaBytesSeeded = slice.criteriaBytesSeeded;
    answer->slicePercent = slice.slicePercent();
    answer->inSliceFnv1a =
        fnv1a64(slice.inSlice.data(), slice.inSlice.size());

    const auto dist = analysis::categorizeUnnecessary(
        records, slice.inSlice, session->cfgs, session->sidecars.symtab,
        analysis::Categorizer::chromiumDefault(), slice.analyzedWindowEnd);
    answer->categoryCoveragePercent = dist.coveragePercent();
    for (const auto &category : analysis::Categorizer::reportOrder()) {
        const double share = dist.sharePercent(category);
        if (share > 0.0)
            answer->categoryShares.emplace_back(category, share);
    }
    return answer;
}

void
Scheduler::finishJob(const std::shared_ptr<Job> &job, QueryResult result,
                     bool abandoned)
{
    auto &registry = MetricRegistry::global();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --inQueue_;
        ++counters_.completed;
        if (abandoned) {
            ++counters_.abandoned;
            registry.counter("service.requests_abandoned").add();
        } else {
            switch (result.status) {
              case QueryResult::Status::Ok:
                registry.counter("service.requests_ok").add();
                break;
              case QueryResult::Status::Timeout:
                ++counters_.timedOut;
                registry.counter("service.requests_timed_out").add();
                break;
              default:
                ++counters_.failed;
                registry.counter("service.requests_failed").add();
                break;
            }
        }
        auto it = inflight_.find(job->dedupKey_);
        if (it != inflight_.end() && it->second.lock() == job)
            inflight_.erase(it);
    }
    {
        std::lock_guard<std::mutex> lock(job->mutex_);
        job->result_ = std::move(result);
        job->done_ = true;
    }
    job->cv_.notify_all();
}

void
Scheduler::drain()
{
    pool_.drain(group_);
}

Scheduler::Stats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace service
} // namespace webslice
