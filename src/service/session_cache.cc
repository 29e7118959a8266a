#include "service/session_cache.hh"

#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/columnar.hh"

namespace webslice {
namespace service {

namespace {

Counter &
cacheCounter(const char *name)
{
    return MetricRegistry::global().counter(name);
}

/**
 * Rough but monotonic footprint of a prepared session: the artifact
 * bytes (the mmap'd trace dominates) plus per-node/per-edge estimates
 * for the graph structures. The budget is a sizing knob, not an
 * allocator ledger, so "plausibly proportional" is the contract.
 */
uint64_t
estimateSessionBytes(const Session &session)
{
    // Artifacts are charged at their on-disk size — for a columnar (v2)
    // trace that is the compressed footprint, which is also what the
    // digest pass read. The decoded view is charged separately below
    // when the trace could not be mmap'd (v2 always decodes into an
    // owned buffer).
    uint64_t bytes = 0;
    for (const auto &artifact : session.digests)
        if (artifact.digest.ok)
            bytes += artifact.digest.bytes;
    if (session.trace && !session.trace->mapped())
        bytes += session.trace->records().size() * sizeof(trace::Record);

    uint64_t nodes = 0;
    uint64_t edges = 0;
    for (const auto &entry : session.cfgs.byFunc) {
        nodes += entry.second.nodeCount();
        for (const auto &succ : entry.second.succs)
            edges += succ.size();
    }
    // Node: pc + hash slot + two adjacency vector headers; edge: two
    // int32 endpoints kept in both directions.
    bytes += nodes * 96 + edges * 16;
    bytes += session.cfgs.funcOf.size() * sizeof(trace::FuncId);
    bytes += session.deps.pairCount() * 16 + session.deps.nodeCount() * 64;
    return bytes;
}

} // namespace

size_t
Session::windowEnd(bool no_window, uint64_t end_override) const
{
    size_t end = trace->records().size();
    const trace::RunMeta &meta = sidecars.meta;
    if (!no_window && meta.loadOnly && meta.loadCompleteIndex != SIZE_MAX)
        end = std::min(end, meta.loadCompleteIndex);
    if (end_override != UINT64_MAX)
        end = std::min<size_t>(end, end_override);
    return end;
}

SessionCache::SessionCache(uint64_t byte_budget, int forward_jobs)
    : budget_(byte_budget), forwardJobs_(forward_jobs)
{
    counters_.byteBudget = byte_budget;
    // The columnar trace decode cache shares the --cache-bytes budget
    // rather than adding its own: a quarter goes to decoded v2 blocks,
    // the rest stays with sessions.
    trace::TraceDecodeCache::global().setBudget(byte_budget / 4);
}

std::shared_ptr<Session>
SessionCache::buildSession(const std::string &prefix,
                           std::vector<trace::ArtifactDigest> digests,
                           uint64_t identity) const
{
    // Loader failures must reach the caller as exceptions with the
    // loaders' own file+offset diagnostics, not exit the daemon.
    ScopedFatalCapture capture;
    auto session = std::make_shared<Session>();
    session->prefix = prefix;
    session->identity = identity;
    session->digests = std::move(digests);
    session->sidecars = trace::loadArtifactSidecars(prefix);
    session->trace =
        std::make_unique<trace::MappedTrace>(prefix + ".trc");
    session->cfgs = graph::buildCfgs(session->trace->records(),
                                     session->sidecars.symtab,
                                     forwardJobs_);
    session->deps = graph::buildControlDeps(session->cfgs, forwardJobs_);
    // Seal now: concurrent queries will probe depsOf() from worker
    // threads, and the lazy first-use seal is not race-safe.
    session->deps.ensureSealed();
    session->approxBytes = estimateSessionBytes(*session);
    return session;
}

std::shared_ptr<const Session>
SessionCache::acquire(const std::string &prefix, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;

    // Digest outside the lock: it reads every artifact byte and must
    // not serialize against other lookups.
    auto digests = trace::digestArtifacts(prefix);
    const uint64_t identity = trace::combinedArtifactDigest(digests);

    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(prefix);
    if (it != entries_.end()) {
        if (it->second.session->identity == identity) {
            ++counters_.hits;
            cacheCounter("service.cache_hits").add();
            touchLocked(prefix, it->second);
            if (was_hit)
                *was_hit = true;
            return it->second.session;
        }
        // The files changed under the prefix: the entry describes a
        // recording that no longer exists on disk, and so do any plans
        // transcoded from it.
        ++counters_.invalidations;
        cacheCounter("service.cache_invalidations").add();
        dropPlansForIdentityLocked(it->second.session->identity);
        removeLocked(prefix);
    }

    ++counters_.misses;
    cacheCounter("service.cache_misses").add();

    auto inflight = building_.find(identity);
    if (inflight != building_.end()) {
        // Same recording already being prepared: wait for that forward
        // pass instead of running a duplicate.
        ++counters_.openWaits;
        cacheCounter("service.cache_open_waits").add();
        auto build = inflight->second;
        buildDone_.wait(lock, [&] { return build->done; });
        if (build->error)
            std::rethrow_exception(build->error);
        if (entries_.find(prefix) == entries_.end())
            insertLocked(prefix, build->session);
        if (was_hit)
            *was_hit = true; // The forward pass was shared, not re-run.
        return build->session;
    }

    auto build = std::make_shared<Building>();
    building_.emplace(identity, build);
    lock.unlock();

    std::shared_ptr<Session> session;
    try {
        session = buildSession(prefix, std::move(digests), identity);
    } catch (...) {
        std::lock_guard<std::mutex> relock(mutex_);
        building_.erase(identity);
        build->error = std::current_exception();
        build->done = true;
        buildDone_.notify_all();
        throw;
    }

    lock.lock();
    ++counters_.built;
    cacheCounter("service.sessions_built").add();
    insertLocked(prefix, session);
    building_.erase(identity);
    build->session = session;
    build->done = true;
    buildDone_.notify_all();
    return session;
}

void
SessionCache::insertLocked(const std::string &prefix,
                           std::shared_ptr<const Session> session)
{
    // A racing rebuild of the same prefix (files changed while another
    // build was in flight) may have landed first; replace it cleanly
    // so the LRU list and byte ledger stay consistent.
    removeLocked(prefix);
    lru_.push_front(prefix);
    bytes_ += session->approxBytes;
    entries_[prefix] = Entry{std::move(session), lru_.begin()};

    // Over budget, cold plans go before cold sessions: rebuilding a
    // plan is one transcode, rebuilding a session is a forward pass.
    evictPlansLocked(std::string());

    // Evict from the cold end until the budget holds; the entry just
    // inserted is exempt, since a cache that cannot hold the session
    // being served would thrash forever.
    while (bytes_ > budget_ && lru_.size() > 1) {
        const std::string victim = lru_.back();
        ++counters_.evictions;
        cacheCounter("service.cache_evictions").add();
        removeLocked(victim);
    }
    MetricRegistry::global().gauge("service.cache_bytes").set(bytes_);
    MetricRegistry::global().gauge("service.cache_entries")
        .set(entries_.size());
}

void
SessionCache::removeLocked(const std::string &prefix)
{
    auto it = entries_.find(prefix);
    if (it == entries_.end())
        return;
    bytes_ -= it->second.session->approxBytes;
    lru_.erase(it->second.lruIt);
    entries_.erase(it);
    MetricRegistry::global().gauge("service.cache_bytes").set(bytes_);
    MetricRegistry::global().gauge("service.cache_entries")
        .set(entries_.size());
}

void
SessionCache::touchLocked(const std::string &prefix, Entry &entry)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(prefix);
    entry.lruIt = lru_.begin();
}

std::shared_ptr<const slicer::EpochPlan>
SessionCache::acquirePlan(const std::shared_ptr<const Session> &session,
                          size_t window_end, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;
    const std::string key =
        format("%016llx|%llu",
               static_cast<unsigned long long>(session->identity),
               static_cast<unsigned long long>(window_end));

    std::unique_lock<std::mutex> lock(mutex_);
    auto it = planEntries_.find(key);
    if (it != planEntries_.end()) {
        ++counters_.planHits;
        cacheCounter("service.plan_hits").add();
        planLru_.erase(it->second.lruIt);
        planLru_.push_front(key);
        it->second.lruIt = planLru_.begin();
        if (was_hit)
            *was_hit = true;
        return it->second.plan;
    }
    ++counters_.planMisses;
    cacheCounter("service.plan_misses").add();

    auto inflight = planBuilding_.find(key);
    if (inflight != planBuilding_.end()) {
        // Another query over the same window is already transcoding;
        // join that build instead of running a duplicate.
        ++counters_.planWaits;
        cacheCounter("service.plan_waits").add();
        auto build = inflight->second;
        buildDone_.wait(lock, [&] { return build->done; });
        if (build->error)
            std::rethrow_exception(build->error);
        if (was_hit)
            *was_hit = build->plan != nullptr;
        return build->plan;
    }

    auto build = std::make_shared<PlanBuilding>();
    planBuilding_.emplace(key, build);
    lock.unlock();

    std::shared_ptr<const slicer::EpochPlan> plan;
    try {
        ScopedFatalCapture capture;
        slicer::SlicerOptions options;
        options.endIndex = window_end;
        plan = slicer::buildEpochPlan(session->trace->records(),
                                      session->cfgs, session->deps,
                                      options);
    } catch (...) {
        std::lock_guard<std::mutex> relock(mutex_);
        planBuilding_.erase(key);
        build->error = std::current_exception();
        build->done = true;
        buildDone_.notify_all();
        throw;
    }

    lock.lock();
    planBuilding_.erase(key);
    build->plan = plan;
    build->done = true;
    buildDone_.notify_all();
    if (plan) {
        ++counters_.planBuilds;
        cacheCounter("service.plan_builds").add();
        PlanEntry entry;
        entry.plan = plan;
        entry.session = session;
        entry.identity = session->identity;
        entry.bytes = plan->approxBytes();
        insertPlanLocked(key, std::move(entry));
    }
    return plan;
}

void
SessionCache::insertPlanLocked(const std::string &key, PlanEntry entry)
{
    removePlanLocked(key); // racing builds of the same key: last wins
    planLru_.push_front(key);
    entry.lruIt = planLru_.begin();
    bytes_ += entry.bytes;
    planBytes_ += entry.bytes;
    planEntries_[key] = std::move(entry);
    evictPlansLocked(key);
    publishPlanGaugesLocked();
}

void
SessionCache::removePlanLocked(const std::string &key)
{
    auto it = planEntries_.find(key);
    if (it == planEntries_.end())
        return;
    bytes_ -= it->second.bytes;
    planBytes_ -= it->second.bytes;
    planLru_.erase(it->second.lruIt);
    planEntries_.erase(it);
    publishPlanGaugesLocked();
}

void
SessionCache::evictPlansLocked(const std::string &exempt)
{
    // The plan just inserted (if any) is exempt for the same reason the
    // newest session is: a cache that cannot hold what it is serving
    // would thrash forever.
    while (bytes_ > budget_ && !planLru_.empty() &&
           planLru_.back() != exempt) {
        const std::string victim = planLru_.back();
        ++counters_.planEvictions;
        cacheCounter("service.plan_evictions").add();
        removePlanLocked(victim);
    }
}

void
SessionCache::dropPlansForIdentityLocked(uint64_t identity)
{
    std::vector<std::string> victims;
    for (const auto &kv : planEntries_)
        if (kv.second.identity == identity)
            victims.push_back(kv.first);
    for (const auto &key : victims)
        removePlanLocked(key);
}

void
SessionCache::publishPlanGaugesLocked()
{
    MetricRegistry::global().gauge("service.plan_bytes").set(planBytes_);
    MetricRegistry::global().gauge("service.plan_entries")
        .set(planEntries_.size());
    MetricRegistry::global().gauge("service.cache_bytes").set(bytes_);
}

SessionCache::Stats
SessionCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = counters_;
    out.entries = entries_.size();
    out.bytes = bytes_;
    out.byteBudget = budget_;
    out.planEntries = planEntries_.size();
    out.planBytes = planBytes_;
    return out;
}

void
SessionCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    planEntries_.clear();
    planLru_.clear();
    bytes_ = 0;
    planBytes_ = 0;
    MetricRegistry::global().gauge("service.cache_bytes").set(0);
    MetricRegistry::global().gauge("service.cache_entries").set(0);
    MetricRegistry::global().gauge("service.plan_bytes").set(0);
    MetricRegistry::global().gauge("service.plan_entries").set(0);
}

} // namespace service
} // namespace webslice
