#include "service/session_cache.hh"

#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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

/** Same file, same bytes: a .trc is only ever replaced by rename, so
 *  unchanged (device, inode, size, mtime, ctime) means unchanged data. */
bool
sameFile(const struct stat &a, const struct stat &b)
{
    return a.st_dev == b.st_dev && a.st_ino == b.st_ino &&
           a.st_size == b.st_size &&
           a.st_mtim.tv_sec == b.st_mtim.tv_sec &&
           a.st_mtim.tv_nsec == b.st_mtim.tv_nsec &&
           a.st_ctim.tv_sec == b.st_ctim.tv_sec &&
           a.st_ctim.tv_nsec == b.st_ctim.tv_nsec;
}

/** Memo key: identity, window end, and criteria mode. */
std::string
memoKey(const Session &session, size_t window_end,
        slicer::CriteriaMode mode)
{
    return format("%016llx|%llu|%c",
                  static_cast<unsigned long long>(session.identity),
                  static_cast<unsigned long long>(window_end),
                  mode == slicer::CriteriaMode::Syscalls ? 's' : 'p');
}

/** Budget charge of one memoized answer: the entry, its key (held by
 *  the map and the LRU list), and its category names. */
uint64_t
answerBytes(const std::string &key, const SliceAnswer &answer)
{
    uint64_t bytes = sizeof(SliceAnswer) + 2 * (key.size() + 64);
    for (const auto &share : answer.categoryShares)
        bytes += sizeof(share) + share.first.size();
    return bytes;
}

} // namespace

/**
 * An open .trc and the fstat() taken before its bytes were hashed
 * (a write during the hash then shows as a changed stamp later). The
 * descriptor pins the inode: while the handle lives, no other file can
 * take its (st_dev, st_ino).
 */
struct SessionCache::TraceHandle
{
    int fd = -1;
    struct stat stamp = {};
    FileDigest digest;

    TraceHandle() = default;
    TraceHandle(const TraceHandle &) = delete;
    TraceHandle &operator=(const TraceHandle &) = delete;

    ~TraceHandle()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Open, stamp, and hash `path`; digest.ok is false when it cannot
     *  be read. */
    static std::shared_ptr<const TraceHandle>
    open(const std::string &path)
    {
        auto handle = std::make_shared<TraceHandle>();
        handle->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (handle->fd < 0 || ::fstat(handle->fd, &handle->stamp) != 0)
            return handle;
        handle->digest = digestDescriptor(handle->fd);
        return handle;
    }

    /** True when `path` still names the file this handle hashed. */
    bool
    matches(const std::string &path) const
    {
        struct stat now;
        return digest.ok && ::stat(path.c_str(), &now) == 0 &&
               sameFile(now, stamp);
    }
};

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
    session->approxBytes = estimateSessionBytes(*session);
    return session;
}

std::shared_ptr<const Session>
SessionCache::acquire(const std::string &prefix, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;

    // Everything that reads a file runs outside the lock, so lookups
    // never serialize behind it. A cached entry whose .trc still
    // stat()s the same lends its digest; otherwise the .trc is hashed
    // now, through the descriptor the new or refreshed entry keeps.
    const std::string trc = prefix + ".trc";
    std::shared_ptr<const TraceHandle> kept;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(prefix);
        if (it != entries_.end())
            kept = it->second.trace;
    }
    const bool rehash = kept && !kept->matches(trc);
    const auto handle =
        kept && !rehash ? kept : TraceHandle::open(trc);
    auto digests = trace::digestArtifacts(prefix, handle->digest);
    const uint64_t identity = trace::combinedArtifactDigest(digests);

    std::unique_lock<std::mutex> lock(mutex_);
    if (rehash) {
        ++counters_.traceRehashes;
        cacheCounter("service.trace_rehashes").add();
    }
    auto it = entries_.find(prefix);
    if (it != entries_.end()) {
        if (it->second.session->identity == identity) {
            ++counters_.hits;
            cacheCounter("service.cache_hits").add();
            touchLocked(prefix, it->second);
            // A byte-identical republish: keep the new inode's stamp
            // so the next acquire is a plain stat again.
            it->second.trace = handle;
            if (was_hit)
                *was_hit = true;
            return it->second.session;
        }
        // The files changed under the prefix: the entry describes a
        // recording that no longer exists on disk, and so do any
        // answers computed from it.
        ++counters_.invalidations;
        cacheCounter("service.cache_invalidations").add();
        dropDerivedLocked(it->second.session->identity);
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
            insertLocked(prefix, build->session, handle);
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
    insertLocked(prefix, session, handle);
    building_.erase(identity);
    build->session = session;
    build->done = true;
    buildDone_.notify_all();
    return session;
}

void
SessionCache::insertLocked(const std::string &prefix,
                           std::shared_ptr<const Session> session,
                           std::shared_ptr<const TraceHandle> trace)
{
    // A racing rebuild of the same prefix (files changed while another
    // build was in flight) may have landed first; replace it cleanly
    // so the LRU list and byte ledger stay consistent.
    removeLocked(prefix);
    lru_.push_front(prefix);
    bytes_ += session->approxBytes;
    entries_[prefix] =
        Entry{std::move(session), lru_.begin(), std::move(trace)};
    evictLocked();
    publishGaugesLocked();
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
    publishGaugesLocked();
}

void
SessionCache::touchLocked(const std::string &prefix, Entry &entry)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(prefix);
    entry.lruIt = lru_.begin();
}

std::shared_ptr<const slicer::EpochPlan>
SessionCache::acquirePlan(const std::shared_ptr<const Session> &,
                          size_t, bool *was_hit)
{
    if (was_hit)
        *was_hit = false;
    return nullptr;
}

std::shared_ptr<const SliceAnswer>
SessionCache::findAnswer(const Session &session, size_t window_end,
                         slicer::CriteriaMode mode)
{
    const std::string key = memoKey(session, window_end, mode);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = memoEntries_.find(key);
    if (it == memoEntries_.end())
        return nullptr;
    ++counters_.memoHits;
    cacheCounter("service.memo_hits").add();
    memoLru_.erase(it->second.lruIt);
    memoLru_.push_front(key);
    it->second.lruIt = memoLru_.begin();
    return it->second.answer;
}

void
SessionCache::storeAnswer(const Session &session, size_t window_end,
                          slicer::CriteriaMode mode,
                          std::shared_ptr<const SliceAnswer> answer)
{
    const std::string key = memoKey(session, window_end, mode);
    std::lock_guard<std::mutex> lock(mutex_);
    removeMemoLocked(key); // racing computations of one key: last wins
    memoLru_.push_front(key);
    MemoEntry entry;
    entry.bytes = answerBytes(key, *answer);
    entry.answer = std::move(answer);
    entry.lruIt = memoLru_.begin();
    entry.identity = session.identity;
    bytes_ += entry.bytes;
    memoEntries_[key] = std::move(entry);
    evictLocked();
    publishGaugesLocked();
}

void
SessionCache::removeMemoLocked(const std::string &key)
{
    auto it = memoEntries_.find(key);
    if (it == memoEntries_.end())
        return;
    bytes_ -= it->second.bytes;
    memoLru_.erase(it->second.lruIt);
    memoEntries_.erase(it);
}

void
SessionCache::evictLocked()
{
    // Cheapest rebuild first: an answer is one slice, a session a
    // whole forward pass. The newest entry of each kind stays, since a
    // cache that cannot hold what it is serving would thrash forever.
    while (bytes_ > budget_ && memoLru_.size() > 1) {
        ++counters_.memoEvictions;
        cacheCounter("service.memo_evictions").add();
        removeMemoLocked(memoLru_.back());
    }
    while (bytes_ > budget_ && lru_.size() > 1) {
        ++counters_.evictions;
        cacheCounter("service.cache_evictions").add();
        removeLocked(lru_.back());
    }
}

void
SessionCache::dropDerivedLocked(uint64_t identity)
{
    std::vector<std::string> answers;
    for (const auto &kv : memoEntries_)
        if (kv.second.identity == identity)
            answers.push_back(kv.first);
    for (const auto &key : answers)
        removeMemoLocked(key);
    publishGaugesLocked();
}

void
SessionCache::publishGaugesLocked()
{
    auto &registry = MetricRegistry::global();
    registry.gauge("service.cache_bytes").set(bytes_);
    registry.gauge("service.cache_entries").set(entries_.size());
    registry.gauge("service.memo_entries").set(memoEntries_.size());
}

SessionCache::Stats
SessionCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = counters_;
    out.entries = entries_.size();
    out.bytes = bytes_;
    out.byteBudget = budget_;
    out.memoEntries = memoEntries_.size();
    return out;
}

void
SessionCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    memoEntries_.clear();
    memoLru_.clear();
    bytes_ = 0;
    publishGaugesLocked();
}

} // namespace service
} // namespace webslice
