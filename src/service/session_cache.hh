/**
 * @file
 * The resident-session cache: the reason webslice-served exists.
 *
 * The paper's workflow is many queries over one trace — pixel-buffer
 * criteria at many markers plus the syscall criteria — but a batch CLI
 * re-opens, re-indexes, and re-runs the forward pass for every query.
 * A Session holds everything a backward pass needs that does not
 * depend on the criterion: the mmap'd trace, the parsed sidecars, the
 * CFGs, postdominators, and the sealed control-dependence map. Repeat
 * queries against a cached session skip the entire forward pass.
 *
 * Identity. A session is keyed by the fold of its artifact digests
 * (FNV-1a-64 of the .trc/.sym/.crit/.meta bytes): a prefix whose files
 * changed on disk is a different recording and invalidates its stale
 * entry, together with its memoized answers. The digests are
 * computed once, when the session is built; the .trc is read through a
 * descriptor the entry keeps open, so its inode cannot be recycled,
 * and the descriptor's fstat() is kept with it. Each later acquire
 * re-hashes only the three small sidecars (they are rewritten in place)
 * and stat()s the .trc: a matching stat is the same published file,
 * because a .trc is only ever replaced by rename (TraceWriter's atomic
 * publication), so a hit reads no byte of the trace. A mismatch
 * re-hashes the .trc; a byte-identical republish refreshes the kept
 * stat and stays a hit.
 *
 * Results. The cache also keeps the result memo: the finished answer
 * (counts, digest, category shares — never the verdict vector) of each
 * query, keyed by (identity, window end, criteria mode). A repeated
 * query is answered from it without a record scan or a categorize
 * pass; every other query runs the sequential backward walk over the
 * session.
 *
 * Sessions and answers share one byte budget. Over it, cold answers
 * are evicted first, then cold sessions; everything handed out as
 * shared_ptr stays alive for its holders even after eviction.
 * Concurrent opens of the same recording collapse onto one forward
 * pass — later callers wait for the builder instead of duplicating it.
 */

#ifndef WEBSLICE_SERVICE_SESSION_CACHE_HH
#define WEBSLICE_SERVICE_SESSION_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "trace/artifacts.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace service {

/** One recording, fully prepared for criterion queries. */
struct Session
{
    std::string prefix;

    /** combinedArtifactDigest over `digests` — the cache identity. */
    uint64_t identity = 0;

    /** Per-artifact digests captured when the session was built. */
    std::vector<trace::ArtifactDigest> digests;

    trace::ArtifactSidecars sidecars;
    std::unique_ptr<trace::MappedTrace> trace;
    graph::CfgSet cfgs;
    graph::ControlDepMap deps; ///< Sealed, so workers read it lock-free.

    /** Budget accounting: artifact bytes plus graph-structure estimates. */
    uint64_t approxBytes = 0;

    /**
     * Analysis window for a query: the record count, capped by the
     * metadata load-complete index (unless no_window) and by an
     * explicit end_index override — the same derivation the CLIs use.
     */
    size_t windowEnd(bool no_window, uint64_t end_override) const;
};

/**
 * The finished answer to one query, as the result memo keeps it:
 * everything a result frame says about the slice, but not the
 * per-record verdicts it was computed from.
 */
struct SliceAnswer
{
    uint64_t windowEnd = 0;
    uint64_t instructionsAnalyzed = 0;
    uint64_t sliceInstructions = 0;
    uint64_t criteriaBytesSeeded = 0;
    double slicePercent = 0.0;
    /** FNV-1a-64 of the verdict bytes (in_slice_fnv1a). */
    uint64_t inSliceFnv1a = 0;
    double categoryCoveragePercent = 0.0;
    /** Non-zero category shares, in Categorizer::reportOrder(). */
    std::vector<std::pair<std::string, double>> categoryShares;
};

class SessionCache
{
  public:
    /**
     * @param byte_budget approximate ceiling on cached session bytes;
     *                    the most recent session is always retained
     *                    even if it exceeds the budget alone.
     * @param forward_jobs worker threads for the forward pass when a
     *                    session is built (0 = all cores).
     */
    explicit SessionCache(uint64_t byte_budget, int forward_jobs = 0);

    SessionCache(const SessionCache &) = delete;
    SessionCache &operator=(const SessionCache &) = delete;

    /**
     * Get the session for `prefix`, building it if absent or stale.
     * A cached entry is checked by re-hashing the sidecars and
     * stat()ing the .trc; only a changed stat re-reads the trace (see
     * the file comment). Throws FatalError (via the loaders, captured)
     * when the artifacts are missing or malformed — the message
     * carries the loader's file+offset diagnostic for the client.
     *
     * @param was_hit set to true when the forward pass was skipped
     *                (cache hit or joined an in-flight build).
     */
    std::shared_ptr<const Session> acquire(const std::string &prefix,
                                           bool *was_hit = nullptr);

    /** Returns null and sets *was_hit to false: no plan is ever built.
     *  Kept because perfbench/src/serve_mixed.cc calls it. */
    std::shared_ptr<const slicer::EpochPlan>
    acquirePlan(const std::shared_ptr<const Session> &session,
                size_t window_end, bool *was_hit = nullptr);

    /**
     * The memoized answer to (`session`'s identity, `window_end`,
     * `mode`), or null. A hit refreshes the answer's LRU position.
     */
    std::shared_ptr<const SliceAnswer>
    findAnswer(const Session &session, size_t window_end,
               slicer::CriteriaMode mode);

    /**
     * Memoize `answer` under the same key; charged to the byte budget
     * and dropped with the session's identity on invalidation.
     */
    void storeAnswer(const Session &session, size_t window_end,
                     slicer::CriteriaMode mode,
                     std::shared_ptr<const SliceAnswer> answer);

    /** Cache observability (also published as service.* metrics). */
    struct Stats
    {
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t byteBudget = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t invalidations = 0;
        uint64_t built = 0;     ///< Forward passes actually run.
        uint64_t openWaits = 0; ///< Joins onto an in-flight build.

        /** Result memo (bytes are included in `bytes` too). */
        uint64_t memoEntries = 0;
        uint64_t memoHits = 0;
        uint64_t memoEvictions = 0;

        /** .trc files re-read because a cached entry's stat changed. */
        uint64_t traceRehashes = 0;
    };

    Stats stats() const;

    /** Drop every entry (drain/tests); in-use sessions stay alive. */
    void clear();

  private:
    struct Building
    {
        bool done = false;
        std::shared_ptr<const Session> session;
        std::exception_ptr error;
    };

    /** An open .trc, its fstat() stamp, and the digest of its bytes
     *  (defined in the .cc). */
    struct TraceHandle;

    struct Entry
    {
        std::shared_ptr<const Session> session;
        std::list<std::string>::iterator lruIt;
        /** The .trc the identity was hashed from, held open. */
        std::shared_ptr<const TraceHandle> trace;
    };

    struct MemoEntry
    {
        std::shared_ptr<const SliceAnswer> answer;
        std::list<std::string>::iterator lruIt;
        uint64_t identity = 0;
        uint64_t bytes = 0;
    };

    std::shared_ptr<Session>
    buildSession(const std::string &prefix,
                 std::vector<trace::ArtifactDigest> digests,
                 uint64_t identity) const;

    /** Insert under the lock; evicts LRU entries beyond the budget. */
    void insertLocked(const std::string &prefix,
                      std::shared_ptr<const Session> session,
                      std::shared_ptr<const TraceHandle> trace);

    void removeLocked(const std::string &prefix);

    /** Move `prefix` to the front of the LRU list. */
    void touchLocked(const std::string &prefix, Entry &entry);

    void removeMemoLocked(const std::string &key);

    /**
     * While over the byte budget, evict cold answers, then cold
     * sessions. The newest entry of each kind is exempt.
     */
    void evictLocked();

    /** Drop the answers of a now-invalidated recording. */
    void dropDerivedLocked(uint64_t identity);

    void publishGaugesLocked();

    const uint64_t budget_;
    const int forwardJobs_;

    mutable std::mutex mutex_;
    std::condition_variable buildDone_;
    std::unordered_map<std::string, Entry> entries_;
    std::list<std::string> lru_; ///< Front = most recently used.
    std::map<uint64_t, std::shared_ptr<Building>> building_;
    std::unordered_map<std::string, MemoEntry> memoEntries_;
    std::list<std::string> memoLru_; ///< Front = most recently used.
    uint64_t bytes_ = 0;
    Stats counters_;
};

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_SESSION_CACHE_HH
