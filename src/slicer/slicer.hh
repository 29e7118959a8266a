/**
 * @file
 * Dynamic backward program slicing (the profiler's backward pass).
 *
 * The slicer walks the trace from its end towards its beginning carrying:
 *  - one live-register set per thread (the CPU context is per thread),
 *  - a single shared live-memory set (threads share the address space, so
 *    cross-thread data dependences fall out of liveness for free — the
 *    paper's rationale for serializing thread execution),
 *  - a pending-branch list per thread for control dependences.
 *
 * Rules, exactly as Section III-B describes:
 *  - Reaching a slicing-criterion program point puts the criterion's
 *    variables into the live set.
 *  - An instruction writing a live variable joins the slice, kills what it
 *    writes, and gens what it reads.
 *  - When an instruction joins the slice, every branch it is
 *    control-dependent on is added to the pending list; the nearest
 *    preceding dynamic instance of a pending branch joins the slice, is
 *    removed from the list, and its condition variable becomes live.
 *
 * Two criteria modes, per Section IV-C: the pixel/tile-buffer markers, or
 * the values read by every system call.
 */

#ifndef WEBSLICE_SLICER_SLICER_HH
#define WEBSLICE_SLICER_SLICER_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "trace/criteria.hh"
#include "trace/record.hh"

namespace webslice {
namespace slicer {

class EpochPlan;

/** Which slicing criteria seed the live set. */
enum class CriteriaMode
{
    /** Tile/pixel buffer contents at each Marker record (the paper's
     *  primary criteria). */
    PixelBuffer,
    /** The values read by every system call (the paper's broader,
     *  I/O-inclusive criteria). */
    Syscalls,
};

/** Backward-pass configuration. */
struct SlicerOptions
{
    CriteriaMode mode = CriteriaMode::PixelBuffer;

    /**
     * Slice as if the trace ended at this record index (exclusive). Used
     * for the paper's Bing experiment that slices from the
     * page-load-complete point instead of the end of the browsing session.
     */
    size_t endIndex = std::numeric_limits<size_t>::max();

    /** Ablation knob: ignore control dependences entirely. */
    bool includeControlDeps = true;

    /** Ablation knob: ignore register liveness (memory-only slicing). */
    bool includeRegisterDeps = true;

    /**
     * Worker threads for the forward pass (CFG construction and control
     * dependences). 1 (the default) is the serial path; <= 0 means "all
     * hardware threads". Results are identical for every value.
     */
    int jobs = 1;

    /**
     * Accepted for callers and the wire protocol; the value no longer
     * changes how a query runs. A compatible reusePlan is replayed in
     * one walk (slicer/epoch.hh), and a cold query runs the sequential
     * walk.
     */
    int backwardJobs = 1;

    /**
     * When > 0, computeSliceFromFile prints a heartbeat to stderr at
     * roughly this interval during the reverse walk: records done,
     * records/sec, and the ETA to the start of the trace. 0 (the
     * default) disables progress output.
     */
    double progressIntervalSeconds = 0.0;

    /**
     * Optional prepared epoch plan (slicer/epoch.hh) from a previous
     * query over the same trace window. When set and compatible (same
     * record count, window, and dependence knobs — the plan itself is
     * criterion-independent), computeSlice skips the transcode pass
     * entirely and replays the cached ops; per-epoch gen/kill summaries
     * additionally let it skip epochs the query's live set provably
     * passes through unchanged. Every call replays: the plan memoizes
     * no results (repeats are answered by the service's result memo,
     * service/session_cache.hh). Incompatible or null plans fall back
     * to the sequential walk. Non-owning: the plan (and the
     * control-dependence map it points into) must outlive the call.
     */
    const EpochPlan *reusePlan = nullptr;
};

/** Output of one backward pass. */
struct SliceResult
{
    /** Per-record verdict (1 = in slice); pseudo-records are always 0. */
    std::vector<uint8_t> inSlice;

    /** Executed instructions inside the analyzed window. */
    uint64_t instructionsAnalyzed = 0;

    /** Executed instructions that joined the slice. */
    uint64_t sliceInstructions = 0;

    /** Criteria bytes inserted into the live set. */
    uint64_t criteriaBytesSeeded = 0;

    /** Records fed into the pass (including records outside the window). */
    uint64_t recordsFed = 0;

    /**
     * End (exclusive record index) of the analyzed window:
     * min(options.endIndex, record count). The soundness checker replays
     * exactly this prefix, so the slice and its verification agree on
     * what "the trace" was.
     */
    uint64_t analyzedWindowEnd = 0;

    /** Diagnostics: high-water marks of the analysis state. */
    uint64_t peakLiveMemBytes = 0;
    uint64_t peakLiveMemChunks = 0;
    uint64_t peakPendingBranches = 0;

    /**
     * Live-set hash-table totals: live-memory chunk index plus the
     * pending-branch sets. A plan replay grows its tables per epoch, so
     * these two diagnostics are the only fields that may differ from
     * the sequential walk's.
     */
    uint64_t flatProbes = 0;
    uint64_t flatResizes = 0;

    /** Slice share of analyzed instructions, in percent. */
    double
    slicePercent() const
    {
        if (instructionsAnalyzed == 0)
            return 0.0;
        return 100.0 * static_cast<double>(sliceInstructions) /
               static_cast<double>(instructionsAnalyzed);
    }
};

/**
 * The backward pass as an incremental consumer: feed records from the
 * last analyzed index down to 0, then take the result. Both the
 * in-memory front end (computeSlice) and the file-streaming front end
 * (computeSliceFromFile) drive this, so huge traces can be sliced in
 * O(live set) memory plus one verdict byte per record.
 */
class BackwardPass
{
  public:
    /**
     * @param record_count total records in the trace (sizes verdicts)
     */
    BackwardPass(const graph::CfgSet &cfgs,
                 const graph::ControlDepMap &deps,
                 const trace::CriteriaSet &criteria,
                 const SlicerOptions &options, size_t record_count);
    ~BackwardPass();

    BackwardPass(const BackwardPass &) = delete;
    BackwardPass &operator=(const BackwardPass &) = delete;

    /**
     * Consume record `index` (indices must arrive strictly descending,
     * starting below the options window).
     */
    void feed(size_t index, const trace::Record &record);

    /**
     * Consume an entire in-memory trace in one call — equivalent to
     * feeding every record in descending order, with the window check
     * hoisted out of the loop. The pass must be fresh (no feed() calls
     * yet).
     */
    void run(std::span<const trace::Record> records);

    /** Return the result; the pass is spent. */
    SliceResult finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run the backward pass over an in-memory trace.
 *
 * @param records   the dynamic trace
 * @param cfgs      forward-pass result (for per-record function ids)
 * @param deps      control dependence map from the forward pass
 * @param criteria  marker-ordinal -> memory-range criteria (pixel mode)
 * @param options   mode and window configuration
 */
SliceResult computeSlice(std::span<const trace::Record> records,
                         const graph::CfgSet &cfgs,
                         const graph::ControlDepMap &deps,
                         const trace::CriteriaSet &criteria,
                         const SlicerOptions &options = {});

/**
 * Run the backward pass over a trace file, streamed back-to-front: peak
 * memory is the live sets plus one verdict byte per record, never the
 * records themselves.
 */
SliceResult computeSliceFromFile(const std::string &path,
                                 const graph::CfgSet &cfgs,
                                 const graph::ControlDepMap &deps,
                                 const trace::CriteriaSet &criteria,
                                 const SlicerOptions &options = {});

/** Publish one pass's totals to the global metric registry. */
void publishSliceMetrics(const SliceResult &result);

} // namespace slicer
} // namespace webslice

#endif // WEBSLICE_SLICER_SLICER_HH
