/**
 * @file
 * Reusable epoch plans for warm queries: transcode once, replay per
 * query.
 *
 * A cold query runs the sequential backward walk (slicer.hh). When many
 * criteria are sliced over the same trace window, most of that walk's
 * work — decoding records, probing the control-dependence map, skipping
 * records that can never change the analysis state — does not depend on
 * the criterion. An EpochPlan does that work once, over N trace epochs:
 *
 *  1. Transcode (parallel, at plan build): each epoch's records are
 *     walked backward and compiled into compact 24-byte ops. Provable
 *     state-no-ops (unconditional jumps, dead-destination ALU ops,
 *     branches that no dependence list ever names) are elided,
 *     control-dependence lists are pre-resolved into per-epoch span
 *     tables, thread ids are compressed through per-epoch tables, and a
 *     gen/kill summary of the epoch is memoized.
 *  2. Replay (per query, one sequential walk, newest epoch to oldest):
 *     the ops are replayed with the full transition rules, carrying the
 *     exact analysis state across epoch boundaries and emitting verdict
 *     bits, counters, and peaks as they go.
 *
 * Epochs whose summary proves the incoming state passes through
 * unchanged are skipped, and a repeated criterion is answered from a
 * per-plan memo.
 *
 * Because the replay runs the same transition rules as the sequential
 * kernel over the same state types (slicer/kernel.hh), the output is
 * bit-identical to the sequential slicer by construction; the tests
 * assert it.
 */

#ifndef WEBSLICE_SLICER_EPOCH_HH
#define WEBSLICE_SLICER_EPOCH_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "slicer/slicer.hh"

namespace webslice {
namespace slicer {

/**
 * An immutable, criterion-independent epoch transcode: the per-epoch
 * ops, pre-resolved dependence spans, and memoized gen/kill
 * summaries for one (trace, window, dependence-knobs) triple.
 *
 * Build once with buildEpochPlan(), then serve any number of queries,
 * in any criteria mode, through SlicerOptions::reusePlan. Each query
 * replays the cached ops (no transcode pass) and consults the
 * per-epoch summaries to skip epochs its live state provably passes
 * through unchanged. Thread-safe for
 * concurrent queries: all plan state is read-only after construction.
 *
 * Lifetime: the plan's dependence spans point into the sealed
 * ControlDepMap it was built from, so the plan must not outlive that
 * map (the service pins the owning session alongside each cached plan).
 */
class EpochPlan
{
  public:
    EpochPlan();
    ~EpochPlan();
    EpochPlan(const EpochPlan &) = delete;
    EpochPlan &operator=(const EpochPlan &) = delete;

    /** Records in the trace the plan was built from. */
    size_t recordCount() const;

    /** End (exclusive) of the analyzed window the plan covers. */
    size_t windowEnd() const;

    /** Number of epochs in the partition. */
    size_t epochCount() const;

    /** Approximate resident size, for cache accounting. */
    uint64_t approxBytes() const;

    /**
     * True when this plan can serve a slice under `options`: same trace
     * length, same analyzed window, same dependence knobs. The criteria
     * mode is deliberately not part of the key — the transcode is
     * criterion-independent.
     */
    bool compatibleWith(const SlicerOptions &options,
                        size_t record_count) const;

    struct Data;
    std::unique_ptr<Data> data;
};

/**
 * Transcode `records` into a reusable EpochPlan for the window
 * [0, min(options.endIndex, records.size())), on all hardware threads.
 * Only the dependence knobs and the window of `options` matter; mode
 * and job counts do not. The epoch count depends only on the window
 * length (EpochPlanner::boundariesOverrideForTesting replaces it).
 * Returns null when the shape is unsupported (empty window, record
 * indices beyond 32 bits, or an epoch with more than 256 distinct
 * threads) — callers fall back to the sequential walk.
 */
std::shared_ptr<const EpochPlan>
buildEpochPlan(std::span<const trace::Record> records,
               const graph::CfgSet &cfgs,
               const graph::ControlDepMap &deps,
               const SlicerOptions &options);

/**
 * Run one query over a prepared plan: no transcode, summary-gated epoch
 * skipping, one sequential replay (options.backwardJobs is ignored).
 * The plan must be compatibleWith() the options.
 * Output is bit-identical to the sequential oracle (the usual
 * flatProbes/flatResizes diagnostics excepted).
 */
SliceResult computeSliceWithPlan(const EpochPlan &plan,
                                 const trace::CriteriaSet &criteria,
                                 const SlicerOptions &options);

/** Epoch boundary planning knobs (test hooks). */
struct EpochPlanner
{
    /**
     * When non-null, the interior epoch boundaries buildEpochPlan uses
     * instead of its equal split — lets tests force boundaries through
     * syscall groups, pending branches, or live registers. Values are
     * clamped to the analysis window and still pass through
     * CriteriaSet::splitBoundary. Not thread-safe; tests only.
     */
    static const std::vector<size_t> *boundariesOverrideForTesting;

    /**
     * When true, every epoch summary built by buildEpochPlan reports
     * itself widened, so no epoch is ever skippable and every query
     * pays the full walk — the conservative fallback, forced. Results
     * must not change; tests assert exactly that. Not thread-safe;
     * tests only.
     */
    static bool forceWidenedSummariesForTesting;
};

} // namespace slicer
} // namespace webslice

#endif // WEBSLICE_SLICER_EPOCH_HH
