#include "slicer/slicer.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "support/flat_map.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/sparse_byte_set.hh"
#include "support/stopwatch.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace slicer {

using trace::FuncId;
using trace::Pc;
using trace::Record;
using trace::RecordKind;
using trace::ThreadId;

namespace {

/** Per-thread analysis state for the backward pass. */
struct ThreadState
{
    /**
     * Live virtual registers, one flag byte per RegId. The array covers
     * the whole RegId space upfront (64 KiB per thread) so the hot
     * gen/kill paths carry no bounds or sentinel branches: kNoReg
     * indexes a slot that is never set.
     */
    std::vector<uint8_t> liveRegs =
        std::vector<uint8_t>(size_t{trace::kNoReg} + 1, 0);

    /** Branch pcs waiting for their nearest preceding dynamic instance. */
    FlatSet64 pending;

    /**
     * Backward-reconstructed call stack. A frame is opened at a Ret record
     * and closed at the matching Call; `any` records whether any
     * instruction of the function instance joined the slice, which decides
     * whether the Call/Ret pair joins it too.
     */
    struct Frame
    {
        size_t retIndex;
        bool any = false;
    };
    std::vector<Frame> frames;

    /** Memory effects buffered between a syscall's pseudo-records and the
     *  Syscall record itself (they follow it in forward order, so the
     *  backward pass sees them first). */
    std::vector<trace::MemRange> syscallReads;
    bool syscallWriteWasLive = false;

    void
    genReg(trace::RegId reg)
    {
        if (reg != trace::kNoReg)
            liveRegs[reg] = 1;
    }

    /** Kill a register; returns whether it was live. */
    bool
    killReg(trace::RegId reg)
    {
        // kNoReg's slot exists and is never set; no sentinel branch.
        if (!liveRegs[reg])
            return false;
        liveRegs[reg] = 0;
        return true;
    }
};

} // namespace

/**
 * The sequential backward walk: one shared live-memory set, one dense
 * per-tid array of thread states, and the verdicts being produced.
 */
struct BackwardPass::Impl
{
    const graph::CfgSet &cfgs;
    const graph::ControlDepMap &deps;
    const trace::CriteriaSet &criteria;
    SlicerOptions options;
    size_t recordCount;

    SliceResult result;
    size_t lastIndex;
    bool finished = false;

    SparseByteSet liveMem;

    /** Thread states, indexed by tid. */
    std::vector<std::unique_ptr<ThreadState>> threads;

    /** One-entry thread-state cache: traces run long same-tid stretches,
     *  and the unique_ptr array keeps state addresses stable. */
    ThreadId lastTid = 0;
    ThreadState *lastState = nullptr;

    Impl(const graph::CfgSet &cfgs_in, const graph::ControlDepMap &deps_in,
         const trace::CriteriaSet &criteria_in,
         const SlicerOptions &options_in, size_t record_count)
        : cfgs(cfgs_in), deps(deps_in), criteria(criteria_in),
          options(options_in), recordCount(record_count),
          lastIndex(record_count)
    {
        result.inSlice.assign(record_count, 0);
        result.analyzedWindowEnd =
            std::min(options.endIndex, record_count);
    }

    ThreadState &
    threadState(ThreadId tid)
    {
        if (lastState && lastTid == tid)
            return *lastState;
        if (tid >= threads.size())
            threads.resize(tid + 1);
        auto &slot = threads[tid];
        if (!slot)
            slot = std::make_unique<ThreadState>();
        lastTid = tid;
        lastState = slot.get();
        return *slot;
    }

    /** Track the live-memory high-water marks; the peaks can only move
     *  on an insert, so sampling at the insert sites is exact. */
    void
    samplePeakLiveMem()
    {
        result.peakLiveMemBytes =
            std::max<uint64_t>(result.peakLiveMemBytes, liveMem.size());
        result.peakLiveMemChunks = std::max<uint64_t>(
            result.peakLiveMemChunks, liveMem.chunkCount());
    }

    void
    addControlDeps(ThreadState &ts, FuncId func, Pc pc)
    {
        if (!options.includeControlDeps)
            return;
        for (const Pc branch : deps.depsOf(func, pc))
            ts.pending.insert(branch);
        result.peakPendingBranches = std::max<uint64_t>(
            result.peakPendingBranches, ts.pending.size());
    }

    // Joins record `index` to the slice and propagates the structural
    // consequences shared by every record kind: control dependences and
    // the enclosing-instance flag.
    void
    include(size_t index, const Record &rec, ThreadState &ts)
    {
        result.inSlice[index] = 1;
        ++result.sliceInstructions;
        addControlDeps(ts, cfgs.funcOf[index], rec.pc);
        if (!ts.frames.empty())
            ts.frames.back().any = true;
    }

    void
    feed(size_t idx, const Record &rec)
    {
        panic_if(finished, "feed after finish");
        panic_if(idx >= lastIndex,
                 "records must be fed in strictly descending order");
        lastIndex = idx;
        ++result.recordsFed;

        if (idx >= std::min(options.endIndex, recordCount))
            return; // outside the analysis window

        step(idx, rec);
    }

    void
    run(std::span<const Record> records)
    {
        panic_if(finished, "run after finish");
        panic_if(lastIndex != recordCount,
                 "run requires a fresh pass (no records fed yet)");
        panic_if(records.size() != recordCount,
                 "record span does not match the trace length");
        const size_t end = std::min(options.endIndex, recordCount);
        result.recordsFed += end;
        for (size_t idx = end; idx-- > 0;) {
            // Descending streams defeat most hardware prefetchers;
            // request the line a few hundred bytes behind explicitly.
            if (idx >= 16)
                __builtin_prefetch(&records[idx - 16]);
            step(idx, records[idx]);
        }
        lastIndex = 0;
    }

    /** Fold live-set diagnostics into `result` (called once, at finish). */
    void
    collectStats()
    {
        result.flatProbes = liveMem.probeCount();
        result.flatResizes = liveMem.resizeCount();
        for (const auto &ts : threads) {
            if (ts) {
                result.flatProbes += ts->pending.probeCount();
                result.flatResizes += ts->pending.resizeCount();
            }
        }
    }

    void
    step(size_t idx, const Record &rec)
    {
        ThreadState &ts = threadState(rec.tid);

        if (!rec.isPseudo())
            ++result.instructionsAnalyzed;

        switch (rec.kind) {
          case RecordKind::Marker: {
            if (options.mode == CriteriaMode::PixelBuffer) {
                for (const auto &range : criteria.forMarker(rec.aux)) {
                    liveMem.insert(range.addr, range.size);
                    result.criteriaBytesSeeded += range.size;
                }
                samplePeakLiveMem();
                include(idx, rec, ts);
            }
            break;
          }

          case RecordKind::SyscallWrite: {
            if (liveMem.testAndErase(rec.addr, rec.aux))
                ts.syscallWriteWasLive = true;
            break;
          }

          case RecordKind::SyscallRead: {
            ts.syscallReads.push_back(trace::MemRange{rec.addr, rec.aux});
            break;
          }

          case RecordKind::Syscall: {
            const bool reg_hit = options.includeRegisterDeps &&
                                 ts.killReg(rec.rw);
            bool in_slice = ts.syscallWriteWasLive || reg_hit;
            if (options.mode == CriteriaMode::Syscalls) {
                // The values communicated to the outside world are the
                // criteria themselves: every syscall joins the slice and
                // its read-set becomes live.
                in_slice = true;
            }
            if (in_slice) {
                for (const auto &range : ts.syscallReads) {
                    liveMem.insert(range.addr, range.size);
                    if (options.mode == CriteriaMode::Syscalls)
                        result.criteriaBytesSeeded += range.size;
                }
                samplePeakLiveMem();
                include(idx, rec, ts);
            }
            ts.syscallReads.clear();
            ts.syscallWriteWasLive = false;
            break;
          }

          case RecordKind::Store: {
            if (liveMem.testAndErase(rec.addr, rec.aux)) {
                include(idx, rec, ts);
                if (options.includeRegisterDeps) {
                    ts.genReg(rec.rr0);
                    ts.genReg(rec.rr1);
                }
            }
            break;
          }

          case RecordKind::Load: {
            const bool live = options.includeRegisterDeps
                                  ? ts.killReg(rec.rw)
                                  : liveMem.intersects(rec.addr, rec.aux);
            if (live) {
                include(idx, rec, ts);
                liveMem.insert(rec.addr, rec.aux);
                samplePeakLiveMem();
                if (options.includeRegisterDeps)
                    ts.genReg(rec.rr0);
            }
            break;
          }

          case RecordKind::Alu:
          case RecordKind::LoadImm: {
            if (!options.includeRegisterDeps)
                break;
            if (ts.killReg(rec.rw)) {
                include(idx, rec, ts);
                ts.genReg(rec.rr0);
                ts.genReg(rec.rr1);
                ts.genReg(rec.rr2);
            }
            break;
          }

          case RecordKind::Branch: {
            if (ts.pending.erase(rec.pc)) {
                include(idx, rec, ts);
                if (options.includeRegisterDeps)
                    ts.genReg(rec.rr0);
            }
            break;
          }

          case RecordKind::Jump: {
            // Unconditional; no condition variable, never a controller.
            break;
          }

          case RecordKind::Ret: {
            ts.frames.push_back(ThreadState::Frame{idx, false});
            break;
          }

          case RecordKind::Call: {
            bool instance_contributed = false;
            size_t ret_index = recordCount;
            if (!ts.frames.empty()) {
                instance_contributed = ts.frames.back().any;
                ret_index = ts.frames.back().retIndex;
                ts.frames.pop_back();
            }
            if (instance_contributed) {
                include(idx, rec, ts);
                if (options.includeRegisterDeps)
                    ts.genReg(rec.rr0); // indirect-call target register
                // The matching Ret is part of the contributing instance.
                if (ret_index < recordCount &&
                    !result.inSlice[ret_index]) {
                    result.inSlice[ret_index] = 1;
                    ++result.sliceInstructions;
                }
            }
            break;
          }
        }
    }
};

BackwardPass::BackwardPass(const graph::CfgSet &cfgs,
                           const graph::ControlDepMap &deps,
                           const trace::CriteriaSet &criteria,
                           const SlicerOptions &options,
                           size_t record_count)
{
    panic_if(cfgs.funcOf.size() != record_count,
             "forward-pass attribution does not match the trace length");
    impl_ = std::make_unique<Impl>(cfgs, deps, criteria, options,
                                   record_count);
}

BackwardPass::~BackwardPass() = default;

void
BackwardPass::feed(size_t index, const Record &record)
{
    impl_->feed(index, record);
}

void
BackwardPass::run(std::span<const Record> records)
{
    impl_->run(records);
}

void
publishSliceMetrics(const SliceResult &r)
{
    auto &registry = MetricRegistry::global();
    registry.counter("slicer.records_fed").add(r.recordsFed);
    registry.counter("slicer.instructions_analyzed")
        .add(r.instructionsAnalyzed);
    registry.counter("slicer.slice_instructions").add(r.sliceInstructions);
    registry.counter("slicer.criteria_bytes_seeded")
        .add(r.criteriaBytesSeeded);
    registry.counter("slicer.flat_probes").add(r.flatProbes);
    registry.counter("slicer.flat_resizes").add(r.flatResizes);
    registry.gauge("slicer.peak_live_mem_bytes").setMax(r.peakLiveMemBytes);
    registry.gauge("slicer.peak_live_mem_chunks")
        .setMax(r.peakLiveMemChunks);
    registry.gauge("slicer.peak_pending_branches")
        .setMax(r.peakPendingBranches);
}

SliceResult
BackwardPass::finish()
{
    panic_if(impl_->finished, "finish called twice");
    impl_->finished = true;
    impl_->collectStats();
    publishSliceMetrics(impl_->result);
    return std::move(impl_->result);
}

SliceResult
computeSlice(std::span<const Record> records, const graph::CfgSet &cfgs,
             const graph::ControlDepMap &deps,
             const trace::CriteriaSet &criteria,
             const SlicerOptions &options)
{
    BackwardPass pass(cfgs, deps, criteria, options, records.size());
    pass.run(records);
    return pass.finish();
}

SliceResult
computeSliceFromFile(const std::string &path, const graph::CfgSet &cfgs,
                     const graph::ControlDepMap &deps,
                     const trace::CriteriaSet &criteria,
                     const SlicerOptions &options)
{
    trace::TraceReader reader(path, trace::TraceReader::Direction::Backward);
    BackwardPass pass(cfgs, deps, criteria, options,
                      static_cast<size_t>(reader.count()));
    Record rec;
    const uint64_t total = reader.count();
    size_t idx = static_cast<size_t>(total);

    // Heartbeat state for --progress: check the clock only every 64k
    // records so the hot loop stays unmeasurable, print when the
    // configured interval has elapsed.
    const bool progress = options.progressIntervalSeconds > 0.0;
    Stopwatch watch;
    double last_beat = 0.0;
    uint64_t done = 0;

    while (reader.next(rec)) {
        pass.feed(--idx, rec);
        if (progress && (++done & 0xFFFF) == 0) {
            const double t = watch.seconds();
            if (t - last_beat >= options.progressIntervalSeconds) {
                last_beat = t;
                const double rate = static_cast<double>(done) / t;
                const double eta =
                    rate > 0.0
                        ? static_cast<double>(total - done) / rate
                        : 0.0;
                std::fprintf(stderr,
                             "progress: backward pass %llu/%llu records "
                             "(%.0f%%), %.2f Mrec/s, ETA %.1fs\n",
                             static_cast<unsigned long long>(done),
                             static_cast<unsigned long long>(total),
                             100.0 * static_cast<double>(done) /
                                 static_cast<double>(total),
                             rate / 1e6, eta);
            }
        }
    }
    return pass.finish();
}

} // namespace slicer
} // namespace webslice
