/**
 * @file
 * Reusable epoch plans and their replay (see epoch.hh for the scheme).
 *
 * Exactness argument, in brief: the replay applies the full transition
 * rules of the sequential kernel to every epoch's ops, newest epoch to
 * oldest, so the state it holds when it reaches an epoch boundary *is*
 * the state the sequential pass holds at that record index, and every
 * include decision matches the sequential pass record for record.
 * Elided records are provable state-no-ops under the options in force
 * (they could never change liveness, pending branches, frames, or the
 * slice), so eliding them changes nothing.
 *
 * The only outputs that may differ from the sequential pass are the
 * flatProbes/flatResizes diagnostics: per-epoch hash tables grow from
 * scratch, so their probe and rehash history is not the sequential
 * walk's. Every other field, including the verdict bitmap, the
 * counters, and the peaks, is bit-identical.
 */

#include "slicer/epoch.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "slicer/kernel.hh"
#include "support/flat_map.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/sparse_byte_set.hh"
#include "support/thread_pool.hh"

namespace webslice {
namespace slicer {

using trace::kNoReg;
using trace::Pc;
using trace::Record;
using trace::RecordKind;
using trace::RegId;
using trace::ThreadId;

const std::vector<size_t> *EpochPlanner::boundariesOverrideForTesting =
    nullptr;
bool EpochPlanner::forceWidenedSummariesForTesting = false;

namespace {

/** aux16 sentinel: the access size lives in EpochData::wideSizes. */
constexpr uint16_t kWideSize = 0xFFFF;

/**
 * One transcoded record, 24 bytes. Field use is per kind:
 *  - Store:        a=addr, aux16=size, r0=rr0, rw=rr1 (never kills)
 *  - Load:         a=addr, aux16=size, r0=rr0, rw=rw
 *  - Alu/LoadImm:  a=rr1|(rr2<<16), r0=rr0, rw=rw
 *  - Branch:       a=pc, r0=rr0
 *  - Call:         r0=rr0
 *  - Ret:          idx only
 *  - Marker:       a=ordinal
 *  - Syscall:      rw=rw
 *  - SyscallR/W:   a=addr, deps=byte count (pseudos never join the slice)
 * `deps` is 0 (no control deps) or 1 + an index into the epoch's
 * depsTable of pre-resolved dependence spans; `tid8` indexes the
 * epoch's tid table.
 */
struct EpochOp
{
    uint64_t a = 0;
    uint32_t idx = 0;
    uint32_t deps = 0;
    RegId r0 = kNoReg;
    RegId rw = kNoReg;
    uint16_t aux16 = 0;
    uint8_t kind = 0;
    uint8_t tid8 = 0;
};

static_assert(sizeof(EpochOp) == 24, "ops are the replay's working set; "
                                      "keep them packed");

/**
 * Memoized gen/kill summary of one epoch, computed during transcode.
 *
 * The summary answers one question for a later query: can the incoming
 * analysis state pass through this epoch provably unchanged? Every
 * state transition in the walk is gated on a join test, and every join
 * test consults exactly one of the domains below, so if none of them
 * can fire against the incoming state the whole epoch is a state no-op
 * for that query and the walk may skip it (see summaryAllowsSkip()).
 *
 * Registers and branch pcs are tracked exactly; memory is tracked at
 * 4 KiB page granularity. When a domain outgrows its cap the summary
 * widens to "may touch anything" (`widened`), which conservatively
 * disables skipping but never affects correctness — widened epochs are
 * simply walked.
 */
struct EpochSummary
{
    /** A cap overflowed (or the test hook fired): never skippable. */
    bool widened = false;

    /** Epoch contains Marker ops: pixel-mode queries seed criteria (and
     *  write verdicts) here unconditionally. */
    bool hasMarkers = false;

    /** Epoch contains Syscall ops: syscalls-mode queries join at every
     *  one of them unconditionally. */
    bool hasSyscalls = false;

    /** Every Ret frame pushed in the epoch is popped by a Call in the
     *  same epoch, per thread, and no Call pops a frame the epoch did
     *  not push — so the incoming frame stacks pass through untouched. */
    bool framesBalanced = true;

    /** A SyscallRead pseudo was not followed (in walk order) by its
     *  Syscall within the epoch; the buffered reads would leak into the
     *  outgoing state, so the epoch cannot be skipped. */
    bool danglingSyscallReads = false;

    /** Registers whose liveness would trigger a kill or join (exact). */
    std::vector<RegId> testedRegs;

    /** Branch pcs the epoch could erase from a pending set (exact). */
    std::vector<Pc> branchPcs;

    /** 4 KiB pages the epoch's stores, syscall writes, and (in
     *  memory-only mode) loads probe the live-memory set with. */
    std::vector<uint64_t> touchPages;
};

/** One epoch's transcode output. */
struct EpochData
{
    size_t first = 0; ///< Record range [first, last) of this epoch.
    size_t last = 0;

    /** Ops in backward walk order (descending record index). */
    std::vector<EpochOp> ops;

    /** Pre-resolved control-dependence spans (into the sealed map). */
    std::vector<std::pair<const Pc *, uint32_t>> depsTable;

    /** tid8 -> real thread id. */
    std::vector<ThreadId> tids;

    /** Record index -> access size, for sizes aux16 cannot hold. */
    std::unordered_map<uint32_t, uint64_t> wideSizes;

    /** Non-pseudo records in the epoch (the instructionsAnalyzed share,
     *  elided ones included). */
    uint64_t nonPseudoRecords = 0;

    /** Records dropped as provable state-no-ops. */
    uint64_t elidedRecords = 0;

    /** Gen/kill summary for query-time epoch skipping. */
    EpochSummary summary;

    /** False when the epoch cannot be encoded (> 256 distinct tids);
     *  no plan is built and queries take the sequential pass. */
    bool ok = true;
};

/**
 * Compiles one epoch's records (fed newest first) into EpochOps,
 * applying the elision rules and pre-resolving dependence lists so the
 * replay never probes the control-dependence map.
 */
class EpochTranscoder
{
  public:
    EpochTranscoder(const graph::CfgSet &cfgs,
                    const graph::ControlDepMap &deps,
                    const SlicerOptions &options,
                    const FlatSet64 *branch_universe, size_t first,
                    size_t last)
        : cfgs_(cfgs), deps_(deps), options_(options),
          universe_(branch_universe)
    {
        data_.first = first;
        data_.last = last;
        data_.ops.reserve(last - first);
    }

    /** Feed record `idx` (indices strictly descending within the epoch). */
    void
    consume(size_t idx, const Record &rec)
    {
        if (!data_.ok)
            return;
        if (!rec.isPseudo())
            ++data_.nonPseudoRecords;

        switch (rec.kind) {
          case RecordKind::Jump:
            // Unconditional; the kernel's case is empty.
            ++data_.elidedRecords;
            return;

          case RecordKind::Marker: {
            // Always emitted, whatever the criteria mode: the walk
            // checks the mode instead, which keeps the transcode (and
            // any EpochPlan built from it) criterion-independent.
            EpochOp op = base(idx, rec, RecordKind::Marker);
            op.a = rec.aux;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            data_.summary.hasMarkers = true;
            return;
          }

          case RecordKind::Alu:
          case RecordKind::LoadImm: {
            // Without register deps these are no-ops; with them, a dead
            // destination (kNoReg) can never be killed and so can never
            // include or gen.
            if (!options_.includeRegisterDeps || rec.rw == kNoReg) {
                ++data_.elidedRecords;
                return;
            }
            EpochOp op = base(idx, rec, RecordKind::Alu);
            op.a = static_cast<uint64_t>(rec.rr1) |
                   (static_cast<uint64_t>(rec.rr2) << 16);
            op.r0 = rec.rr0;
            op.rw = rec.rw;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            noteTestedReg(rec.rw);
            return;
          }

          case RecordKind::Load: {
            // In register mode a dead destination decides aliveness, so
            // kNoReg is a no-op; in memory-only mode the verdict comes
            // from the live set and the record must survive.
            if (options_.includeRegisterDeps && rec.rw == kNoReg) {
                ++data_.elidedRecords;
                return;
            }
            EpochOp op = base(idx, rec, RecordKind::Load);
            op.a = rec.addr;
            op.aux16 = packSize(idx, rec.aux);
            op.r0 = rec.rr0;
            op.rw = rec.rw;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            if (options_.includeRegisterDeps)
                noteTestedReg(rec.rw); // join gated on the destination
            else
                noteTouchedPages(rec.addr, rec.aux); // gated on liveMem
            return;
          }

          case RecordKind::Store: {
            if (rec.aux == 0) {
                ++data_.elidedRecords;
                return;
            }
            EpochOp op = base(idx, rec, RecordKind::Store);
            op.a = rec.addr;
            op.aux16 = packSize(idx, rec.aux);
            op.r0 = rec.rr0;
            op.rw = rec.rr1; // second source rides in the rw slot
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            noteTouchedPages(rec.addr, rec.aux);
            return;
          }

          case RecordKind::Branch: {
            // Pending sets only ever receive pcs from dependence lists,
            // so a branch outside the universe can never be erased from
            // one — it is a state no-op. With control deps disabled the
            // universe is empty and every branch elides. The universe
            // is shared by every transcode thread, hence peek().
            if (!universe_ || !universe_->peek(rec.pc)) {
                ++data_.elidedRecords;
                return;
            }
            EpochOp op = base(idx, rec, RecordKind::Branch);
            op.a = rec.pc;
            op.r0 = rec.rr0;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            noteBranchPc(rec.pc);
            return;
          }

          case RecordKind::Call: {
            EpochOp op = base(idx, rec, RecordKind::Call);
            op.r0 = rec.rr0;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            // A Call with no in-epoch Ret frame to pop would pop (and
            // possibly join through) a frame from a newer epoch.
            if (frameDepth_[op.tid8] == 0)
                data_.summary.framesBalanced = false;
            else
                --frameDepth_[op.tid8];
            return;
          }

          case RecordKind::Ret: {
            const EpochOp op = base(idx, rec, RecordKind::Ret);
            data_.ops.push_back(op);
            ++frameDepth_[op.tid8];
            return;
          }

          case RecordKind::Syscall: {
            EpochOp op = base(idx, rec, RecordKind::Syscall);
            op.rw = rec.rw;
            op.deps = depsRef(idx, rec.pc);
            data_.ops.push_back(op);
            data_.summary.hasSyscalls = true;
            if (options_.includeRegisterDeps)
                noteTestedReg(rec.rw);
            pendingReads_[op.tid8] = 0; // the Syscall drains the buffer
            return;
          }

          case RecordKind::SyscallRead:
          case RecordKind::SyscallWrite: {
            EpochOp op = base(idx, rec, rec.kind);
            op.a = rec.addr;
            op.deps = rec.aux; // byte count; pseudos never need a dep ref
            data_.ops.push_back(op);
            if (rec.kind == RecordKind::SyscallRead)
                pendingReads_[op.tid8] = 1;
            else
                noteTouchedPages(rec.addr, rec.aux);
            return;
          }
        }
    }

    EpochData
    take()
    {
        EpochSummary &s = data_.summary;
        for (size_t t = 0; t < data_.tids.size(); ++t) {
            if (frameDepth_[t] != 0)
                s.framesBalanced = false; // unmatched Ret frames leak out
            if (pendingReads_[t])
                s.danglingSyscallReads = true;
        }
        if (EpochPlanner::forceWidenedSummariesForTesting)
            s.widened = true;
        if (s.widened) {
            // A widened summary is never consulted beyond the flag.
            s.testedRegs.clear();
            s.branchPcs.clear();
            s.touchPages.clear();
        } else {
            const auto sorted = [](auto &dst, const auto &src) {
                dst.assign(src.begin(), src.end());
                std::sort(dst.begin(), dst.end());
            };
            sorted(s.testedRegs, sumRegs_);
            sorted(s.branchPcs, sumBranches_);
            sorted(s.touchPages, sumPages_);
        }
        return std::move(data_);
    }

  private:
    /** Summary caps; an overflowing domain widens the whole summary. */
    static constexpr size_t kMaxSummaryRegs = 256;
    static constexpr size_t kMaxSummaryBranches = 1024;
    static constexpr size_t kMaxSummaryPages = 256;

    void
    noteTestedReg(RegId reg)
    {
        if (reg == kNoReg || data_.summary.widened)
            return;
        sumRegs_.insert(reg);
        if (sumRegs_.size() > kMaxSummaryRegs)
            data_.summary.widened = true;
    }

    void
    noteBranchPc(Pc pc)
    {
        if (data_.summary.widened)
            return;
        sumBranches_.insert(pc);
        if (sumBranches_.size() > kMaxSummaryBranches)
            data_.summary.widened = true;
    }

    void
    noteTouchedPages(uint64_t addr, uint64_t size)
    {
        if (size == 0 || data_.summary.widened)
            return;
        const uint64_t last = addr + (size - 1);
        if (last < addr || (last >> 12) - (addr >> 12) >= kMaxSummaryPages) {
            data_.summary.widened = true;
            return;
        }
        for (uint64_t page = addr >> 12; page <= (last >> 12); ++page)
            sumPages_.insert(page);
        if (sumPages_.size() > kMaxSummaryPages)
            data_.summary.widened = true;
    }

    EpochOp
    base(size_t idx, const Record &rec, RecordKind kind)
    {
        EpochOp op;
        op.idx = static_cast<uint32_t>(idx);
        op.kind = static_cast<uint8_t>(kind);
        op.tid8 = tid8(rec.tid);
        return op;
    }

    uint8_t
    tid8(ThreadId tid)
    {
        auto it = tidMap_.find(tid);
        if (it != tidMap_.end())
            return it->second;
        if (data_.tids.size() >= 256) {
            data_.ok = false;
            return 0;
        }
        data_.tids.push_back(tid);
        const auto t8 = static_cast<uint8_t>(data_.tids.size() - 1);
        tidMap_.emplace(tid, t8);
        return t8;
    }

    uint16_t
    packSize(size_t idx, uint32_t size)
    {
        if (size < kWideSize)
            return static_cast<uint16_t>(size);
        data_.wideSizes.emplace(static_cast<uint32_t>(idx), size);
        return kWideSize;
    }

    /** 0 for no deps, else 1 + depsTable index; memoized per (func, pc). */
    uint32_t
    depsRef(size_t idx, Pc pc)
    {
        if (!options_.includeControlDeps)
            return 0;
        const auto func = cfgs_.funcOf[idx];
        const uint64_t key = (static_cast<uint64_t>(func) << 32) | pc;
        auto it = depsCache_.find(key);
        if (it != depsCache_.end())
            return it->second;
        uint32_t ref = 0;
        const auto span = deps_.depsOf(func, pc);
        if (!span.empty()) {
            data_.depsTable.emplace_back(span.data(),
                                         static_cast<uint32_t>(span.size()));
            ref = static_cast<uint32_t>(data_.depsTable.size());
        }
        depsCache_.emplace(key, ref);
        return ref;
    }

    const graph::CfgSet &cfgs_;
    const graph::ControlDepMap &deps_;
    const SlicerOptions &options_;
    const FlatSet64 *universe_;
    EpochData data_;
    std::unordered_map<ThreadId, uint8_t> tidMap_;
    std::unordered_map<uint64_t, uint32_t> depsCache_;

    /** Summary accumulators (finalized into sorted vectors by take()). */
    std::unordered_set<uint64_t> sumRegs_;
    std::unordered_set<uint64_t> sumBranches_;
    std::unordered_set<uint64_t> sumPages_;
    std::array<int64_t, 256> frameDepth_{};
    std::array<uint8_t, 256> pendingReads_{};
};

/** The full analysis state the replay carries across epochs. */
struct WalkState
{
    SparseByteSet liveMem;
    std::unordered_map<ThreadId, ThreadState> threads;
};

/**
 * Replay one epoch's ops over `st`, applying exactly the sequential
 * kernel's transition rules, writing the verdict bitmap and
 * accumulating counters and peaks into `out`.
 */
void
walkEpoch(const EpochData &ep, WalkState &st, const SlicerOptions &opt,
          const trace::CriteriaSet &criteria, size_t record_count,
          SliceResult &out)
{
    uint8_t *const in_slice = out.inSlice.data();

    // Per-epoch tid8 -> thread-state pointer cache; unordered_map node
    // references are stable across inserts, so the pointers stay valid.
    std::array<ThreadState *, 256> cache{};

    uint64_t probe_base = st.liveMem.probeCount();
    uint64_t resize_base = st.liveMem.resizeCount();
    for (const auto &kv : st.threads) {
        probe_base += kv.second.pending.probeCount();
        resize_base += kv.second.pending.resizeCount();
    }

    auto thread_state = [&](uint8_t t8) -> ThreadState & {
        ThreadState *&slot = cache[t8];
        if (!slot)
            slot = &st.threads[ep.tids[t8]];
        return *slot;
    };

    auto sample_peak_mem = [&] {
        out.peakLiveMemBytes = std::max<uint64_t>(out.peakLiveMemBytes,
                                                   st.liveMem.size());
        out.peakLiveMemChunks = std::max<uint64_t>(
            out.peakLiveMemChunks, st.liveMem.chunkCount());
    };

    auto include = [&](const EpochOp &op, ThreadState &ts) {
        in_slice[op.idx] = 1;
        ++out.sliceInstructions;
        if (op.deps != 0) {
            const auto &span = ep.depsTable[op.deps - 1];
            for (uint32_t i = 0; i < span.second; ++i)
                ts.pending.insert(span.first[i]);
            out.peakPendingBranches = std::max<uint64_t>(
                out.peakPendingBranches, ts.pending.size());
        }
        if (!ts.frames.empty())
            ts.frames.back().any = true;
    };

    auto mem_size = [&](const EpochOp &op) -> uint64_t {
        if (op.aux16 != kWideSize)
            return op.aux16;
        return ep.wideSizes.at(op.idx);
    };

    for (const EpochOp &op : ep.ops) {
        ThreadState &ts = thread_state(op.tid8);
        switch (static_cast<RecordKind>(op.kind)) {
          case RecordKind::Marker: {
            // Markers are transcoded in every mode (the op stream is
            // criterion-independent); only pixel-mode queries act on
            // them, exactly as the sequential kernel does.
            if (opt.mode != CriteriaMode::PixelBuffer)
                break;
            for (const auto &range :
                 criteria.forMarker(static_cast<uint32_t>(op.a))) {
                st.liveMem.insert(range.addr, range.size);
                out.criteriaBytesSeeded += range.size;
            }
            sample_peak_mem();
            include(op, ts);
            break;
          }

          case RecordKind::SyscallWrite: {
            if (st.liveMem.testAndErase(op.a, op.deps))
                ts.syscallWriteWasLive = true;
            break;
          }

          case RecordKind::SyscallRead: {
            ts.syscallReads.push_back(trace::MemRange{op.a, op.deps});
            break;
          }

          case RecordKind::Syscall: {
            const bool reg_hit =
                opt.includeRegisterDeps && ts.killReg(op.rw);
            bool joins = ts.syscallWriteWasLive || reg_hit;
            if (opt.mode == CriteriaMode::Syscalls)
                joins = true;
            if (joins) {
                for (const auto &range : ts.syscallReads) {
                    st.liveMem.insert(range.addr, range.size);
                    if (opt.mode == CriteriaMode::Syscalls)
                        out.criteriaBytesSeeded += range.size;
                }
                sample_peak_mem();
                include(op, ts);
            }
            ts.syscallReads.clear();
            ts.syscallWriteWasLive = false;
            break;
          }

          case RecordKind::Store: {
            if (st.liveMem.testAndErase(op.a, mem_size(op))) {
                include(op, ts);
                if (opt.includeRegisterDeps) {
                    ts.genReg(op.r0);
                    ts.genReg(op.rw); // rr1 rides in the rw slot
                }
            }
            break;
          }

          case RecordKind::Load: {
            const bool live = opt.includeRegisterDeps
                                  ? ts.killReg(op.rw)
                                  : st.liveMem.intersects(op.a,
                                                          mem_size(op));
            if (live) {
                include(op, ts);
                st.liveMem.insert(op.a, mem_size(op));
                sample_peak_mem();
                if (opt.includeRegisterDeps)
                    ts.genReg(op.r0);
            }
            break;
          }

          case RecordKind::Alu: {
            // Only emitted with register deps on and a live-able rw.
            if (ts.killReg(op.rw)) {
                include(op, ts);
                ts.genReg(op.r0);
                ts.genReg(static_cast<RegId>(op.a & 0xFFFF));
                ts.genReg(static_cast<RegId>((op.a >> 16) & 0xFFFF));
            }
            break;
          }

          case RecordKind::Branch: {
            if (ts.pending.erase(static_cast<Pc>(op.a))) {
                include(op, ts);
                if (opt.includeRegisterDeps)
                    ts.genReg(op.r0);
            }
            break;
          }

          case RecordKind::Ret: {
            ts.frames.push_back(
                ThreadState::Frame{static_cast<size_t>(op.idx), false});
            break;
          }

          case RecordKind::Call: {
            bool instance_contributed = false;
            size_t ret_index = record_count;
            if (!ts.frames.empty()) {
                instance_contributed = ts.frames.back().any;
                ret_index = ts.frames.back().retIndex;
                ts.frames.pop_back();
            }
            if (instance_contributed) {
                include(op, ts);
                if (opt.includeRegisterDeps)
                    ts.genReg(op.r0);
                // The matching Ret may live in a later epoch; the epoch
                // that pops the frame writes its verdict.
                if (ret_index < record_count && !in_slice[ret_index]) {
                    in_slice[ret_index] = 1;
                    ++out.sliceInstructions;
                }
            }
            break;
          }

          default:
            panic_if(true, "unexpected op kind in epoch walk");
        }
    }

    uint64_t probes = st.liveMem.probeCount();
    uint64_t resizes = st.liveMem.resizeCount();
    for (const auto &kv : st.threads) {
        probes += kv.second.pending.probeCount();
        resizes += kv.second.pending.resizeCount();
    }
    out.flatProbes += probes - probe_base;
    out.flatResizes += resizes - resize_base;
}

/**
 * The skippability proof: true when the incoming analysis state would
 * pass through the epoch provably unchanged, so the walk may omit it.
 *
 * Soundness argument: every state mutation in walkEpoch is gated on a
 * join test against the incoming state — a store/syscall-write hitting
 * live memory, a kill of a live register, a branch pc present in a
 * pending set, an unconditional criteria seed (markers in pixel mode,
 * syscalls in syscalls mode), or a Call popping a frame the epoch did
 * not push. If none of those can fire, no op mutates anything, so the
 * state stays constant through the epoch and checking each condition
 * against the *incoming* state is exact, not just a fixed point. The
 * transient syscall-read buffer is the one un-gated mutation; it is
 * provably drained when the epoch has no dangling pseudo groups.
 */
bool
summaryAllowsSkip(const EpochData &ep, const WalkState &st,
                  const SlicerOptions &opt)
{
    const EpochSummary &s = ep.summary;
    if (s.widened || !s.framesBalanced || s.danglingSyscallReads)
        return false;
    if (opt.mode == CriteriaMode::PixelBuffer && s.hasMarkers)
        return false;
    if (opt.mode == CriteriaMode::Syscalls && s.hasSyscalls)
        return false;
    for (const auto &kv : st.threads) {
        const ThreadState &ts = kv.second;
        // Buffered pseudo state from a newer epoch would be consumed by
        // this epoch's Syscall ops; impossible when boundaries respect
        // syscall groups, but cheap to guard against.
        if (ts.syscallWriteWasLive || !ts.syscallReads.empty())
            return false;
        if (ts.liveRegCount != 0) {
            for (const RegId reg : s.testedRegs)
                if (ts.regLive(reg))
                    return false;
        }
        if (ts.pending.size() != 0) {
            for (const Pc pc : s.branchPcs)
                if (ts.pending.contains(pc))
                    return false;
        }
    }
    if (st.liveMem.size() != 0) {
        for (const uint64_t page : s.touchPages)
            if (st.liveMem.intersects(page << 12, 4096))
                return false;
    }
    return true;
}

/**
 * Epochs for a reusable plan. Independent of any query's job count (any
 * job count replays any partition bit-identically), and fine-grained:
 * more epochs mean finer summary granularity, so warm queries whose
 * live sets die early can skip a larger fraction of the window.
 */
size_t
planEpochTarget(size_t end)
{
    return std::max<size_t>(
        1,
        std::min({end, std::max<size_t>(end / 2048, 8), size_t{128}}));
}

/**
 * The plan's epoch boundaries [0, b1, ..., end]. The interior proposals
 * split the window into planEpochTarget(end) equal-record epochs (or
 * come from the test override); each is clamped to the window, shifted
 * off syscall pseudo-groups, and kept monotonic (a shift may not cross
 * the previous boundary; if it would, the boundary collapses and the
 * epoch is empty, which the walk handles).
 */
std::vector<size_t>
planBounds(std::span<const Record> records, size_t end)
{
    std::vector<size_t> interior;
    if (EpochPlanner::boundariesOverrideForTesting) {
        interior = *EpochPlanner::boundariesOverrideForTesting;
        std::sort(interior.begin(), interior.end());
    } else {
        const size_t epochs = planEpochTarget(end);
        for (size_t k = 1; k < epochs; ++k) {
            interior.push_back(static_cast<size_t>(
                static_cast<uint64_t>(end) * k / epochs));
        }
    }
    std::vector<size_t> bounds{0};
    for (const size_t b : interior) {
        const size_t shifted =
            trace::CriteriaSet::splitBoundary(records, std::min(b, end));
        bounds.push_back(std::max(shifted, bounds.back()));
    }
    bounds.push_back(end);
    return bounds;
}

/** Rough resident size of one transcoded epoch, for cache budgets. */
uint64_t
epochApproxBytes(const EpochData &ep)
{
    uint64_t bytes = sizeof(EpochData);
    bytes += ep.ops.capacity() * sizeof(EpochOp);
    bytes += ep.depsTable.capacity() * sizeof(ep.depsTable[0]);
    bytes += ep.tids.capacity() * sizeof(ThreadId);
    bytes += ep.wideSizes.size() * 32;
    bytes += ep.summary.testedRegs.capacity() * sizeof(RegId);
    bytes += ep.summary.branchPcs.capacity() * sizeof(Pc);
    bytes += ep.summary.touchPages.capacity() * sizeof(uint64_t);
    return bytes;
}

} // namespace

/** The plan's private state: the transcoded epochs and their keying. */
struct EpochPlan::Data
{
    /** Epoch boundaries [0, b1, ..., windowEnd]. */
    std::vector<size_t> bounds;

    /** Transcoded epochs, oldest first (bounds[k] .. bounds[k+1]). */
    std::vector<EpochData> epochs;

    /** Trace length the plan was built against. */
    size_t recordCount = 0;

    /** Dependence knobs baked into the transcode (part of the key). */
    bool includeControlDeps = true;
    bool includeRegisterDeps = true;

    /** Cached approxBytes() value. */
    uint64_t bytes = 0;
};

EpochPlan::EpochPlan() : data(std::make_unique<Data>()) {}
EpochPlan::~EpochPlan() = default;

size_t
EpochPlan::recordCount() const
{
    return data->recordCount;
}

size_t
EpochPlan::windowEnd() const
{
    return data->bounds.empty() ? 0 : data->bounds.back();
}

size_t
EpochPlan::epochCount() const
{
    return data->epochs.size();
}

uint64_t
EpochPlan::approxBytes() const
{
    return data->bytes;
}

bool
EpochPlan::compatibleWith(const SlicerOptions &options,
                          size_t record_count) const
{
    if (record_count != data->recordCount)
        return false;
    if (std::min(options.endIndex, record_count) != windowEnd())
        return false;
    return options.includeControlDeps == data->includeControlDeps &&
           options.includeRegisterDeps == data->includeRegisterDeps;
}

std::shared_ptr<const EpochPlan>
buildEpochPlan(std::span<const Record> records, const graph::CfgSet &cfgs,
               const graph::ControlDepMap &deps,
               const SlicerOptions &options)
{
    panic_if(cfgs.funcOf.size() != records.size(),
             "forward-pass attribution does not match the trace length");
    if (records.size() > std::numeric_limits<uint32_t>::max())
        return nullptr; // op encoding carries 32-bit record indices
    const size_t end = std::min(options.endIndex, records.size());
    if (end == 0)
        return nullptr;

    deps.ensureSealed();
    FlatSet64 universe;
    if (options.includeControlDeps) {
        const auto pcs = deps.branchUniverse();
        universe.reserve(pcs.size());
        for (const Pc pc : pcs)
            universe.insert(pc);
    }
    const FlatSet64 *universe_ptr =
        options.includeControlDeps ? &universe : nullptr;

    const auto bounds = planBounds(records, end);
    const size_t epoch_count = bounds.size() - 1;

    auto plan = std::make_shared<EpochPlan>();
    EpochPlan::Data &d = *plan->data;
    d.bounds = bounds;
    d.recordCount = records.size();
    d.includeControlDeps = options.includeControlDeps;
    d.includeRegisterDeps = options.includeRegisterDeps;
    d.epochs.resize(epoch_count);

    // One transcode pool for the process, one build at a time: a build
    // already uses every core, and a daemon builds hundreds of plans.
    // Long-lived threads keep reusing the allocator arenas that hold
    // plan memory instead of scattering each plan over fresh ones, and
    // at most one plan is in flight outside the cache's byte budget.
    static ThreadPool pool(ThreadPool::resolveJobs(0) - 1);
    static std::mutex one_build;
    std::lock_guard<std::mutex> building(one_build);
    std::atomic<bool> failed{false};
    TaskGroup group;
    for (size_t k = 0; k < epoch_count; ++k) {
        pool.post(group, [&, k] {
            EpochTranscoder tc(cfgs, deps, options, universe_ptr,
                               bounds[k], bounds[k + 1]);
            for (size_t idx = bounds[k + 1]; idx-- > bounds[k];) {
                if (idx >= bounds[k] + 16)
                    __builtin_prefetch(&records[idx - 16]);
                tc.consume(idx, records[idx]);
            }
            d.epochs[k] = tc.take();
            if (!d.epochs[k].ok)
                failed.store(true);
        });
    }
    pool.drain(group);
    if (failed.load())
        return nullptr; // > 256 tids in an epoch; no plan for this trace

    uint64_t bytes = sizeof(EpochPlan) + sizeof(EpochPlan::Data) +
                     d.bounds.capacity() * sizeof(size_t);
    uint64_t elided = 0;
    for (const EpochData &ep : d.epochs) {
        bytes += epochApproxBytes(ep);
        elided += ep.elidedRecords;
    }
    d.bytes = bytes;

    auto &registry = MetricRegistry::global();
    registry.counter("slicer.plan_builds").add(1);
    registry.counter("slicer.epochs_planned").add(epoch_count);
    registry.counter("slicer.epoch_elided_records").add(elided);
    return plan;
}

SliceResult
computeSliceWithPlan(const EpochPlan &plan,
                     const trace::CriteriaSet &criteria,
                     const SlicerOptions &options)
{
    const EpochPlan::Data &d = *plan.data;
    panic_if(!plan.compatibleWith(options, d.recordCount),
             "epoch plan is not compatible with the requested options");
    const size_t epoch_count = d.epochs.size();
    const size_t record_count = d.recordCount;

    SliceResult result;
    result.inSlice.assign(record_count, 0);
    result.analyzedWindowEnd = d.bounds.back();
    result.recordsFed = d.bounds.back();

    // One walk, newest epoch to oldest, carrying the exact analysis
    // state across epoch boundaries.
    uint64_t skipped = 0;
    WalkState state;
    for (size_t k = epoch_count; k-- > 0;) {
        const EpochData &ep = d.epochs[k];
        if (summaryAllowsSkip(ep, state, options)) {
            ++skipped;
            continue;
        }
        walkEpoch(ep, state, options, criteria, record_count, result);
    }

    // Skipped epochs still count their analyzed instructions: the tally
    // comes from the transcode, not the walk, and must match the oracle.
    for (const EpochData &ep : d.epochs)
        result.instructionsAnalyzed += ep.nonPseudoRecords;

    MetricRegistry::global().counter("slicer.epochs_skipped").add(skipped);
    publishSliceMetrics(result);
    return result;
}

} // namespace slicer
} // namespace webslice
