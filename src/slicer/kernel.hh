/**
 * @file
 * The backward slicer's shared kernel state: the per-thread analysis
 * state both walks carry.
 *
 * Two walks build on this type:
 *  - the sequential pass (slicer.cc), which is the oracle every other
 *    configuration must match bit for bit, and
 *  - the epoch-plan replay (epoch.cc), whose stitch and resolve phases
 *    re-run the same transition rules over per-epoch segments.
 *
 * Keeping the state in one header is what makes "bit-identical" a
 * structural guarantee instead of a testing aspiration: there is one
 * definition of gen/kill, one pending-branch container, one frame
 * stack — the walks differ only in traversal order and bookkeeping.
 */

#ifndef WEBSLICE_SLICER_KERNEL_HH
#define WEBSLICE_SLICER_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/flat_map.hh"
#include "trace/record.hh"

namespace webslice {
namespace slicer {

/**
 * Per-thread analysis state for the backward pass.
 *
 * Copyable by design: the plan replay snapshots the full analysis state
 * at each epoch boundary and seeds the epoch's resolve from the copy.
 */
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
    size_t liveRegCount = 0;

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

    bool regLive(trace::RegId reg) const { return liveRegs[reg] != 0; }

    void
    genReg(trace::RegId reg)
    {
        if (reg == trace::kNoReg)
            return;
        if (!liveRegs[reg]) {
            liveRegs[reg] = 1;
            ++liveRegCount;
        }
    }

    /** Kill a register; returns whether it was live. */
    bool
    killReg(trace::RegId reg)
    {
        // kNoReg's slot exists and is never set; no sentinel branch.
        if (!liveRegs[reg])
            return false;
        liveRegs[reg] = 0;
        --liveRegCount;
        return true;
    }
};

} // namespace slicer
} // namespace webslice

#endif // WEBSLICE_SLICER_KERNEL_HH
