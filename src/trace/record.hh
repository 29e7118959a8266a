/**
 * @file
 * The dynamic trace record format.
 *
 * One record per dynamically executed instruction (plus a few pseudo-record
 * kinds), carrying exactly the information the paper's Pin tool collects:
 * static opcode class and registers accessed, plus dynamic memory
 * address/size, thread id, branch outcome, and syscall number. Syscall
 * memory effects (what the kernel reads/writes on the process's behalf,
 * derived in the paper from the Linux manual and the AMD64 ABI) appear as
 * explicit effect pseudo-records immediately after their syscall record.
 */

#ifndef WEBSLICE_TRACE_RECORD_HH
#define WEBSLICE_TRACE_RECORD_HH

#include <cstdint>

namespace webslice {
namespace trace {

/** Register ids are per-thread virtual registers; kNoReg means "none". */
using RegId = uint16_t;
constexpr RegId kNoReg = 0xFFFF;

/** Static program counters; assigned per traced emission site. */
using Pc = uint32_t;
constexpr Pc kNoPc = 0;

/** Thread ids within the traced process. */
using ThreadId = uint16_t;

/** Classification of a trace record. */
enum class RecordKind : uint8_t
{
    /** Register-to-register computation: rw <- f(rr0, rr1). */
    Alu = 0,
    /** Immediate/constant producer: rw <- imm (no dependencies). */
    LoadImm,
    /** Memory load: rw <- mem[addr, size]; rr0 optionally the address
     *  base register. */
    Load,
    /** Memory store: mem[addr, size] <- rr0; rr1 optionally the address
     *  base register. */
    Store,
    /** Conditional branch on rr0; addr = taken-target pc;
     *  kFlagTaken set when taken. */
    Branch,
    /** Unconditional direct jump; addr = target pc. */
    Jump,
    /** Call; addr = callee entry pc; rr0 = target register when
     *  kFlagIndirect. */
    Call,
    /** Return to the matching call's continuation. */
    Ret,
    /** System call; aux = syscall number; effect records follow. */
    Syscall,
    /** Pseudo-record: the preceding syscall reads mem[addr, size]. */
    SyscallRead,
    /** Pseudo-record: the preceding syscall writes mem[addr, size]. */
    SyscallWrite,
    /** The planted criteria marker ("xchg %r13w,%r13w" in the paper);
     *  aux = marker ordinal, matched against the criteria sidecar file. */
    Marker,
};

/** Record flag bits. */
enum RecordFlags : uint8_t
{
    kFlagTaken = 1 << 0,    ///< Branch was taken.
    kFlagIndirect = 1 << 1, ///< Call/jump target came from a register.
};

/**
 * A fixed 32-byte trace record. The same struct is the on-disk format
 * (little-endian, which is the only platform we target).
 */
struct Record
{
    uint64_t addr = 0;  ///< Memory address, or control-transfer target pc.
    Pc pc = kNoPc;      ///< Static pc of the instruction.
    uint32_t aux = 0;   ///< Memory size, syscall number, or marker ordinal.
    ThreadId tid = 0;   ///< Executing thread.
    RecordKind kind = RecordKind::Alu;
    uint8_t flags = 0;
    RegId rr0 = kNoReg; ///< First register read.
    RegId rr1 = kNoReg; ///< Second register read.
    RegId rr2 = kNoReg; ///< Third register read (select, indexed stores).
    RegId rw = kNoReg;  ///< Register written.

    /**
     * Explicit tail padding, always zero. Without it the compiler pads
     * the struct to 32 bytes with garbage, and since the struct is the
     * on-disk format verbatim, recordings of the same session would not
     * be byte-identical — which the scenario subsystem's reproducibility
     * contract (and CI's digest comparisons) depend on. Readers ignore
     * it, so traces written before this field existed still load.
     */
    uint32_t reserved = 0;

    /** True for pseudo-records that are not executed instructions. */
    bool
    isPseudo() const
    {
        return kind == RecordKind::SyscallRead ||
               kind == RecordKind::SyscallWrite;
    }

    /** True for records that transfer control. */
    bool
    isControl() const
    {
        return kind == RecordKind::Branch || kind == RecordKind::Jump ||
               kind == RecordKind::Call || kind == RecordKind::Ret;
    }

    bool taken() const { return flags & kFlagTaken; }
    bool indirect() const { return flags & kFlagIndirect; }

    /**
     * Field-wise equality, the one definition every record comparison
     * uses. `reserved` is left out: files written before it existed may
     * carry garbage there, and readers ignore it.
     */
    bool
    operator==(const Record &o) const
    {
        return addr == o.addr && pc == o.pc && aux == o.aux &&
               tid == o.tid && kind == o.kind && flags == o.flags &&
               rr0 == o.rr0 && rr1 == o.rr1 && rr2 == o.rr2 && rw == o.rw;
    }
};

static_assert(sizeof(Record) == 32, "trace records must stay 32 bytes");

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_RECORD_HH
