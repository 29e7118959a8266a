/**
 * @file
 * Dynamic control flow graph reconstruction (the profiler's forward pass,
 * part 1).
 *
 * As in the paper, CFGs must be rebuilt from the dynamic instruction trace:
 * indirect control transfer targets are only known at runtime. Function
 * boundaries are recovered by matching Call and Ret records on a per-thread
 * stack; every static pc observed between a function's Call and its Ret (at
 * the same depth) becomes a node of that function's CFG, and each CFG gets
 * its own virtual entry and exit nodes.
 *
 * Records executed outside any traced function (thread run-loop glue) are
 * attributed to one synthetic "toplevel" function per thread.
 *
 * One builder, private to cfg.cc, does this for both entry points. Its
 * feed loop does only the inherently sequential work (frame matching,
 * synthetic-function assignment, per-record attribution) and records
 * one compact transition per record in its function's stream, behind a
 * small direct-mapped filter that drops transitions already seen, so a
 * stream holds roughly the unique control-flow edges. The streams are
 * then replayed per function, on `jobs` threads, into nodes and edges.
 * The filter keeps the first occurrence of every transition in order,
 * so node ids follow first use, and addEdge() drops the duplicates a
 * filter collision lets through; frames still open when the trace ends
 * are closed in thread-id order. The result does not depend on `jobs`.
 */

#ifndef WEBSLICE_GRAPH_CFG_HH
#define WEBSLICE_GRAPH_CFG_HH

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace graph {

/** Dense node index within one function's CFG. */
using NodeId = int32_t;
constexpr NodeId kNoNode = -1;

/** One function's control flow graph at instruction (pc) granularity. */
struct Cfg
{
    /** Conventional node indices. */
    static constexpr NodeId kEntry = 0;
    static constexpr NodeId kExit = 1;

    trace::FuncId func = trace::kNoFunc;

    /** Node -> pc; entry/exit map to kNoPc. */
    std::vector<trace::Pc> nodePc;

    /** pc -> node. */
    std::unordered_map<trace::Pc, NodeId> pcNode;

    std::vector<std::vector<NodeId>> succs;
    std::vector<std::vector<NodeId>> preds;

    /** Nodes whose pc carried a Branch record at least once. */
    std::vector<bool> isBranch;

    /** Get or create the node for a pc. */
    NodeId nodeFor(trace::Pc pc);

    /** Existing node for a pc, or kNoNode. */
    NodeId findNode(trace::Pc pc) const;

    /** Add edge a -> b if not already present. */
    void addEdge(NodeId a, NodeId b);

    size_t nodeCount() const { return nodePc.size(); }
};

/** The full set of per-function CFGs plus per-record attribution. */
struct CfgSet
{
    /**
     * Feed-level totals, defined purely in terms of the record stream.
     * The verification layer's graph linter recomputes each from the
     * raw trace and diffs — a mismatch means the builder dropped or
     * duplicated work.
     */
    struct Stats
    {
        /** Non-pseudo records fed (each drives one CFG transition). */
        uint64_t transitionsObserved = 0;
        /** Call pushes plus synthetic-toplevel frame creations. */
        uint64_t framesOpened = 0;
        /** Ret records that popped a matching frame. */
        uint64_t framesClosed = 0;
        /** Frames still open when finish() closed them out. */
        uint64_t framesOpenAtEnd = 0;
    };

    Stats stats;

    /** CFGs keyed by function id (including synthetic toplevels). */
    std::unordered_map<trace::FuncId, Cfg> byFunc;

    /**
     * Enclosing function of each trace record (parallel to the record
     * array). Pseudo-records inherit their syscall's function.
     */
    std::vector<trace::FuncId> funcOf;

    /** Names of synthetic toplevel functions, keyed by their ids. */
    std::unordered_map<trace::FuncId, std::string> syntheticNames;

    /** First id used for synthetic functions. */
    trace::FuncId firstSynthetic = trace::kNoFunc;

    /** Readable name for any function id this set knows about. */
    std::string functionName(trace::FuncId id,
                             const trace::SymbolTable &symtab) const;

    /**
     * Function ids in a stable order: sorted by the function's entry pc
     * (the first real pc its CFG observed; synthetic toplevels sort by
     * their first executed pc), ties broken by id. byFunc is an
     * unordered_map, so any pass whose output depends on function
     * iteration order (the static fixpoints, --dump-pdg) must walk this
     * instead to be deterministic across runs and library versions.
     */
    std::vector<trace::FuncId> functionsByEntryPc() const;

    /** Entry pc used by functionsByEntryPc() for one function. */
    trace::Pc entryPcOf(trace::FuncId id) const;
};

/**
 * Build per-function CFGs from an in-memory dynamic trace (the forward
 * pass).
 *
 * @param records  the dynamic trace
 * @param symtab   symbol table mapping call targets to functions
 * @param jobs     threads for the per-function replay (the feed itself is
 *                 one loop); <= 0 means "all hardware threads", and larger
 *                 values are capped there. Output is identical for every
 *                 value.
 */
CfgSet buildCfgs(std::span<const trace::Record> records,
                 const trace::SymbolTable &symtab, int jobs = 1);

/**
 * Forward pass over a trace file, streamed in blocks: peak memory is the
 * CFGs plus one per-record function id, not the records themselves.
 * Same builder and output as buildCfgs().
 */
CfgSet buildCfgsFromFile(const std::string &path,
                         const trace::SymbolTable &symtab, int jobs = 1);

} // namespace graph
} // namespace webslice

#endif // WEBSLICE_GRAPH_CFG_HH
