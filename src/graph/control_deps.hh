/**
 * @file
 * Control dependence graph (the profiler's forward pass, part 3).
 *
 * Following Ferrante/Ottenstein/Warren: a node t is control-dependent on a
 * branch a iff a has successors s1, s2 such that t postdominates s1 but not
 * s2 — equivalently, for every CFG edge (a, s) where s does not postdominate
 * a, every node on the postdominator-tree path from s up to (exclusive)
 * ipdom(a) is control-dependent on a.
 *
 * We record dependences only on nodes that executed a Branch record; the
 * paper's backward pass needs "which branches must join the slice when this
 * instruction does", and only branches have condition variables to make
 * live.
 *
 * The resulting map can be saved to disk and reused across backward passes
 * with different slicing criteria, as the paper notes.
 */

#ifndef WEBSLICE_GRAPH_CONTROL_DEPS_HH
#define WEBSLICE_GRAPH_CONTROL_DEPS_HH

#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/cfg.hh"
#include "support/flat_map.hh"

namespace webslice {
namespace graph {

/**
 * (function, pc) -> controlling branch pcs within that function.
 *
 * Queries go through a flat-hash index over a pooled pc array, built
 * lazily on the first depsOf() after a mutation. The backward pass
 * probes this map for every in-slice record — and most probes miss —
 * so the index is a single open-addressing lookup, not a node-based
 * unordered_map walk. Lazy sealing means the first depsOf() after an
 * add()/load() is not safe to race with other depsOf() calls; the
 * profiler's backward pass is single-threaded, which satisfies that.
 */
class ControlDepMap
{
  public:
    /** Branch pcs the instruction at (func, pc) is control-dependent on. */
    std::span<const trace::Pc> depsOf(trace::FuncId func,
                                      trace::Pc pc) const;

    /**
     * Force the lazy query index to be built now. depsOf() seals on
     * first use, which is not safe to race from several threads; any
     * caller that will query the map from worker threads (buildEpochPlan's
     * parallel transcode) must call this once beforehand from a single
     * thread.
     */
    void ensureSealed() const;

    /**
     * Sorted, deduplicated branch pcs that appear in at least one
     * dependence list. A Branch record whose pc is not in this set can
     * never satisfy a pending-branch entry — pending sets only ever
     * receive pcs from these lists — which is what lets the epoch-plan
     * transcoder drop such branches as state no-ops.
     */
    std::vector<trace::Pc> branchUniverse() const;

    /** Add one dependence (deduplicated). */
    void add(trace::FuncId func, trace::Pc pc, trace::Pc branch_pc);

    /** Total number of (instruction, branch) dependence pairs. */
    size_t pairCount() const;

    /**
     * Every (func, pc, branch pc) dependence pair, sorted. This is the
     * verification layer's iteration hook: the graph linter diffs the
     * map's full contents against an independently recomputed reference.
     */
    std::vector<std::tuple<trace::FuncId, trace::Pc, trace::Pc>>
    allPairs() const;

    /** Number of instructions with at least one dependence. */
    size_t nodeCount() const { return deps_.size(); }

    /** Persist to a text file so backward passes can reuse it. */
    void save(const std::string &path) const;

    /** Load a map previously written by save(); replaces contents. */
    void load(const std::string &path);

  private:
    static uint64_t
    key(trace::FuncId func, trace::Pc pc)
    {
        return (static_cast<uint64_t>(func) << 32) | pc;
    }

    /** Rebuild the flat query index from deps_. */
    void seal() const;

    std::unordered_map<uint64_t, std::vector<trace::Pc>> deps_;

    // Query-side index: key -> (offset << 20 | length) into pool_.
    mutable bool sealed_ = false;
    mutable FlatMap64 index_;
    mutable std::vector<trace::Pc> pool_;
};

/**
 * Compute control dependences for every CFG in the set.
 *
 * Functions are independent (postdominators and the FOW walk never cross
 * CFGs), so with jobs > 1 the per-function work runs on a thread pool
 * and the per-function results are merged in a deterministic order; the
 * map contents are identical to the serial computation. jobs <= 0 means
 * "all hardware threads".
 */
ControlDepMap buildControlDeps(const CfgSet &cfgs, int jobs = 1);

} // namespace graph
} // namespace webslice

#endif // WEBSLICE_GRAPH_CONTROL_DEPS_HH
