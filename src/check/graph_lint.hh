/**
 * @file
 * Graph-invariant linter over the forward-pass artifacts.
 *
 * Three layers of checks, each independent of the code it audits:
 *
 *  1. Structural well-formedness of every Cfg: exactly one virtual
 *     entry/exit, consistent node arrays, a pc<->node bijection,
 *     mirrored succ/pred edge lists, and full reachability (entry
 *     reaches every node, every node reaches exit).
 *  2. Dynamic coverage: an independent re-derivation of the CFGs from
 *     the raw record stream (a deliberately naive reimplementation of
 *     the Call/Ret frame-matching semantics) diffed edge-by-edge
 *     against the builder's output, including per-record attribution,
 *     synthetic names, and the builder's frame/transition totals.
 *  3. Analysis consistency: postdominators recomputed with a naive
 *     O(n^2) bitset dataflow reference and diffed against postdom.cc's
 *     Cooper-Harvey-Kennedy result, and the ControlDepMap diffed in
 *     both directions against a Ferrante-Ottenstein-Warren walk over
 *     the reference postdominator tree.
 */

#ifndef WEBSLICE_CHECK_GRAPH_LINT_HH
#define WEBSLICE_CHECK_GRAPH_LINT_HH

#include <cstdint>
#include <span>

#include "check/findings.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace check {

struct GraphLintOptions
{
    /** Keep at most this many finding messages. */
    size_t maxFindings = 24;

    /**
     * CFGs with more nodes than this skip the O(n^2) postdominator
     * reference and the CDG diff (their pairs still get the cheap
     * membership checks). The browser workloads top out far below this.
     */
    size_t postdomNodeLimit = 4096;
};

struct GraphLintResult
{
    Findings findings;

    uint64_t cfgsChecked = 0;
    uint64_t nodesChecked = 0;
    uint64_t edgesChecked = 0;
    uint64_t transitionsReplayed = 0;
    uint64_t postdomNodesDiffed = 0;
    uint64_t depPairsChecked = 0;
    uint64_t postdomSkippedCfgs = 0;

    bool ok() const { return findings.ok(); }
};

/**
 * Lint the forward-pass artifacts against the raw trace.
 *
 * @param records  the dynamic trace the CfgSet was built from
 * @param symtab   the symbol table used during construction
 * @param cfgs     the builder output under audit
 * @param deps     the control-dependence map under audit; nullptr skips
 *                 the CDG checks
 */
GraphLintResult lintGraphs(std::span<const trace::Record> records,
                           const trace::SymbolTable &symtab,
                           const graph::CfgSet &cfgs,
                           const graph::ControlDepMap *deps,
                           const GraphLintOptions &options = {});

} // namespace check
} // namespace webslice

#endif // WEBSLICE_CHECK_GRAPH_LINT_HH
