/**
 * @file
 * Per-function slice attribution: for every traced function, how many of
 * its dynamic instructions joined the slice. This is the function-level
 * "distribution of instructions of the slice" output the paper's profiler
 * design (Section III) lists, and the main debugging lens on dependence
 * chains.
 */

#ifndef WEBSLICE_ANALYSIS_FUNCTION_STATS_HH
#define WEBSLICE_ANALYSIS_FUNCTION_STATS_HH

#include <span>
#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace analysis {

/** Instruction totals for one function. */
struct FunctionSliceStats
{
    trace::FuncId func = trace::kNoFunc;
    std::string name;
    uint64_t totalInstructions = 0;
    uint64_t sliceInstructions = 0;

    double
    slicePercent() const
    {
        if (totalInstructions == 0)
            return 0.0;
        return 100.0 * static_cast<double>(sliceInstructions) /
               static_cast<double>(totalInstructions);
    }
};

/**
 * Tally per-function totals, sorted by total instructions descending;
 * rows with equal totals sort by name. Pseudo-records are skipped.
 *
 * Function ids with the same qualified name (e.g. per-tag mutex
 * instances) are merged into one row, whose `func` is the id of the
 * earliest record among the merged ids. Records without a function
 * (kNoFunc) form an `<unknown:…>` row like any other id.
 *
 * One pass counts per id in a dense array; names are resolved once per
 * id afterwards, not once per record.
 */
std::vector<FunctionSliceStats>
computeFunctionStats(std::span<const trace::Record> records,
                     std::span<const uint8_t> in_slice,
                     const graph::CfgSet &cfgs,
                     const trace::SymbolTable &symtab);

} // namespace analysis
} // namespace webslice

#endif // WEBSLICE_ANALYSIS_FUNCTION_STATS_HH
