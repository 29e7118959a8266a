/**
 * @file
 * Diagnostic bench: function-level slice attribution (the profiler's
 * function-level output listed in the paper's Section III). Prints the
 * hottest functions of each benchmark with their share of the pixel
 * slice, which makes the dependence structure auditable: executed JS and
 * the raster/layout path should be largely in-slice, dead JS libraries,
 * debug tracing, and compositor bookkeeping largely out.
 */
#include <cstdio>

#include "analysis/function_stats.hh"
#include "bench/bench_util.hh"
#include "support/strings.hh"

using namespace webslice;

int
main()
{
    bench::printHeader("function_hotlist: per-function slice attribution");

    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        const size_t window = bench::analysisEnd(profiled.run);
        const auto stats = analysis::computeFunctionStats(
            {profiled.records().data(), window},
            {profiled.slice.inSlice.data(), window}, profiled.cfgs,
            profiled.run.machine->symtab());
        std::printf("--- %s (control-dep pairs: %zu) ---\n",
                    spec.name.c_str(), profiled.deps.pairCount());
        std::printf("%-52s %12s %8s\n", "function", "instr", "slice%");
        for (size_t i = 0; i < stats.size() && i < 20; ++i) {
            std::printf("%-52s %12s %7.1f%%\n", stats[i].name.c_str(),
                        withCommas(stats[i].totalInstructions).c_str(),
                        stats[i].slicePercent());
        }
        std::printf("\n");
    }
    return 0;
}
