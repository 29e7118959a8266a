/**
 * @file
 * Diagnostic bench: per-benchmark run statistics.
 *
 * Not a paper table — this prints the raw volumes (instructions per
 * thread, resources, layers, tiles, frames, JS/CSS coverage, profiler
 * pass timings) that back every other bench, so regressions in the
 * substrate are visible at a glance.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

int
main()
{
    bench::printHeader("site_stats: benchmark volume diagnostics");

    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        const auto &run = profiled.run;
        const auto &machine = *run.machine;

        std::printf("--- %s ---\n", spec.name.c_str());
        std::printf("  instructions        %s\n",
                    withCommas(machine.instructionCount()).c_str());
        std::printf("  trace records       %s\n",
                    withCommas(machine.records().size()).c_str());
        std::printf("  load-complete index %s (%.0f%% of trace)\n",
                    withCommas(run.loadCompleteIndex).c_str(),
                    100.0 * static_cast<double>(run.loadCompleteIndex) /
                        static_cast<double>(machine.records().size()));
        std::printf("  virtual time        %s ms\n",
                    withCommas(machine.now() /
                               spec.browser.cyclesPerMs).c_str());

        const size_t window = bench::analysisEnd(run);
        const auto stats = analysis::computeThreadStats(
            machine.records(), profiled.slice.inSlice,
            run.threadNames(), window);
        for (const auto &thread : stats.perThread) {
            std::printf("  thread %-24s %12s instr   slice %5.1f%%\n",
                        thread.name.c_str(),
                        withCommas(thread.totalInstructions).c_str(),
                        thread.slicePercent());
        }
        std::printf("  overall slice       %.1f%%\n",
                    profiled.slice.slicePercent());
        std::printf("  markers             %s   criteria bytes %s\n",
                    withCommas(machine.pixelCriteria().markerCount())
                        .c_str(),
                    withCommas(profiled.slice.criteriaBytesSeeded)
                        .c_str());
        std::printf("  js bytes            %s total, %s used (%.0f%% "
                    "unused)\n",
                    withCommas(run.jsTotalBytes).c_str(),
                    withCommas(run.jsUsedBytes).c_str(),
                    100.0 * static_cast<double>(run.jsTotalBytes -
                                                run.jsUsedBytes) /
                        static_cast<double>(run.jsTotalBytes));
        std::printf("  css bytes           %s total, %s used (%.0f%% "
                    "unused)\n",
                    withCommas(run.cssTotalBytes).c_str(),
                    withCommas(run.cssUsedBytes).c_str(),
                    100.0 * static_cast<double>(run.cssTotalBytes -
                                                run.cssUsedBytes) /
                        static_cast<double>(run.cssTotalBytes));
        std::printf("  frames submitted    %llu\n",
                    static_cast<unsigned long long>(
                        run.tab->compositor().framesSubmitted()));
        std::printf("  tiles rastered      %llu  (cells %llu, clipped "
                    "items %llu)\n",
                    static_cast<unsigned long long>(
                        run.tab->compositor().rasterizer()
                            .tilesRastered()),
                    static_cast<unsigned long long>(
                        run.tab->compositor().rasterizer()
                            .cellsWritten()),
                    static_cast<unsigned long long>(
                        run.tab->compositor().rasterizer()
                            .itemsClipped()));
        std::printf("  vsync ticks         %llu\n",
                    static_cast<unsigned long long>(
                        run.tab->compositor().vsyncTicks()));
        std::printf("  functions (js)      %zu compiled, %zu executed\n",
                    run.tab->js().functionCount(),
                    run.tab->js().executedFunctionCount());
        std::printf("  timings             workload %.2fs  forward %.2fs "
                    " backward %.2fs\n",
                    profiled.workloadSeconds, profiled.forwardSeconds,
                    profiled.backwardSeconds);
        std::printf("  live-mem peak       %s bytes   pending-branch peak "
                    "%llu\n\n",
                    withCommas(profiled.slice.peakLiveMemBytes).c_str(),
                    static_cast<unsigned long long>(
                        profiled.slice.peakPendingBranches));
    }
    return 0;
}
