/**
 * @file
 * Table II — "Slicing statistics of pixel-based approach for all
 * instructions and important threads."
 *
 * For each of the paper's four benchmarks this runs the full pipeline
 * (site simulation → forward pass → pixel-criteria backward pass) and
 * prints the pixel-slice percentage and instruction totals for All /
 * Main / Compositor / Rasterizer threads, side by side with the paper's
 * numbers. Load-only benchmarks are analyzed up to the load-complete
 * point, matching the paper's trace boundaries.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

int
main()
{
    bench::printHeader("table2_slice_stats: Table II reproduction");

    TextTable table;
    table.setHeader({"Benchmark", "Thread", "Pixels slice", "Total instr",
                     "Paper slice", "Paper total"});

    double our_all_sum = 0.0;
    const auto &paper = bench::paperTable2();

    for (size_t b = 0; b < std::size(scenario::kPaperBuiltins); ++b) {
        const auto profiled = bench::profileScenario(
            scenario::builtinScenario(scenario::kPaperBuiltins[b]));
        const auto &spec = profiled.run.spec;
        const size_t window = bench::analysisEnd(profiled.run);
        const auto stats = analysis::computeThreadStats(
            profiled.records(), profiled.slice.inSlice,
            profiled.run.threadNames(), window);

        const auto &ref = paper[b];
        our_all_sum += stats.all.slicePercent();

        table.addRow({spec.name, "All",
                      format("%.0f%%", stats.all.slicePercent()),
                      humanMillions(stats.all.totalInstructions),
                      format("%.0f%%", ref.all),
                      ref.totalInstructions});

        auto addThread = [&](const char *label, size_t tid,
                             double paper_slice) {
            if (tid >= stats.perThread.size())
                return;
            const auto &t = stats.perThread[tid];
            table.addRow({"", label, format("%.0f%%", t.slicePercent()),
                          humanMillions(t.totalInstructions),
                          paper_slice < 0 ? "-"
                                          : format("%.0f%%", paper_slice),
                          ""});
        };
        addThread("Main", 0, ref.main);
        addThread("Compositor", 1, ref.compositor);
        addThread("Rasterizer 1", 2, ref.raster1);
        addThread("Rasterizer 2", 3, ref.raster2);
        if (spec.browser.rasterThreads >= 3)
            addThread("Rasterizer 3", 4, ref.raster3);
        table.addSeparator();
    }

    table.render(std::cout);

    std::printf("\nAverage pixel slice across the four benchmarks: "
                "%.1f%%  (paper: 45%%)\n",
                our_all_sum / 4.0);
    std::printf("Shape checks (paper's qualitative findings):\n");
    std::printf("  - main-thread slice is the highest and site-specific\n");
    std::printf("  - compositor slice is low and nearly constant across "
                "sites\n");
    std::printf("  - the emulated-mobile rasterizers have by far the "
                "lowest slice\n");
    return 0;
}
