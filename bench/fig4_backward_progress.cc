/**
 * @file
 * Figure 4 — "Changes of slicing percentage over the backward pass."
 *
 * For each benchmark, prints two panels (all threads, main thread only):
 * the cumulative slice percentage as the backward pass advances from the
 * end of the trace (x = 0: page loaded / session done) toward its
 * beginning (URL entered). Expected shapes, per the paper: the
 * all-threads series is nearly flat at coarse scale; the main-thread
 * series swings more; Bing's main-thread panel shows jumps at the user
 * interactions and a rise near the far end where the load lives.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "support/strings.hh"

using namespace webslice;

namespace {

void
printPanel(const char *title,
           const std::vector<analysis::ProgressPoint> &series)
{
    std::printf("  %s\n", title);
    std::printf("  %14s  %6s  %s\n", "analyzed", "slice%", "");
    // Thin the series to ~24 printed rows.
    const size_t step = std::max<size_t>(1, series.size() / 24);
    for (size_t i = 0; i < series.size(); i += step) {
        const auto &point = series[i];
        std::string bar(static_cast<size_t>(point.slicePercent / 2.0),
                        '*');
        std::printf("  %14s  %5.1f%%  %s\n",
                    withCommas(point.analyzed).c_str(),
                    point.slicePercent, bar.c_str());
    }
    if (!series.empty()) {
        const auto &last = series.back();
        std::printf("  %14s  %5.1f%%  (full window)\n\n",
                    withCommas(last.analyzed).c_str(),
                    last.slicePercent);
    }
}

} // namespace

int
main()
{
    bench::printHeader(
        "fig4_backward_progress: Figure 4 reproduction (slice% over the "
        "backward pass)");

    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        const size_t window = bench::analysisEnd(profiled.run);

        // Restrict the series to the analysis window.
        const std::span<const trace::Record> records(
            profiled.records().data(), window);
        const std::span<const uint8_t> verdicts(
            profiled.slice.inSlice.data(), window);

        std::printf("--- %s ---\n", spec.name.c_str());
        printPanel("(all threads)",
                   analysis::computeBackwardProgress(records, verdicts,
                                                     120));
        printPanel("(main thread)",
                   analysis::computeBackwardProgress(
                       records, verdicts, 120,
                       profiled.run.tab->threads().main));
    }

    std::printf("Reading the panels: x advances backwards through the "
                "trace (top row = end of\nsession, bottom row = URL "
                "entered), matching the paper's x-axis.\n");
    return 0;
}
