/**
 * @file
 * Section V-A text experiment: for Bing, slice the load-time prefix two
 * ways —
 *   (a) backward from the page-load-complete point (the paper: 49.8% of
 *       the 1.7 B load instructions), and
 *   (b) backward from the end of the full browsing session, then look at
 *       how many *load-time* instructions are in that slice (paper:
 *       50.6%).
 * The paper's conclusion: browsing the page makes only ~1% more of the
 * load-time work useful — almost everything unused at load stays unused.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "support/strings.hh"

using namespace webslice;

int
main()
{
    bench::printHeader(
        "text_bing_load_vs_full: Bing load-window slice, two criteria "
        "horizons");

    // Full-session slice (no window).
    const auto profiled = bench::profileScenario(
        scenario::builtinScenario("bing"), {}, /*apply_window=*/false);
    const size_t load_end = profiled.run.loadCompleteIndex;

    // (a) slice as if the trace ended at load complete.
    slicer::SlicerOptions load_options;
    load_options.endIndex = load_end;
    const auto load_slice = bench::resliceWith(profiled, load_options);

    // (b) the full-session slice, restricted to load-time instructions.
    uint64_t load_instr = 0, load_in_full_slice = 0;
    for (size_t i = 0; i < load_end; ++i) {
        if (profiled.records()[i].isPseudo())
            continue;
        ++load_instr;
        load_in_full_slice += profiled.slice.inSlice[i] ? 1 : 0;
    }
    const double full_pct = 100.0 * static_cast<double>(
        load_in_full_slice) / static_cast<double>(load_instr);

    std::printf("load window: %s instructions (of %s total)\n",
                withCommas(load_instr).c_str(),
                withCommas(profiled.slice.instructionsAnalyzed).c_str());
    std::printf("(a) slicing from load-complete:         %5.1f%%  "
                "(paper: 49.8%%)\n",
                load_slice.slicePercent());
    std::printf("(b) load-time share of the full slice:  %5.1f%%  "
                "(paper: 50.6%%)\n", full_pct);
    std::printf("difference (browsing made useful):      %+5.1f "
                "points  (paper: ~+0.8)\n",
                full_pct - load_slice.slicePercent());
    std::printf("\nConclusion check: browsing a page only makes a small "
                "extra share of the\nload-time instructions useful — "
                "load-time waste is real waste.\n");
    return 0;
}
