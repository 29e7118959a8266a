/**
 * @file
 * Ablation bench (DESIGN.md extension): what each ingredient of the
 * slicing algorithm contributes, measured on the Amazon desktop
 * benchmark.
 *
 *  - full: data deps (registers + memory) + control deps (the paper's
 *    algorithm);
 *  - no-control-deps: drop the pending-branch mechanism — branches and
 *    the code computing their conditions leave the slice;
 *  - memory-only: drop register liveness — approximates slices by
 *    address liveness alone (shows why the paper tracks the CPU context
 *    per thread).
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
    bench::printHeader(
        "ablation_slicing: contribution of control deps and register "
        "liveness");

    const auto profiled = bench::profileScenario(
        scenario::builtinScenario("amazon-desktop"));

    slicer::SlicerOptions no_control =
        bench::windowedOptions(profiled.run);
    no_control.includeControlDeps = false;
    const auto no_control_slice =
        bench::resliceWith(profiled, no_control);

    slicer::SlicerOptions memory_only =
        bench::windowedOptions(profiled.run);
    memory_only.includeRegisterDeps = false;
    const auto memory_only_slice =
        bench::resliceWith(profiled, memory_only);

    TextTable table;
    table.setHeader({"Variant", "Slice", "Delta vs full",
                     "Peak pending branches"});
    auto row = [&](const char *name, const slicer::SliceResult &result) {
        table.addRow({name, format("%.1f%%", result.slicePercent()),
                      format("%+.1f", result.slicePercent() -
                                          profiled.slice.slicePercent()),
                      withCommas(result.peakPendingBranches)});
    };
    row("full (paper algorithm)", profiled.slice);
    row("no control dependences", no_control_slice);
    row("memory-only liveness", memory_only_slice);
    table.render(std::cout);

    std::printf("\nReading: dropping control dependences undercounts the "
                "slice (branch chains\nvanish); memory-only liveness "
                "distorts it in both directions (register-carried\nflow "
                "is lost, address-liveness admits false positives). The "
                "full algorithm is\nwhat the paper runs.\n");
    return 0;
}
