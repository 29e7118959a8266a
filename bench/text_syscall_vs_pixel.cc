/**
 * @file
 * Section V text experiment: "slicing based on either pixels buffer or
 * system calls leads to almost the same slice."
 *
 * For each benchmark this computes both slices and reports their sizes
 * and overlap. The syscall-based criteria (all values handed to the
 * kernel: frame submissions, network sends, futex words) are broader by
 * construction — the check is that the extra instructions they admit
 * (IPC serialization, request building) stay a small share, so the two
 * approaches agree on what is unnecessary.
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
        "text_syscall_vs_pixel: pixel-buffer vs system-call slicing "
        "criteria");

    TextTable table;
    table.setHeader({"Benchmark", "Pixel slice", "Syscall slice",
                     "Pixel&Syscall", "Pixel-only", "Syscall-only"});

    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        slicer::SlicerOptions sys_options;
        sys_options.mode = slicer::CriteriaMode::Syscalls;
        sys_options = bench::windowedOptions(profiled.run, sys_options);
        const auto sys_slice = bench::resliceWith(profiled, sys_options);

        const size_t window = bench::analysisEnd(profiled.run);
        uint64_t instr = 0, both = 0, pixel_only = 0, sys_only = 0;
        for (size_t i = 0; i < window; ++i) {
            if (profiled.records()[i].isPseudo())
                continue;
            ++instr;
            const bool p = profiled.slice.inSlice[i];
            const bool s = sys_slice.inSlice[i];
            both += (p && s) ? 1 : 0;
            pixel_only += (p && !s) ? 1 : 0;
            sys_only += (!p && s) ? 1 : 0;
        }
        auto pct = [&](uint64_t n) {
            return format("%.1f%%", 100.0 * static_cast<double>(n) /
                                        static_cast<double>(instr));
        };
        table.addRow({spec.name, pct(both + pixel_only),
                      pct(both + sys_only), pct(both), pct(pixel_only),
                      pct(sys_only)});
    }

    table.render(std::cout);
    std::printf("\nShape check (paper): the two criteria produce almost "
                "the same slice — the\nsyscall slice adds only a small "
                "margin (network/IPC payload chains), and the\npixel "
                "slice is essentially contained in it.\n");
    return 0;
}
