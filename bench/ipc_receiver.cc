/**
 * @file
 * The paper's future-work probe: "the IPC category needs more inspection
 * because execution of instructions belonging to this category might
 * have useful effect on the browser's main process."
 *
 * Upper-bounds that usefulness from the tab side: an IPC-category
 * instruction can only matter to the receiver if it feeds the bytes that
 * actually leave through the channel's sendto. Those are exactly the
 * instructions the syscall-criteria slice admits — so the share of
 * IPC-category instructions inside the syscall slice bounds how much of
 * the category receiver-side analysis could ever reclaim.
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
        "ipc_receiver: bounding the receiver-side usefulness of the IPC "
        "category");

    TextTable table;
    table.setHeader({"Benchmark", "IPC instr", "in pixel slice",
                     "in syscall slice", "payload-bound"});

    const auto categorizer = analysis::Categorizer::chromiumDefault();
    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        slicer::SlicerOptions sys_options;
        sys_options.mode = slicer::CriteriaMode::Syscalls;
        sys_options = bench::windowedOptions(profiled.run, sys_options);
        const auto sys_slice = bench::resliceWith(profiled, sys_options);

        const size_t window = bench::analysisEnd(profiled.run);
        uint64_t ipc_total = 0, ipc_pixel = 0, ipc_syscall = 0;
        const auto &symtab = profiled.run.machine->symtab();
        for (size_t i = 0; i < window; ++i) {
            if (profiled.records()[i].isPseudo())
                continue;
            const auto func = profiled.cfgs.funcOf[i];
            const std::string name =
                profiled.cfgs.functionName(func, symtab);
            if (categorizer.categoryOf(name) != "IPC")
                continue;
            ++ipc_total;
            ipc_pixel += profiled.slice.inSlice[i] ? 1 : 0;
            ipc_syscall += sys_slice.inSlice[i] ? 1 : 0;
        }

        auto pct = [&](uint64_t n) {
            return ipc_total == 0
                       ? std::string("-")
                       : format("%.1f%%",
                                100.0 * static_cast<double>(n) /
                                    static_cast<double>(ipc_total));
        };
        table.addRow({spec.name, withCommas(ipc_total), pct(ipc_pixel),
                      pct(ipc_syscall), pct(ipc_syscall)});
    }

    table.render(std::cout);
    std::printf("\nReading: under pixel criteria the IPC category is "
                "(almost) entirely\nunnecessary, as the paper found. The "
                "syscall slice shows how much of it feeds\nbytes the "
                "browser process actually receives — the ceiling on what "
                "receiver-side\nanalysis (the paper's future work) could "
                "reclassify as useful; the rest is\nqueue/bookkeeping "
                "overhead that no receiver ever sees.\n");
    return 0;
}
