/**
 * @file
 * What-if bench for the paper's headline opportunity: "deferring
 * processing of JavaScript codes to a time when they are really needed
 * could provide better performance."
 *
 * Runs each benchmark twice — once with the eager Chromium-v58-style
 * engine (every function compiled at script load) and once with lazy
 * compilation (functions compiled at first call; unused functions are
 * only pre-scanned) — and reports the instruction savings, total and on
 * the main thread.
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
        "whatif_lazy_js: the paper's deferred-JS opportunity, "
        "quantified");

    TextTable table;
    table.setHeader({"Benchmark", "Eager instr", "Lazy instr", "Saved",
                     "Main-thread saved", "Load ms eager", "Load ms "
                     "lazy"});

    for (const char *id : scenario::kPaperBuiltins) {
        const auto sc = scenario::builtinScenario(id);
        browser::JsEngineConfig eager;
        const auto eager_run = scenario::runScenario(sc, eager);

        browser::JsEngineConfig lazy;
        lazy.lazyCompile = true;
        const auto lazy_run = scenario::runScenario(sc, lazy);

        auto mainInstr = [](const workloads::RunResult &run) {
            uint64_t count = 0;
            const auto main_tid = run.tab->threads().main;
            for (const auto &rec : run.records()) {
                if (!rec.isPseudo() && rec.tid == main_tid)
                    ++count;
            }
            return count;
        };

        const uint64_t eager_total =
            eager_run.machine->instructionCount();
        const uint64_t lazy_total = lazy_run.machine->instructionCount();
        const uint64_t eager_main = mainInstr(eager_run);
        const uint64_t lazy_main = mainInstr(lazy_run);

        const double saved_total =
            100.0 * (static_cast<double>(eager_total) -
                     static_cast<double>(lazy_total)) /
            static_cast<double>(eager_total);
        const double saved_main =
            100.0 * (static_cast<double>(eager_main) -
                     static_cast<double>(lazy_main)) /
            static_cast<double>(eager_main);
        table.addRow({
            sc.name,
            withCommas(eager_total),
            withCommas(lazy_total),
            format("%.1f%%", saved_total),
            format("%.1f%%", saved_main),
            withCommas(eager_run.tab->loadCompleteMs()),
            withCommas(lazy_run.tab->loadCompleteMs()),
        });
    }

    table.render(std::cout);
    std::printf("\nReading: lazy compilation removes the "
                "parse-and-compile work of functions\nthat never run — "
                "the exact computations the pixel slice flags as "
                "unnecessary.\nSavings track each site's unused-JS share "
                "(Table I), and load time improves\naccordingly.\n");
    return 0;
}
