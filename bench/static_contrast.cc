/**
 * @file
 * Static-vs-dynamic slice contrast across the paper's four sites: how
 * much of each trace the static over-approximation proves removable
 * without ever running the backward dynamic pass, and what the extra
 * cost of building the static model is next to the dynamic passes.
 *
 * For each benchmark: run the usual pixel-criteria profile, then build
 * the static model over the same window, walk the static PDG from the
 * same criteria, assert containment (dynamic ⊆ static), and bin every
 * executed instruction into necessary / dynamically-only unnecessary /
 * statically removable. Expected shape: the static slice covers nearly
 * the whole site universe (it is page-granular and flow-conservative),
 * so the statically-removable bin is small but nonzero — the dynamic
 * pass remains the workhorse, which is the point of reporting both.
 */

#include <cstdio>
#include <iostream>

#include "analysis/report.hh"
#include "bench/bench_util.hh"
#include "check/containment.hh"
#include "staticdep/slice.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

int
main()
{
    bench::printHeader(
        "static_contrast: static PDG build/walk cost and the "
        "Figure-5-style contrast bins");

    const auto categorizer = analysis::Categorizer::chromiumDefault();

    TextTable table;
    table.setHeader({"Benchmark", "sites", "static%", "build s", "walk s",
                     "dyn s", "contain", "necessary", "dyn-only",
                     "removable"});

    bool all_contained = true;
    for (const char *id : scenario::kPaperBuiltins) {
        const auto profiled =
            bench::profileScenario(scenario::builtinScenario(id));
        const auto &spec = profiled.run.spec;
        const size_t window = bench::analysisEnd(profiled.run);
        const auto &symtab = profiled.run.machine->symtab();

        double t0 = bench::nowSeconds();
        const auto analysis = staticdep::buildStaticAnalysis(
            profiled.records(), profiled.cfgs, profiled.deps,
            {.endIndex = window});
        double t1 = bench::nowSeconds();
        const auto static_slice = staticdep::computeStaticSlice(
            analysis, profiled.run.machine->pixelCriteria(), {});
        double t2 = bench::nowSeconds();

        const auto containment = check::checkContainment(
            profiled.records(), profiled.cfgs, symtab, profiled.slice,
            static_slice);
        all_contained = all_contained && containment.ok();

        const auto contrast = analysis::contrastSlices(
            profiled.records(), profiled.slice.inSlice, static_slice,
            profiled.cfgs, symtab, categorizer, window);

        table.addRow(
            {spec.name,
             format("%llu", (unsigned long long)static_slice.siteUniverse),
             format("%.1f%%", static_slice.slicePercent()),
             format("%.3f", t1 - t0), format("%.3f", t2 - t1),
             format("%.3f",
                    profiled.forwardSeconds + profiled.backwardSeconds),
             containment.ok() ? "ok" : "VIOLATED",
             format("%.1f%%",
                    contrast.percentOfAnalyzed(contrast.necessary)),
             format("%.1f%%",
                    contrast.percentOfAnalyzed(contrast.dynamicOnly)),
             format("%.1f%%", contrast.percentOfAnalyzed(
                                  contrast.staticallyRemovable))});
    }

    table.render(std::cout);

    std::printf("\nShape checks:\n");
    std::printf("  - containment holds on every benchmark (dynamic ⊆ "
                "static): %s\n",
                all_contained ? "yes" : "NO — soundness bug");
    std::printf("  - the static walk is cheap next to the dynamic "
                "passes; the model\n    build amortizes across criteria "
                "modes because the fixpoints are\n    criteria-"
                "independent\n");
    return all_contained ? 0 : 1;
}
