#include "bench/bench_util.hh"

#include <chrono>
#include <cstdio>

namespace webslice {
namespace bench {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

ProfiledRun
profileScenario(const scenario::Scenario &sc,
                const slicer::SlicerOptions &options, bool apply_window)
{
    ProfiledRun out;

    double t0 = nowSeconds();
    out.run = scenario::runScenario(sc);
    double t1 = nowSeconds();
    out.cfgs = graph::buildCfgs(out.run.records(),
                                out.run.machine->symtab(), options.jobs);
    out.deps = graph::buildControlDeps(out.cfgs, options.jobs);
    double t2 = nowSeconds();
    slicer::SlicerOptions effective = options;
    if (apply_window)
        effective = windowedOptions(out.run, effective);
    out.slice = slicer::computeSlice(out.run.records(), out.cfgs,
                                     out.deps,
                                     out.run.machine->pixelCriteria(),
                                     effective);
    double t3 = nowSeconds();

    out.workloadSeconds = t1 - t0;
    out.forwardSeconds = t2 - t1;
    out.backwardSeconds = t3 - t2;
    return out;
}

slicer::SliceResult
resliceWith(const ProfiledRun &profiled,
            const slicer::SlicerOptions &options)
{
    return slicer::computeSlice(profiled.records(), profiled.cfgs,
                                profiled.deps,
                                profiled.run.machine->pixelCriteria(),
                                options);
}

size_t
analysisEnd(const workloads::RunResult &run)
{
    if (run.spec.actions.empty())
        return run.loadCompleteIndex;
    return run.records().size();
}

slicer::SlicerOptions
windowedOptions(const workloads::RunResult &run,
                slicer::SlicerOptions base)
{
    base.endIndex = analysisEnd(run);
    return base;
}

const std::vector<PaperTable2Row> &
paperTable2()
{
    static const std::vector<PaperTable2Row> rows = {
        {"Amazon (desktop view): Load", 46, 52, 34, 55, 60, 54,
         "6,217 M"},
        {"Amazon (mobile view): Load", 43, 59, 35, 14, 13, -1,
         "2,861 M"},
        {"Google Maps: Load", 47, 61, 35, 78, 74, -1, "4,238 M"},
        {"Bing: Load + Browse", 43, 44, 34, 71, 52, -1, "10,494 M"},
    };
    return rows;
}

void
printHeader(const std::string &title)
{
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduction of: Characterization of Unnecessary "
                "Computations in Web Applications\n");
    std::printf("(ISPASS 2019). Substrate: traced virtual machine + "
                "miniature browser; shapes, not\n");
    std::printf("absolute magnitudes, are the comparison target — see "
                "EXPERIMENTS.md.\n");
    std::printf("==========================================================="
                "=====================\n\n");
}

} // namespace bench
} // namespace webslice
