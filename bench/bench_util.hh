/**
 * @file
 * Shared infrastructure for the benchmark harnesses: run a scenario
 * (usually a built-in, scenario/builtins.hh), execute the profiler's
 * forward and backward passes, and cache the pieces every table/figure
 * needs.
 */

#ifndef WEBSLICE_BENCH_BENCH_UTIL_HH
#define WEBSLICE_BENCH_BENCH_UTIL_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/categorize.hh"
#include "analysis/progress.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/builtins.hh"
#include "scenario/run.hh"
#include "slicer/slicer.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace bench {

/** A fully profiled benchmark: the run plus both profiler passes. */
struct ProfiledRun
{
    workloads::RunResult run;
    graph::CfgSet cfgs;
    graph::ControlDepMap deps;
    slicer::SliceResult slice;

    double workloadSeconds = 0.0;
    double forwardSeconds = 0.0;
    double backwardSeconds = 0.0;

    const std::vector<trace::Record> &records() const
    {
        return run.records();
    }
};

/**
 * Run one scenario and both profiler passes (pixel criteria unless
 * overridden). When apply_window is true (default), load-only benchmarks
 * are sliced up to the load-complete point, mirroring the paper's trace
 * boundaries.
 */
ProfiledRun profileScenario(const scenario::Scenario &sc,
                            const slicer::SlicerOptions &options = {},
                            bool apply_window = true);

/**
 * Re-slice an already-profiled run with different options (reuses the
 * forward pass, as the paper notes the stored CDG allows).
 */
slicer::SliceResult resliceWith(const ProfiledRun &profiled,
                                const slicer::SlicerOptions &options);

/** Wall-clock helper. */
double nowSeconds();

/** Print a standard header for a bench binary. */
void printHeader(const std::string &title);

/**
 * Analysis window for a benchmark: load-only benchmarks (no scripted
 * actions) are analyzed up to the load-complete point, exactly like the
 * paper's traces that end when the page finishes loading; browse
 * benchmarks cover the whole session.
 */
size_t analysisEnd(const workloads::RunResult &run);

/** Slicer options with the benchmark's analysis window applied. */
slicer::SlicerOptions windowedOptions(const workloads::RunResult &run,
                                      slicer::SlicerOptions base = {});

/** The paper's reference numbers, for side-by-side printing. */
struct PaperTable2Row
{
    const char *benchmark;
    double all, main, compositor;
    double raster1, raster2, raster3; ///< -1 when the thread is absent
    const char *totalInstructions;
};

/** Table II reference rows in benchmark order. */
const std::vector<PaperTable2Row> &paperTable2();

} // namespace bench
} // namespace webslice

#endif // WEBSLICE_BENCH_BENCH_UTIL_HH
