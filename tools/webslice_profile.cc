/**
 * @file
 * webslice-profile: the offline profiler over recorded artifacts.
 *
 *   webslice-profile <prefix> [--syscalls] [--no-window] [--top N]
 *                    [--jobs N] [--metrics-json FILE] [--progress]
 *
 * Reads <prefix>.trc/.sym/.crit/.meta (as written by webslice-record),
 * runs the forward pass streamed from the file, runs the backward pass
 * streamed back-to-front (peak memory stays O(live set) + one byte per
 * record), and prints per-thread statistics, the waste categorization,
 * and the hottest functions with their slice shares.
 *
 * --jobs N parallelizes the forward pass's per-function work (CFG node
 * and edge construction, postdominators, control dependences) over N
 * threads, capped at the hardware; 0 means all hardware threads. The
 * trace feed itself is one loop. Results are identical for any value.
 * The attribution arrays at the end use a zero-copy mmap view of the
 * trace instead of a second in-memory copy.
 *
 * --metrics-json FILE writes the machine-readable run report (schema
 * webslice-metrics-v1): phase spans with wall time and peak RSS,
 * pipeline counters and gauges, slice statistics, and size + FNV-1a-64
 * digests of the four input artifacts. --progress prints phase-start
 * notices and a heartbeat during the reverse walk (records done,
 * records/sec, ETA) to stderr.
 *
 * Unknown flags, missing flag values, and non-numeric --top/--jobs
 * arguments are rejected with a diagnostic and exit code 1.
 */

#include <cstdio>
#include <cstring>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/report.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "support/strings.hh"
#include "trace/artifacts.hh"
#include "trace/run_meta.hh"
#include "trace/trace_file.hh"

using namespace webslice;

namespace {

constexpr char kUsage[] =
    "usage: %s <prefix> [--syscalls] [--no-window] [--top N] [--jobs N]\n"
    "       [--metrics-json FILE] [--progress]\n"
    "\n"
    "  --syscalls            slice on syscall-read values instead of pixel\n"
    "                        buffers\n"
    "  --no-window           ignore the metadata load-complete window\n"
    "  --top N               show the N hottest functions (default 12)\n"
    "  --jobs N              threads for the per-function CFG replay and\n"
    "                        control dependences, capped at the hardware;\n"
    "                        0 = all cores (default 1)\n"
    "  --metrics-json FILE   write the machine-readable run report\n"
    "                        (FILE of '-' writes it to stdout and moves\n"
    "                        the human-readable report to stderr)\n"
    "  --progress            phase notices and a reverse-walk heartbeat on\n"
    "                        stderr\n";

void
phaseNotice(bool progress, const char *phase)
{
    if (progress)
        std::fprintf(stderr, "progress: phase %s\n", phase);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }
    const std::string prefix = argv[1];
    if (!prefix.empty() && prefix[0] == '-') {
        std::fprintf(stderr, "%s: first argument must be the artifact "
                             "prefix, got flag '%s'\n",
                     argv[0], prefix.c_str());
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }

    slicer::SlicerOptions options;
    bool use_window = true;
    bool progress = false;
    size_t top = 12;
    std::string metrics_json;
    for (int a = 2; a < argc; ++a) {
        const auto need_value = [&](const char *flag) -> const char * {
            fatal_if(a + 1 >= argc, flag, " requires a value");
            return argv[++a];
        };
        if (!std::strcmp(argv[a], "--syscalls")) {
            options.mode = slicer::CriteriaMode::Syscalls;
        } else if (!std::strcmp(argv[a], "--no-window")) {
            use_window = false;
        } else if (!std::strcmp(argv[a], "--top")) {
            top = static_cast<size_t>(
                parseCount("--top", need_value("--top"), SIZE_MAX));
        } else if (!std::strcmp(argv[a], "--jobs")) {
            options.jobs = static_cast<int>(parseCount(
                "--jobs", need_value("--jobs"), 1u << 16));
        } else if (!std::strcmp(argv[a], "--metrics-json")) {
            metrics_json = need_value("--metrics-json");
        } else if (!std::strcmp(argv[a], "--progress")) {
            progress = true;
            options.progressIntervalSeconds = 2.0;
        } else {
            std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0],
                         argv[a]);
            std::fprintf(stderr, kUsage, argv[0]);
            return 1;
        }
    }

    // ---- load artifacts ----------------------------------------------------
    trace::ArtifactSidecars sidecars;
    {
        phaseNotice(progress, "load");
        ScopedPhase phase("load");
        sidecars = trace::loadArtifactSidecars(prefix);
    }
    trace::SymbolTable &symtab = sidecars.symtab;
    trace::CriteriaSet &criteria = sidecars.criteria;
    trace::RunMeta &meta = sidecars.meta;

    // ---- forward pass (streamed) -------------------------------------------
    graph::CfgSet cfgs;
    {
        phaseNotice(progress, "forward");
        ScopedPhase phase("forward");
        cfgs = graph::buildCfgsFromFile(prefix + ".trc", symtab,
                                        options.jobs);
    }
    graph::ControlDepMap deps;
    {
        phaseNotice(progress, "postdom-cdg");
        ScopedPhase phase("postdom-cdg");
        deps = graph::buildControlDeps(cfgs, options.jobs);
    }

    options.endIndex =
        meta.windowEnd(cfgs.funcOf.size(), use_window, SIZE_MAX);

    // ---- backward pass (streamed) ------------------------------------------
    slicer::SliceResult slice;
    {
        phaseNotice(progress, "backward");
        ScopedPhase phase("backward");
        slice = slicer::computeSliceFromFile(prefix + ".trc", cfgs, deps,
                                             criteria, options);
    }

    // With --metrics-json - the machine-readable report owns stdout;
    // the human-readable report moves to stderr so the JSON stays clean.
    FILE *report = metrics_json == "-" ? stderr : stdout;

    std::fprintf(report, "%s: %s\n", prefix.c_str(),
                meta.benchmark.empty() ? "(no metadata)"
                                       : meta.benchmark.c_str());
    std::fprintf(report, "criteria: %s, slice %s of %s instructions (%.1f%%)\n\n",
                options.mode == slicer::CriteriaMode::PixelBuffer
                    ? "pixel buffers"
                    : "system calls",
                withCommas(slice.sliceInstructions).c_str(),
                withCommas(slice.instructionsAnalyzed).c_str(),
                slice.slicePercent());

    {
        phaseNotice(progress, "attribution");
        ScopedPhase phase("attribution");

        // The per-record arrays need the records once more for
        // attribution; the mmap view pages them in without a second
        // in-memory copy.
        const trace::MappedTrace mapped(prefix + ".trc");
        const auto records = mapped.records();
        const size_t window = options.endIndex;

        const auto stats = analysis::computeThreadStats(
            records, slice.inSlice, meta.threadNames, window);
        std::fprintf(report, "per thread:\n");
        for (const auto &thread : stats.perThread) {
            if (thread.totalInstructions == 0)
                continue;
            std::fprintf(report, "  %-26s %12s instr  %5.1f%% in slice\n",
                        thread.name.empty()
                            ? format("tid%u", thread.tid).c_str()
                            : thread.name.c_str(),
                        withCommas(thread.totalInstructions).c_str(),
                        thread.slicePercent());
        }

        const auto dist = analysis::categorizeUnnecessary(
            records, slice.inSlice, cfgs, symtab,
            analysis::Categorizer::chromiumDefault(), window);
        std::fprintf(report, "\nunnecessary-computation categories (%.0f%% "
                    "categorizable):\n",
                    dist.coveragePercent());
        for (const auto &category :
             analysis::Categorizer::reportOrder()) {
            const double share = dist.sharePercent(category);
            if (share >= 0.05)
                std::fprintf(report, "  %-16s %5.1f%%\n", category.c_str(), share);
        }

        const auto functions = analysis::computeFunctionStats(
            {records.data(), window}, {slice.inSlice.data(), window}, cfgs,
            symtab);
        std::fprintf(report, "\nhottest functions:\n");
        for (size_t i = 0; i < functions.size() && i < top; ++i) {
            std::fprintf(report, "  %-48s %10s instr  %5.1f%% in slice\n",
                        functions[i].name.c_str(),
                        withCommas(functions[i].totalInstructions).c_str(),
                        functions[i].slicePercent());
        }
    }

    if (!metrics_json.empty()) {
        const std::vector<std::pair<std::string, std::string>> extras = {
            {"slice", analysis::sliceStatsJson(slice, meta.benchmark,
                                               options.mode)},
            {"artifacts",
             trace::artifactDigestsJson(trace::digestArtifacts(prefix))},
        };
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-profile", extras);
        if (progress)
            std::fprintf(stderr, "progress: metrics report written to %s\n",
                         metrics_json.c_str());
    }
    return 0;
}
