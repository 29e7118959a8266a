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
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/report.hh"
#include "analysis/thread_stats.hh"
#include "check/containment.hh"
#include "check/graph_lint.hh"
#include "check/soundness.hh"
#include "staticdep/slice.hh"
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
    "       [--metrics-json FILE] [--progress] [--verify] [--static-compare]\n"
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
    "                        stderr\n"
    "  --verify              run the graph linter and the slice soundness\n"
    "                        replay after slicing; exit 2 on violation\n"
    "  --static-compare      run the static dependence analysis over the\n"
    "                        same window, assert dynamic ⊆ static, and\n"
    "                        print the static-vs-dynamic contrast; exit 2\n"
    "                        on a containment violation\n";

void
phaseNotice(bool progress, const char *phase)
{
    if (progress)
        std::fprintf(stderr, "progress: phase %s\n", phase);
}

/** JSON object with the slice statistics (raw JSON for the report). */
std::string
sliceStatsJson(const slicer::SliceResult &slice, const trace::RunMeta &meta,
               const slicer::SlicerOptions &options)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"benchmark\": \"" << jsonEscape(meta.benchmark) << "\",\n"
        << "    \"criteria\": \""
        << (options.mode == slicer::CriteriaMode::PixelBuffer
                ? "pixel-buffer"
                : "syscalls")
        << "\",\n"
        << "    \"records_fed\": " << slice.recordsFed << ",\n"
        << "    \"instructions_analyzed\": " << slice.instructionsAnalyzed
        << ",\n"
        << "    \"slice_instructions\": " << slice.sliceInstructions
        << ",\n"
        << "    \"slice_percent\": " << std::fixed << std::setprecision(4)
        << slice.slicePercent() << ",\n"
        << "    \"criteria_bytes_seeded\": " << slice.criteriaBytesSeeded
        << ",\n"
        << "    \"peak_live_mem_bytes\": " << slice.peakLiveMemBytes
        << ",\n"
        << "    \"peak_pending_branches\": " << slice.peakPendingBranches
        << ",\n"
        << "    \"in_slice_fnv1a\": \"0x" << std::hex << std::setw(16)
        << std::setfill('0')
        << fnv1a64(slice.inSlice.data(), slice.inSlice.size()) << std::dec
        << std::setfill(' ') << "\"\n  }";
    return out.str();
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
    bool verify = false;
    bool static_compare = false;
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
        } else if (!std::strcmp(argv[a], "--verify")) {
            verify = true;
        } else if (!std::strcmp(argv[a], "--static-compare")) {
            static_compare = true;
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

    if (use_window && meta.loadOnly &&
        meta.loadCompleteIndex != SIZE_MAX) {
        options.endIndex = meta.loadCompleteIndex;
    }

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
        const size_t window = std::min(options.endIndex, records.size());

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

    // ---- static contrast (--static-compare) --------------------------------
    uint64_t containment_violations = 0;
    std::string static_compare_json;
    if (static_compare) {
        phaseNotice(progress, "static-compare");
        const trace::MappedTrace mapped(prefix + ".trc");
        const auto records = mapped.records();
        const size_t window = std::min(options.endIndex, records.size());

        staticdep::ModelOptions model_options;
        model_options.endIndex = window;
        const staticdep::StaticAnalysis static_analysis =
            staticdep::buildStaticAnalysis(records, cfgs, deps,
                                           model_options);
        staticdep::StaticSliceOptions static_options;
        static_options.mode = options.mode;
        static_options.includeControlDeps = options.includeControlDeps;
        static_options.includeRegisterDeps = options.includeRegisterDeps;
        const staticdep::StaticSliceResult static_slice =
            staticdep::computeStaticSlice(static_analysis, criteria,
                                          static_options);
        staticdep::publishStaticSliceMetrics(static_slice);

        check::ContainmentResult containment;
        {
            ScopedPhase phase("static-compare");
            containment = check::checkContainment(
                records, cfgs, symtab, slice, static_slice);
        }
        containment_violations = containment.findings.total;

        const auto contrast = analysis::contrastSlices(
            records, slice.inSlice, static_slice, cfgs, symtab,
            analysis::Categorizer::chromiumDefault(), window);
        std::ostringstream contrast_os;
        analysis::renderContrast(contrast_os, contrast);
        std::fprintf(report,
                     "\nstatic slice: %s of %s sites (%.1f%%), "
                     "containment %s\n%s",
                     withCommas(static_slice.includedSites).c_str(),
                     withCommas(static_slice.siteUniverse).c_str(),
                     static_slice.slicePercent(),
                     containment.ok()
                         ? "dynamic ⊆ static"
                         : format("%llu VIOLATIONS",
                                  static_cast<unsigned long long>(
                                      containment.violations))
                               .c_str(),
                     contrast_os.str().c_str());
        for (const auto &message : containment.findings.messages)
            if (!message.empty())
                std::fprintf(report, "    %s\n", message.c_str());

        std::ostringstream json;
        json << "{\n"
             << "    \"static_sites\": " << static_slice.siteUniverse
             << ",\n"
             << "    \"static_included\": " << static_slice.includedSites
             << ",\n"
             << "    \"static_data_edges\": " << static_slice.dataEdges
             << ",\n"
             << "    \"static_control_edges\": "
             << static_slice.controlEdges << ",\n"
             << "    \"containment_ok\": "
             << (containment.ok() ? "true" : "false") << ",\n"
             << "    \"containment_violations\": "
             << containment.violations << ",\n"
             << "    \"statically_removable\": "
             << contrast.staticallyRemovable << ",\n"
             << "    \"dynamic_only\": " << contrast.dynamicOnly
             << "\n  }";
        static_compare_json = json.str();
    }

    // ---- inline verification (--verify) ------------------------------------
    uint64_t verify_violations = 0;
    if (verify) {
        phaseNotice(progress, "verify");
        ScopedPhase phase("verify");
        const trace::MappedTrace mapped(prefix + ".trc");
        const auto records = mapped.records();

        const auto lint =
            check::lintGraphs(records, symtab, cfgs, &deps);
        check::SoundnessOptions sound_options;
        sound_options.mode = options.mode;
        sound_options.minimalityProbes = 2;
        const auto sound = check::checkSliceSoundness(
            records, slice, criteria, nullptr, sound_options);

        std::fprintf(report, "\nverify: graph lint %s, soundness %s "
                    "(%llu criterion bytes, %llu/%llu probes)\n",
                    lint.ok() ? "clean"
                              : format("%llu findings",
                                       static_cast<unsigned long long>(
                                           lint.findings.total))
                                    .c_str(),
                    sound.ok() ? "clean"
                               : format("%llu findings",
                                        static_cast<unsigned long long>(
                                            sound.findings.total))
                                     .c_str(),
                    static_cast<unsigned long long>(
                        sound.criteriaBytesChecked),
                    static_cast<unsigned long long>(
                        sound.probesConfirmed),
                    static_cast<unsigned long long>(sound.probesRun));
        for (const auto &message : lint.findings.messages)
            std::fprintf(report, "    %s\n", message.c_str());
        for (const auto &message : sound.findings.messages)
            std::fprintf(report, "    %s\n", message.c_str());
        verify_violations = lint.findings.total + sound.findings.total;
    }

    if (!metrics_json.empty()) {
        std::vector<std::pair<std::string, std::string>> extras = {
            {"slice", sliceStatsJson(slice, meta, options)},
            {"artifacts",
             trace::artifactDigestsJson(trace::digestArtifacts(prefix))},
        };
        if (!static_compare_json.empty())
            extras.emplace_back("static_compare", static_compare_json);
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-profile", extras);
        if (progress)
            std::fprintf(stderr, "progress: metrics report written to %s\n",
                         metrics_json.c_str());
    }
    if (verify_violations + containment_violations > 0) {
        std::fprintf(stderr, "webslice-profile: %llu verification "
                             "violations\n",
                     static_cast<unsigned long long>(
                         verify_violations + containment_violations));
        return 2;
    }
    return 0;
}
