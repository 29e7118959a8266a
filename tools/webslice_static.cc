/**
 * @file
 * webslice-static: static dependence analysis over recorded artifacts.
 *
 *   webslice-static <prefix> [--criteria pixel|syscalls] [--no-window]
 *                   [--end N] [--jobs N] [--dump-pdg FILE]
 *                   [--metrics-json FILE] [--progress]
 *
 * Reads <prefix>.trc/.sym/.crit/.meta, builds the forward-pass CFGs and
 * control dependences, then runs BOTH slicers over the same analyzed
 * window: the dynamic backward slicer (bit-identical to webslice-profile
 * for the same flags) and the static PDG walk (staticdep/). The report
 * prints the static slice size, asserts the containment invariant
 * (dynamic ⊆ static; any violation exits 2 with the offending pc and
 * the dynamic edge chain the static analysis failed to cover), and
 * renders the Figure-5-style contrast that splits non-slice work into
 * statically-removable vs dynamically-only-unnecessary, each with
 * data/control sub-counts.
 *
 * --dump-pdg FILE writes the static PDG node table (deterministic
 * order, slice membership flagged) for offline inspection.
 * --metrics-json FILE writes the machine-readable run report (schema
 * webslice-static-v1): phase spans, pipeline counters, the dynamic
 * slice statistics (including the in_slice FNV-1a digest so CI can
 * assert bit-identity against webslice-profile), the static slice and
 * containment sections, and the contrast breakdown.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/categorize.hh"
#include "analysis/report.hh"
#include "check/containment.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "staticdep/slice.hh"
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
    "usage: %s <prefix> [--criteria pixel|syscalls] [--no-window]\n"
    "       [--end N] [--jobs N] [--dump-pdg FILE] [--metrics-json FILE]\n"
    "       [--progress]\n"
    "\n"
    "  --criteria MODE       slicing criteria: 'pixel' (pixel buffers,\n"
    "                        the default) or 'syscalls'\n"
    "  --no-window           ignore the metadata load-complete window\n"
    "  --end N               analyze only records [0, N) (after the\n"
    "                        window clamp)\n"
    "  --jobs N              threads for the per-function CFG replay and\n"
    "                        control dependences, capped at the hardware;\n"
    "                        0 = all cores (default 1)\n"
    "  --dump-pdg FILE       write the static PDG node table\n"
    "  --metrics-json FILE   write the machine-readable run report\n"
    "                        (schema webslice-static-v1; FILE of '-'\n"
    "                        writes it to stdout and moves the\n"
    "                        human-readable report to stderr)\n"
    "  --progress            phase notices on stderr\n";

void
phaseNotice(bool progress, const char *phase)
{
    if (progress)
        std::fprintf(stderr, "progress: phase %s\n", phase);
}

std::string
staticSliceJson(const staticdep::StaticSliceResult &s, uint64_t widened,
                uint64_t rd_fallbacks)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"site_universe\": " << s.siteUniverse << ",\n"
        << "    \"included_sites\": " << s.includedSites << ",\n"
        << "    \"slice_percent\": " << std::fixed << std::setprecision(4)
        << s.slicePercent() << ",\n"
        << "    \"data_edges\": " << s.dataEdges << ",\n"
        << "    \"control_edges\": " << s.controlEdges << ",\n"
        << "    \"call_edges\": " << s.callEdges << ",\n"
        << "    \"needed_pages\": " << s.neededPages << ",\n"
        << "    \"needed_widened\": " << (s.neededWidened ? "true" : "false")
        << ",\n"
        << "    \"widened_sites\": " << widened << ",\n"
        << "    \"rd_fallbacks\": " << rd_fallbacks << ",\n"
        << "    \"rd_queries\": " << s.rdQueries << ",\n"
        << "    \"entry_propagations\": " << s.entryPropagations << ",\n"
        << "    \"exit_queries\": " << s.exitQueries << "\n  }";
    return out.str();
}

std::string
containmentJson(const check::ContainmentResult &containment)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"ok\": " << (containment.ok() ? "true" : "false") << ",\n"
        << "    \"instructions_checked\": "
        << containment.instructionsChecked << ",\n"
        << "    \"in_slice_checked\": " << containment.inSliceChecked
        << ",\n"
        << "    \"violations\": " << containment.violations << ",\n"
        << "    \"findings\": " << check::findingsJson(containment.findings)
        << "\n  }";
    return out.str();
}

std::string
contrastJson(const analysis::ContrastBreakdown &c)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"analyzed\": " << c.analyzed << ",\n"
        << "    \"necessary\": " << c.necessary << ",\n"
        << "    \"necessary_data_only\": " << c.necessaryDataOnly << ",\n"
        << "    \"necessary_via_control\": " << c.necessaryViaControl
        << ",\n"
        << "    \"dynamic_only\": " << c.dynamicOnly << ",\n"
        << "    \"dynamic_only_data_only\": " << c.dynamicOnlyDataOnly
        << ",\n"
        << "    \"dynamic_only_via_control\": " << c.dynamicOnlyViaControl
        << ",\n"
        << "    \"statically_removable\": " << c.staticallyRemovable
        << ",\n"
        << "    \"removable_data_kind\": " << c.removableDataKind << ",\n"
        << "    \"removable_control_kind\": " << c.removableControlKind
        << ",\n"
        << "    \"containment_violations\": " << c.containmentViolations
        << "\n  }";
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
    size_t end_cap = SIZE_MAX;
    std::string dump_pdg;
    std::string metrics_json;
    for (int a = 2; a < argc; ++a) {
        const auto need_value = [&](const char *flag) -> const char * {
            fatal_if(a + 1 >= argc, flag, " requires a value");
            return argv[++a];
        };
        if (!std::strcmp(argv[a], "--criteria")) {
            const char *mode = need_value("--criteria");
            if (!std::strcmp(mode, "pixel")) {
                options.mode = slicer::CriteriaMode::PixelBuffer;
            } else if (!std::strcmp(mode, "syscalls")) {
                options.mode = slicer::CriteriaMode::Syscalls;
            } else {
                std::fprintf(stderr, "%s: --criteria must be 'pixel' or "
                                     "'syscalls', got '%s'\n",
                             argv[0], mode);
                return 1;
            }
        } else if (!std::strcmp(argv[a], "--no-window")) {
            use_window = false;
        } else if (!std::strcmp(argv[a], "--end")) {
            end_cap = static_cast<size_t>(
                parseCount("--end", need_value("--end"), SIZE_MAX));
        } else if (!std::strcmp(argv[a], "--jobs")) {
            options.jobs = static_cast<int>(parseCount(
                "--jobs", need_value("--jobs"), 1u << 16));
        } else if (!std::strcmp(argv[a], "--dump-pdg")) {
            dump_pdg = need_value("--dump-pdg");
        } else if (!std::strcmp(argv[a], "--metrics-json")) {
            metrics_json = need_value("--metrics-json");
        } else if (!std::strcmp(argv[a], "--progress")) {
            progress = true;
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

    // ---- forward pass ------------------------------------------------------
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
        meta.windowEnd(cfgs.funcOf.size(), use_window, end_cap);

    // ---- dynamic backward pass ---------------------------------------------
    slicer::SliceResult slice;
    {
        phaseNotice(progress, "backward");
        ScopedPhase phase("backward");
        slice = slicer::computeSliceFromFile(prefix + ".trc", cfgs, deps,
                                             criteria, options);
    }

    FILE *report = metrics_json == "-" ? stderr : stdout;
    std::fprintf(report, "%s: %s\n", prefix.c_str(),
                 meta.benchmark.empty() ? "(no metadata)"
                                        : meta.benchmark.c_str());
    std::fprintf(report,
                 "criteria: %s, dynamic slice %s of %s instructions "
                 "(%.1f%%)\n",
                 options.mode == slicer::CriteriaMode::PixelBuffer
                     ? "pixel buffers"
                     : "system calls",
                 withCommas(slice.sliceInstructions).c_str(),
                 withCommas(slice.instructionsAnalyzed).c_str(),
                 slice.slicePercent());

    // ---- static analysis + walk --------------------------------------------
    const trace::MappedTrace mapped(prefix + ".trc");
    const auto records = mapped.records();
    const size_t window = options.endIndex;

    staticdep::StaticAnalysis static_analysis;
    {
        phaseNotice(progress, "static-analysis");
        staticdep::ModelOptions model_options;
        model_options.endIndex = window;
        static_analysis = staticdep::buildStaticAnalysis(
            records, cfgs, deps, model_options);
    }
    staticdep::StaticSliceResult static_slice;
    {
        phaseNotice(progress, "static-walk");
        ScopedPhase phase("static-walk");
        staticdep::StaticSliceOptions static_options;
        static_options.mode = options.mode;
        static_options.includeControlDeps = options.includeControlDeps;
        static_options.includeRegisterDeps = options.includeRegisterDeps;
        static_slice = staticdep::computeStaticSlice(static_analysis,
                                                     criteria,
                                                     static_options);
        staticdep::publishStaticSliceMetrics(static_slice);
    }
    std::fprintf(report,
                 "static slice: %s of %s sites (%.1f%%), edges: %s data, "
                 "%s control (%s call)\n",
                 withCommas(static_slice.includedSites).c_str(),
                 withCommas(static_slice.siteUniverse).c_str(),
                 static_slice.slicePercent(),
                 withCommas(static_slice.dataEdges).c_str(),
                 withCommas(static_slice.controlEdges).c_str(),
                 withCommas(static_slice.callEdges).c_str());

    // ---- containment invariant ---------------------------------------------
    check::ContainmentResult containment;
    {
        phaseNotice(progress, "containment");
        containment = check::checkContainment(records, cfgs, symtab, slice,
                                              static_slice);
    }
    std::fprintf(report, "containment: %s (%llu in-slice of %llu checked)\n",
                 containment.ok()
                     ? "dynamic ⊆ static"
                     : format("%llu VIOLATIONS",
                              static_cast<unsigned long long>(
                                  containment.violations))
                           .c_str(),
                 static_cast<unsigned long long>(
                     containment.inSliceChecked),
                 static_cast<unsigned long long>(
                     containment.instructionsChecked));
    for (const auto &message : containment.findings.messages)
        if (!message.empty())
            std::fprintf(report, "    %s\n", message.c_str());

    // ---- contrast report ---------------------------------------------------
    analysis::ContrastBreakdown contrast;
    {
        phaseNotice(progress, "contrast");
        ScopedPhase phase("contrast");
        contrast = analysis::contrastSlices(
            records, slice.inSlice, static_slice, cfgs, symtab,
            analysis::Categorizer::chromiumDefault(), window);
        std::ostringstream os;
        analysis::renderContrast(os, contrast);
        std::fprintf(report, "\n%s", os.str().c_str());
    }

    // ---- PDG dump ----------------------------------------------------------
    if (!dump_pdg.empty()) {
        phaseNotice(progress, "dump-pdg");
        std::ofstream os(dump_pdg);
        fatal_if(!os, "cannot open --dump-pdg file ", dump_pdg);
        staticdep::dumpPdg(os, static_analysis, symtab, &static_slice);
        fatal_if(!os.good(), "write failure on --dump-pdg file ",
                 dump_pdg);
        std::fprintf(report, "\nstatic PDG written to %s\n",
                     dump_pdg.c_str());
    }

    if (!metrics_json.empty()) {
        const std::vector<std::pair<std::string, std::string>> extras = {
            {"slice", analysis::sliceStatsJson(slice, meta.benchmark,
                                               options.mode)},
            {"static_slice",
             staticSliceJson(static_slice,
                             static_analysis.model.widenedSites,
                             static_analysis.rdFallbacks)},
            {"containment", containmentJson(containment)},
            {"contrast", contrastJson(contrast)},
            {"artifacts",
             trace::artifactDigestsJson(trace::digestArtifacts(prefix))},
        };
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-static", extras,
                           "webslice-static-v1");
    }

    if (!containment.ok()) {
        std::fprintf(stderr, "webslice-static: %llu containment "
                             "violations\n",
                     static_cast<unsigned long long>(
                         containment.violations));
        return 2;
    }
    return 0;
}
