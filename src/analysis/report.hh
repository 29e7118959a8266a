/**
 * @file
 * One-call report rendering: the complete standard analysis (overall and
 * per-thread slice, waste categorization, hottest functions) written to a
 * stream. This is the library-level equivalent of what the
 * webslice-profile tool prints, so downstream embedders can produce the
 * paper's analysis with a single call.
 */

#ifndef WEBSLICE_ANALYSIS_REPORT_HH
#define WEBSLICE_ANALYSIS_REPORT_HH

#include <ostream>
#include <span>
#include <string>

#include "analysis/categorize.hh"
#include "graph/cfg.hh"
#include "slicer/slicer.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace analysis {

/** Report configuration. */
struct ReportOptions
{
    /** Only records before this index are reported. */
    size_t endIndex = SIZE_MAX;

    /** Rows in the hottest-functions section (0 disables it). */
    size_t topFunctions = 10;

    /** Thread names indexed by tid (missing entries print as tidN). */
    std::span<const std::string> threadNames;

    /** Namespace table for the categorization section. */
    const Categorizer *categorizer = nullptr; ///< nullptr = default

    /**
     * When set, append the static-vs-dynamic contrast section (the
     * Figure-5-style removable/dynamically-only breakdown with
     * data/control sub-counts). Must come from the same trace window,
     * criteria mode, and ablation knobs as `slice`.
     */
    const staticdep::StaticSliceResult *staticSlice = nullptr;
};

/**
 * Render just the static-vs-dynamic contrast section (shared between
 * renderReport and webslice-static).
 */
void renderContrast(std::ostream &os, const ContrastBreakdown &contrast);

/**
 * The `slice` section of the tools' JSON reports (webslice-profile and
 * webslice-static), as raw JSON: benchmark name, criteria mode, the
 * slice's counters, and `in_slice_fnv1a`, the FNV-1a-64 digest of the
 * per-record verdict bytes.
 */
std::string sliceStatsJson(const slicer::SliceResult &slice,
                           const std::string &benchmark,
                           slicer::CriteriaMode mode);

/**
 * Render the full analysis of one sliced trace to `os`: headline slice
 * percentage, per-thread breakdown, unnecessary-computation categories
 * with coverage, and the hottest functions with their slice shares.
 */
void renderReport(std::ostream &os,
                  std::span<const trace::Record> records,
                  const slicer::SliceResult &slice,
                  const graph::CfgSet &cfgs,
                  const trace::SymbolTable &symtab,
                  const ReportOptions &options = {});

} // namespace analysis
} // namespace webslice

#endif // WEBSLICE_ANALYSIS_REPORT_HH
