#include "analysis/report.hh"

#include <iomanip>
#include <sstream>

#include "analysis/function_stats.hh"
#include "analysis/thread_stats.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace webslice {
namespace analysis {

void
renderContrast(std::ostream &os, const ContrastBreakdown &contrast)
{
    os << format("static vs dynamic slicing (%s instructions):\n",
                 withCommas(contrast.analyzed).c_str());
    os << format(
        "  necessary (dynamic slice)     %12s  %5.1f%%  "
        "(data-only %s, via-control %s)\n",
        withCommas(contrast.necessary).c_str(),
        contrast.percentOfAnalyzed(contrast.necessary),
        withCommas(contrast.necessaryDataOnly).c_str(),
        withCommas(contrast.necessaryViaControl).c_str());
    os << format(
        "  dynamically-only unnecessary  %12s  %5.1f%%  "
        "(data-only %s, via-control %s)\n",
        withCommas(contrast.dynamicOnly).c_str(),
        contrast.percentOfAnalyzed(contrast.dynamicOnly),
        withCommas(contrast.dynamicOnlyDataOnly).c_str(),
        withCommas(contrast.dynamicOnlyViaControl).c_str());
    os << format(
        "  statically removable          %12s  %5.1f%%  "
        "(data %s, control transfers %s)\n",
        withCommas(contrast.staticallyRemovable).c_str(),
        contrast.percentOfAnalyzed(contrast.staticallyRemovable),
        withCommas(contrast.removableDataKind).c_str(),
        withCommas(contrast.removableControlKind).c_str());
    if (contrast.containmentViolations != 0)
        os << format("  CONTAINMENT VIOLATIONS        %12s\n",
                     withCommas(contrast.containmentViolations).c_str());

    bool header = false;
    for (const auto &[category, split] : contrast.categories) {
        if (category.empty())
            continue;
        if (split.removable + split.dynamicOnly == 0)
            continue;
        if (!header) {
            os << "  per category (removable / dynamic-only):\n";
            header = true;
        }
        os << format("    %-16s %12s / %s\n", category.c_str(),
                     withCommas(split.removable).c_str(),
                     withCommas(split.dynamicOnly).c_str());
    }
}

std::string
sliceStatsJson(const slicer::SliceResult &slice, const std::string &benchmark,
               slicer::CriteriaMode mode)
{
    std::ostringstream out;
    out << "{\n"
        << "    \"benchmark\": \"" << jsonEscape(benchmark) << "\",\n"
        << "    \"criteria\": \""
        << (mode == slicer::CriteriaMode::PixelBuffer ? "pixel-buffer"
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

void
renderReport(std::ostream &os, std::span<const trace::Record> records,
             const slicer::SliceResult &slice, const graph::CfgSet &cfgs,
             const trace::SymbolTable &symtab,
             const ReportOptions &options)
{
    const size_t window = std::min(options.endIndex, records.size());

    os << format("pixel slice: %s of %s instructions (%.1f%%)\n",
                 withCommas(slice.sliceInstructions).c_str(),
                 withCommas(slice.instructionsAnalyzed).c_str(),
                 slice.slicePercent());

    // ---- per thread --------------------------------------------------------
    const auto stats = computeThreadStats(records, slice.inSlice,
                                          options.threadNames, window);
    TextTable threads;
    threads.setHeader({"thread", "instructions", "slice"});
    for (const auto &thread : stats.perThread) {
        if (thread.totalInstructions == 0)
            continue;
        threads.addRow({thread.name.empty()
                            ? format("tid%u", thread.tid)
                            : thread.name,
                        withCommas(thread.totalInstructions),
                        format("%.1f%%", thread.slicePercent())});
    }
    os << '\n';
    threads.render(os);

    // ---- categorization -------------------------------------------------------
    const Categorizer default_categorizer =
        Categorizer::chromiumDefault();
    const Categorizer &categorizer =
        options.categorizer ? *options.categorizer : default_categorizer;
    const auto dist = categorizeUnnecessary(
        records, slice.inSlice, cfgs, symtab, categorizer, window);
    os << format("\nunnecessary computations (%.0f%% categorizable):\n",
                 dist.coveragePercent());
    for (const auto &category : Categorizer::reportOrder()) {
        const double share = dist.sharePercent(category);
        if (share >= 0.05)
            os << format("  %-16s %5.1f%%\n", category.c_str(), share);
    }

    // ---- static-vs-dynamic contrast ---------------------------------------------
    if (options.staticSlice) {
        const auto contrast =
            contrastSlices(records, slice.inSlice, *options.staticSlice,
                           cfgs, symtab, categorizer, window);
        os << '\n';
        renderContrast(os, contrast);
    }

    // ---- hottest functions ------------------------------------------------------
    if (options.topFunctions == 0)
        return;
    const auto functions = computeFunctionStats(
        {records.data(), window}, {slice.inSlice.data(), window}, cfgs,
        symtab);
    os << "\nhottest functions:\n";
    for (size_t i = 0;
         i < functions.size() && i < options.topFunctions; ++i) {
        os << format("  %-48s %10s instr  %5.1f%% in slice\n",
                     functions[i].name.c_str(),
                     withCommas(functions[i].totalInstructions).c_str(),
                     functions[i].slicePercent());
    }
}

} // namespace analysis
} // namespace webslice
