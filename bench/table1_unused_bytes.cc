/**
 * @file
 * Table I — "Unused JavaScript and CSS code bytes."
 *
 * For Amazon, Bing, and Google Maps this runs a load-only session and a
 * load+browse session, then reports total vs unused JS+CSS bytes the way
 * the paper measured them with DevTools coverage: a script byte is used
 * once its function has executed, a stylesheet byte once its rule has
 * matched an element. Absolute byte counts are the paper's scaled by
 * kContentScale; the percentages are the reproduction target.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "support/strings.hh"
#include "support/table.hh"

using namespace webslice;

namespace {

struct PaperRow
{
    const char *unusedLoad;
    const char *totalLoad;
    double pctLoad;
    const char *unusedBrowse;
    const char *totalBrowse;
    double pctBrowse;
};

void
addRows(TextTable &table, const std::string &site, const char *phase,
        const workloads::RunResult &run, const char *paper_unused,
        const char *paper_total, double paper_pct)
{
    const double pct = 100.0 * static_cast<double>(run.unusedBytes()) /
                       static_cast<double>(run.totalBytes());
    table.addRow({site, phase, humanBytes(run.unusedBytes()),
                  humanBytes(run.totalBytes()), format("%.0f%%", pct),
                  format("%s / %s / %.0f%%", paper_unused, paper_total,
                         paper_pct)});
}

} // namespace

int
main()
{
    bench::printHeader("table1_unused_bytes: Table I reproduction");

    // Paper values: unused / total / percentage.
    const PaperRow paper_amazon = {"955 KB", "1.6 MB", 58,
                                   "882 KB", "1.6 MB", 54};
    const PaperRow paper_bing = {"103 KB", "199 KB", 52,
                                 "82.5 KB", "206 KB", 40};
    const PaperRow paper_maps = {"1.9 MB", "3.9 MB", 49,
                                 "2.0 MB", "4.6 MB", 43};

    TextTable table;
    table.setHeader({"Website", "Phase", "Unused bytes", "Total bytes",
                     "Pct", "Paper (unused/total/pct)"});

    // Built-in scenario ids: the load-only and the load+browse session.
    struct Case
    {
        const char *load_id;
        const char *browse_id;
        PaperRow paper;
        const char *site;
    };
    const std::vector<Case> cases = {
        {"amazon-desktop", "amazon-desktop-browse", paper_amazon,
         "Amazon"},
        {"bing-load", "bing", paper_bing, "Bing"},
        {"maps", "maps-browse", paper_maps, "Google Maps"},
    };

    for (const auto &test_case : cases) {
        const auto load_run = scenario::runScenario(
            scenario::builtinScenario(test_case.load_id));
        addRows(table, test_case.site, "Only Load", load_run,
                test_case.paper.unusedLoad, test_case.paper.totalLoad,
                test_case.paper.pctLoad);

        const auto browse_run = scenario::runScenario(
            scenario::builtinScenario(test_case.browse_id));
        addRows(table, test_case.site, "Load and Browse", browse_run,
                test_case.paper.unusedBrowse,
                test_case.paper.totalBrowse,
                test_case.paper.pctBrowse);
        table.addSeparator();
    }

    table.render(std::cout);
    std::printf("\nNotes: byte volumes are the paper's scaled by %.3f "
                "(benchmark-sized traces);\n"
                "percentages are scale-invariant. Browsing lowers the "
                "unused share everywhere,\n"
                "and Bing/Google Maps download additional script while "
                "being browsed — both\n"
                "paper findings.\n",
                workloads::kContentScale);
    return 0;
}
