/**
 * @file
 * Regression locks on the paper's qualitative findings, on scaled-down
 * versions of the real benchmark specs (fast enough for ctest). These are
 * the claims the reproduction stands on; if a substrate change breaks an
 * ordering, this suite — not a bench rerun — should catch it.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "slicer/slicer.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace {

/** Shrink a paper spec's content so the test runs in well under a
 *  second while keeping its structural knobs. */
workloads::SiteSpec
shrink(workloads::SiteSpec spec)
{
    spec.js.targetBytes = std::min<uint64_t>(spec.js.targetBytes, 20000);
    spec.css.targetBytes =
        std::min<uint64_t>(spec.css.targetBytes, 7000);
    spec.page.sections = std::min(spec.page.sections, 3);
    spec.page.itemsPerSection = std::min(spec.page.itemsPerSection, 3);
    spec.imageBytes = 512;
    return spec;
}

struct ShapeRun
{
    workloads::RunResult run;
    analysis::SliceBreakdown stats;
    slicer::SliceResult slice;

    explicit ShapeRun(const workloads::SiteSpec &spec)
        : run(scenario::runSite(spec))
    {
        const auto cfgs = graph::buildCfgs(run.records(),
                                           run.machine->symtab());
        const auto deps = graph::buildControlDeps(cfgs);
        slicer::SlicerOptions options;
        if (spec.actions.empty())
            options.endIndex = run.loadCompleteIndex;
        slice = slicer::computeSlice(run.records(), cfgs, deps,
                                     run.machine->pixelCriteria(),
                                     options);
        stats = analysis::computeThreadStats(
            run.records(), slice.inSlice, run.threadNames(),
            options.endIndex);
    }

    double main() const { return stats.perThread[0].slicePercent(); }
    double compositor() const
    {
        return stats.perThread[1].slicePercent();
    }

    double
    rasterAverage() const
    {
        double sum = 0;
        int count = 0;
        for (size_t t = 2; t < stats.perThread.size(); ++t) {
            if (stats.perThread[t].name.rfind("CompositorTile", 0) != 0)
                continue;
            sum += stats.perThread[t].slicePercent();
            ++count;
        }
        return count ? sum / count : 0.0;
    }
};

TEST(PaperShapes, SubstantialFractionOfWorkIsUnnecessary)
{
    // The paper's headline: a large share of executed instructions never
    // reaches the pixels.
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    EXPECT_GT(amazon.slice.slicePercent(), 25.0);
    EXPECT_LT(amazon.slice.slicePercent(), 75.0);
}

TEST(PaperShapes, MainThreadOutslicesTheCompositor)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    EXPECT_GT(amazon.main(), amazon.compositor());
}

TEST(PaperShapes, MobileRasterizersAreFarBelowDesktop)
{
    ShapeRun desktop(shrink(workloads::amazonDesktopSpec()));
    ShapeRun mobile(shrink(workloads::amazonMobileSpec()));
    EXPECT_LT(mobile.rasterAverage(), desktop.rasterAverage());
    EXPECT_LT(mobile.rasterAverage(), 30.0);
}

TEST(PaperShapes, JavaScriptDominatesLoadTimeWaste)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    const auto cfgs = graph::buildCfgs(amazon.run.records(),
                                       amazon.run.machine->symtab());
    const auto dist = analysis::categorizeUnnecessary(
        amazon.run.records(), amazon.slice.inSlice, cfgs,
        amazon.run.machine->symtab(),
        analysis::Categorizer::chromiumDefault(),
        amazon.run.loadCompleteIndex);

    const double js = dist.sharePercent("JavaScript");
    for (const auto &category : analysis::Categorizer::reportOrder()) {
        if (category == "JavaScript")
            continue;
        EXPECT_GE(js, dist.sharePercent(category)) << category;
    }
}

TEST(PaperShapes, UnusedBytesStayInThePaperBand)
{
    // Table I: 40-60% of JS+CSS bytes unused after load.
    for (const auto &spec : workloads::paperBenchmarks()) {
        auto small = shrink(spec);
        small.actions.clear();
        small.lazyJsBytes = 0;
        small.sessionMs = 400;
        const auto run = scenario::runSite(small);
        const double unused =
            100.0 * static_cast<double>(run.unusedBytes()) /
            static_cast<double>(run.totalBytes());
        EXPECT_GT(unused, 35.0) << spec.name;
        EXPECT_LT(unused, 65.0) << spec.name;
    }
}

TEST(PaperShapes, BrowsingLowersTheUnusedShare)
{
    auto load_spec = shrink(workloads::withoutBrowseSession(
        workloads::bingSpec()));
    auto browse_spec = shrink(workloads::bingSpec());
    const auto load_run = scenario::runSite(load_spec);
    const auto browse_run = scenario::runSite(browse_spec);
    const double load_unused =
        static_cast<double>(load_run.unusedBytes()) /
        static_cast<double>(load_run.totalBytes());
    const double browse_unused =
        static_cast<double>(browse_run.unusedBytes()) /
        static_cast<double>(browse_run.totalBytes());
    EXPECT_LT(browse_unused, load_unused);
}

TEST(PaperShapes, SyscallAndPixelCriteriaAgree)
{
    ShapeRun amazon(shrink(workloads::amazonDesktopSpec()));
    const auto cfgs = graph::buildCfgs(amazon.run.records(),
                                       amazon.run.machine->symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    slicer::SlicerOptions options;
    options.mode = slicer::CriteriaMode::Syscalls;
    options.endIndex = amazon.run.loadCompleteIndex;
    const auto sys = slicer::computeSlice(
        amazon.run.records(), cfgs, deps,
        amazon.run.machine->pixelCriteria(), options);
    EXPECT_NEAR(sys.slicePercent(), amazon.slice.slicePercent(), 6.0);
}

// ---- per-function attribution against a name-keyed oracle --------------

/**
 * The reference tally: resolve every record's function name and count
 * into a map keyed by it. computeFunctionStats must produce the same
 * rows; this version leaves the order of equal totals unspecified.
 */
std::vector<analysis::FunctionSliceStats>
referenceFunctionStats(std::span<const trace::Record> records,
                       std::span<const uint8_t> in_slice,
                       const graph::CfgSet &cfgs,
                       const trace::SymbolTable &symtab)
{
    std::unordered_map<std::string, analysis::FunctionSliceStats> by_name;
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].isPseudo())
            continue;
        const trace::FuncId func = cfgs.funcOf[i];
        const std::string name = cfgs.functionName(func, symtab);
        auto &stats = by_name[name];
        if (stats.totalInstructions == 0) {
            stats.func = func;
            stats.name = name;
        }
        ++stats.totalInstructions;
        stats.sliceInstructions += in_slice[i] ? 1 : 0;
    }
    std::vector<analysis::FunctionSliceStats> out;
    for (auto &kv : by_name)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.totalInstructions > b.totalInstructions;
              });
    return out;
}

/** Same rows as the reference, ordered by total, then name. */
void
expectSameRows(const std::vector<analysis::FunctionSliceStats> &got,
               const std::vector<analysis::FunctionSliceStats> &want)
{
    ASSERT_EQ(got.size(), want.size());
    std::map<std::string, const analysis::FunctionSliceStats *> by_name;
    for (const auto &row : want)
        by_name[row.name] = &row;
    for (const auto &row : got) {
        const auto it = by_name.find(row.name);
        ASSERT_NE(it, by_name.end()) << row.name;
        EXPECT_EQ(row.func, it->second->func) << row.name;
        EXPECT_EQ(row.totalInstructions, it->second->totalInstructions)
            << row.name;
        EXPECT_EQ(row.sliceInstructions, it->second->sliceInstructions)
            << row.name;
    }
    for (size_t i = 1; i < got.size(); ++i) {
        const auto &a = got[i - 1];
        const auto &b = got[i];
        EXPECT_TRUE(a.totalInstructions > b.totalInstructions ||
                    (a.totalInstructions == b.totalInstructions &&
                     a.name < b.name))
            << "rows " << i - 1 << " and " << i << ": " << a.name << ", "
            << b.name;
    }
}

TEST(FunctionStatsOracle, DenseTallyMatchesNameKeyedReference)
{
    size_t merged_ids = 0;
    for (const int workers : {0, 2}) {
        for (const uint64_t seed : {3, 11}) {
            scenario::Knobs knobs;
            knobs.domDepth = scenario::Level::Lo;
            knobs.cssVolume = scenario::Level::Lo;
            knobs.jsHotness = scenario::Level::Lo;
            knobs.images = scenario::Level::Lo;
            knobs.workers = workers;
            const auto run =
                scenario::runScenario(scenario::generateScenario(seed, knobs));
            const auto &symtab = run.machine->symtab();
            const auto cfgs = graph::buildCfgs(run.records(), symtab);
            const auto deps = graph::buildControlDeps(cfgs);
            const auto slice = slicer::computeSlice(
                run.records(), cfgs, deps, run.machine->pixelCriteria());
            const std::span<const trace::Record> records = run.records();
            const std::span<const uint8_t> verdicts = slice.inSlice;

            for (const size_t window : {records.size(), records.size() / 2}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " workers " +
                             std::to_string(workers) + " window " +
                             std::to_string(window));
                const auto got = analysis::computeFunctionStats(
                    records.first(window), verdicts.first(window), cfgs,
                    symtab);
                expectSameRows(got, referenceFunctionStats(
                                        records.first(window),
                                        verdicts.first(window), cfgs,
                                        symtab));
                std::set<trace::FuncId> ids;
                for (size_t i = 0; i < window; ++i) {
                    if (!records[i].isPseudo())
                        ids.insert(cfgs.funcOf[i]);
                }
                merged_ids += ids.size() - got.size();
            }
        }
    }
    // Some ids share a name, so the merge path ran.
    EXPECT_GT(merged_ids, 0u);
}

TEST(FunctionStatsOracle, EqualTotalsSortByNameAndMergedRowsKeepEarliestId)
{
    trace::SymbolTable symtab;
    const auto fetch_a = symtab.addFunction(0x100, "net::fetch");
    const auto draw = symtab.addFunction(0x200, "cc::draw");
    const auto fetch_b = symtab.addFunction(0x300, "net::fetch");
    const auto tick = symtab.addFunction(0x400, "base::tick");
    const auto run = symtab.addFunction(0x500, "v8::run");

    graph::CfgSet cfgs;
    std::vector<trace::Record> records;
    std::vector<uint8_t> verdicts;
    const auto add = [&](trace::FuncId func, uint8_t verdict,
                         trace::RecordKind kind = trace::RecordKind::Alu) {
        trace::Record rec;
        rec.kind = kind;
        records.push_back(rec);
        cfgs.funcOf.push_back(func);
        verdicts.push_back(verdict);
    };
    add(run, 0);
    add(tick, 0);
    add(fetch_b, 1); // the later id's record comes first
    add(draw, 0, trace::RecordKind::SyscallRead); // pseudo: skipped
    add(draw, 0);
    add(fetch_a, 1);
    add(run, 1);
    add(draw, 0);
    add(trace::kNoFunc, 0);
    add(tick, 0);
    add(trace::kNoFunc, 1);
    add(run, 0);

    const auto got =
        analysis::computeFunctionStats(records, verdicts, cfgs, symtab);
    expectSameRows(got,
                   referenceFunctionStats(records, verdicts, cfgs, symtab));

    struct Row
    {
        std::string name;
        trace::FuncId func;
        uint64_t total;
        uint64_t slice;
    };
    const Row want[] = {
        {"v8::run", run, 3, 1},
        {"<unknown:4294967295>", trace::kNoFunc, 2, 1},
        {"base::tick", tick, 2, 0},
        {"cc::draw", draw, 2, 0},
        {"net::fetch", fetch_b, 2, 2},
    };
    ASSERT_EQ(got.size(), std::size(want));
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name) << i;
        EXPECT_EQ(got[i].func, want[i].func) << i;
        EXPECT_EQ(got[i].totalInstructions, want[i].total) << i;
        EXPECT_EQ(got[i].sliceInstructions, want[i].slice) << i;
    }
}

} // namespace
} // namespace webslice
