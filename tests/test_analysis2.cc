/**
 * @file
 * Tests for the newer analysis pieces: per-function slice attribution
 * (merging, ordering), windowed categorization, the static-vs-dynamic
 * contrast, and the progress series against hand-computed references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/progress.hh"
#include "analysis/report.hh"
#include "graph/cfg.hh"
#include "sim/machine.hh"
#include "staticdep/slice.hh"

namespace webslice {
namespace analysis {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

struct TwoFunctionTrace
{
    Machine machine;
    graph::CfgSet cfgs;
    std::vector<uint8_t> verdicts;

    TwoFunctionTrace()
    {
        const auto tid = machine.addThread("main");
        const auto hot = machine.registerFunction("v8::hot");
        const auto cold = machine.registerFunction("debug::cold");
        Ctx ctx(machine, tid);
        {
            TracedScope scope(ctx, hot);
            for (int i = 0; i < 6; ++i) {
                Value v = ctx.imm(i);
                (void)v;
            }
        }
        {
            TracedScope scope(ctx, cold);
            Value v = ctx.imm(9);
            (void)v;
        }
        {
            // Second instance of the same name merges into one row.
            TracedScope scope(ctx, hot);
            Value v = ctx.imm(1);
            (void)v;
        }
        cfgs = graph::buildCfgs(machine.records(), machine.symtab());
        verdicts.assign(machine.records().size(), 0);
        // Mark the first three imm records of `hot` as in-slice.
        int marked = 0;
        for (size_t i = 0; i < machine.records().size() && marked < 3;
             ++i) {
            if (cfgs.funcOf[i] == hot &&
                machine.records()[i].kind ==
                    trace::RecordKind::LoadImm) {
                verdicts[i] = 1;
                ++marked;
            }
        }
    }
};

TEST(FunctionStats, MergesByNameAndSortsByVolume)
{
    TwoFunctionTrace trace;
    const auto stats = computeFunctionStats(
        trace.machine.records(), trace.verdicts, trace.cfgs,
        trace.machine.symtab());

    ASSERT_GE(stats.size(), 2u);
    EXPECT_EQ(stats[0].name, "v8::hot"); // most instructions first
    // hot: 2 calls + 2 rets + 7 imms = 7 imms + 2 rets attributed to it.
    EXPECT_GT(stats[0].totalInstructions,
              stats[1].totalInstructions);
    EXPECT_EQ(stats[0].sliceInstructions, 3u);
    for (size_t i = 1; i < stats.size(); ++i) {
        EXPECT_LE(stats[i].totalInstructions,
                  stats[i - 1].totalInstructions);
    }
}

TEST(FunctionStats, PercentAgainstOwnTotal)
{
    TwoFunctionTrace trace;
    const auto stats = computeFunctionStats(
        trace.machine.records(), trace.verdicts, trace.cfgs,
        trace.machine.symtab());
    for (const auto &row : stats) {
        EXPECT_GE(row.slicePercent(), 0.0);
        EXPECT_LE(row.slicePercent(), 100.0);
    }
}

TEST(Categorize, WindowLimitsTheExamination)
{
    TwoFunctionTrace trace;
    const auto categorizer = Categorizer::chromiumDefault();

    const auto full = categorizeUnnecessary(
        trace.machine.records(), trace.verdicts, trace.cfgs,
        trace.machine.symtab(), categorizer);
    const auto windowed = categorizeUnnecessary(
        trace.machine.records(), trace.verdicts, trace.cfgs,
        trace.machine.symtab(), categorizer, /*end_index=*/3);

    EXPECT_LT(windowed.totalUnnecessary, full.totalUnnecessary);
}

/**
 * TwoFunctionTrace against a hand-built static slice. The fixture's
 * fourteen records are
 *
 *   0 Call(top)  1-6 Imm(hot)  7 Ret(hot)  8 Call(top)  9 Imm(cold)
 *   10 Ret(cold) 11 Call(top)  12 Imm(hot) 13 Ret(hot)
 *
 * where records 1-6 share one site and 7 and 13 share another. The
 * static slice reaches hot's loop site by data, hot's return site and the
 * first call site by control, and nothing else. The dynamic slice keeps
 * the fixture's three imms, plus hot's first return (a necessary control
 * site) and record 12 (necessary, but outside the static slice: a
 * containment violation).
 */
struct ContrastFixture
{
    TwoFunctionTrace trace;
    staticdep::StaticSliceResult staticSlice;
    std::vector<uint8_t> verdicts;

    ContrastFixture()
    {
        const auto &records = trace.machine.records();
        const auto site = [&](size_t i) {
            return staticdep::StaticSliceResult::key(trace.cfgs.funcOf[i],
                                                     records[i].pc);
        };
        staticSlice.byFuncPc[site(1)] = staticdep::kReachData;
        staticSlice.byFuncPc[site(7)] =
            staticdep::kReachData | staticdep::kReachControl;
        staticSlice.byFuncPc[site(0)] = staticdep::kReachControl;
        verdicts = trace.verdicts;
        verdicts[7] = 1;
        verdicts[12] = 1;
    }

    ContrastBreakdown
    contrast(size_t end_index = SIZE_MAX) const
    {
        return contrastSlices(trace.machine.records(), verdicts,
                              staticSlice, trace.cfgs,
                              trace.machine.symtab(),
                              Categorizer::chromiumDefault(), end_index);
    }
};

TEST(Contrast, FixtureHasTheExpectedLayout)
{
    const ContrastFixture fx;
    const auto &records = fx.trace.machine.records();
    const auto &funcOf = fx.trace.cfgs.funcOf;
    ASSERT_EQ(records.size(), 14u);
    for (size_t i = 1; i <= 6; ++i) {
        EXPECT_EQ(records[i].pc, records[1].pc);
        EXPECT_EQ(funcOf[i], funcOf[1]);
    }
    EXPECT_EQ(records[13].pc, records[7].pc);
    EXPECT_EQ(funcOf[13], funcOf[7]);
    EXPECT_EQ(funcOf[12], funcOf[1]);
    for (size_t i : {0, 7, 8, 10, 11, 13})
        EXPECT_TRUE(records[i].isControl()) << i;
    for (size_t i : {1, 9, 12})
        EXPECT_FALSE(records[i].isControl()) << i;
    EXPECT_EQ(fx.trace.cfgs.functionName(funcOf[9],
                                         fx.trace.machine.symtab()),
              "debug::cold");
    EXPECT_EQ(std::count(fx.verdicts.begin(), fx.verdicts.end(), 1), 5);
}

TEST(Contrast, BinsEveryRecordAgainstBothSlices)
{
    const auto c = ContrastFixture().contrast();
    EXPECT_EQ(c.analyzed, 14u);

    // In-slice: imms 1-3 (data), ret 7 (control), imm 12 (violation).
    EXPECT_EQ(c.necessary, 5u);
    EXPECT_EQ(c.necessaryDataOnly, 3u);
    EXPECT_EQ(c.necessaryViaControl, 1u);
    EXPECT_EQ(c.containmentViolations, 1u);

    // Static only: imms 4-6 (data), call 0 and ret 13 (control).
    EXPECT_EQ(c.dynamicOnly, 5u);
    EXPECT_EQ(c.dynamicOnlyDataOnly, 3u);
    EXPECT_EQ(c.dynamicOnlyViaControl, 2u);

    // Outside both: calls 8 and 11, ret 10 (control), imm 9 (data).
    EXPECT_EQ(c.staticallyRemovable, 4u);
    EXPECT_EQ(c.removableControlKind, 3u);
    EXPECT_EQ(c.removableDataKind, 1u);

    ASSERT_EQ(c.categories.size(), 3u);
    EXPECT_EQ(c.categories.at("").removable, 2u); // calls 8, 11
    EXPECT_EQ(c.categories.at("").dynamicOnly, 1u); // call 0
    EXPECT_EQ(c.categories.at("JavaScript").removable, 0u);
    EXPECT_EQ(c.categories.at("JavaScript").dynamicOnly, 4u);
    EXPECT_EQ(c.categories.at("Debugging").removable, 2u);
    EXPECT_EQ(c.categories.at("Debugging").dynamicOnly, 0u);
}

TEST(Contrast, EndIndexCutsTheWindow)
{
    // Records 0-7: hot's first call only.
    const auto c = ContrastFixture().contrast(/*end_index=*/8);
    EXPECT_EQ(c.analyzed, 8u);
    EXPECT_EQ(c.necessary, 4u);
    EXPECT_EQ(c.necessaryDataOnly, 3u);
    EXPECT_EQ(c.necessaryViaControl, 1u);
    EXPECT_EQ(c.containmentViolations, 0u);
    EXPECT_EQ(c.dynamicOnly, 4u);
    EXPECT_EQ(c.dynamicOnlyDataOnly, 3u);
    EXPECT_EQ(c.dynamicOnlyViaControl, 1u);
    EXPECT_EQ(c.staticallyRemovable, 0u);
    EXPECT_EQ(c.removableControlKind, 0u);
    EXPECT_EQ(c.removableDataKind, 0u);

    ASSERT_EQ(c.categories.size(), 2u);
    EXPECT_EQ(c.categories.at("").removable, 0u);
    EXPECT_EQ(c.categories.at("").dynamicOnly, 1u);
    EXPECT_EQ(c.categories.at("JavaScript").removable, 0u);
    EXPECT_EQ(c.categories.at("JavaScript").dynamicOnly, 3u);
    EXPECT_EQ(c.categories.count("Debugging"), 0u);
}

TEST(Progress, MatchesHandComputedCumulative)
{
    std::vector<trace::Record> records(6);
    std::vector<uint8_t> verdicts = {1, 0, 0, 1, 1, 0};
    const auto series = computeBackwardProgress(records, verdicts, 6);

    // Backwards: analyzed=1 -> 0/1; 2 -> 1/2; 3 -> 2/3; 4 -> 2/4;
    // 5 -> 2/5; 6 -> 3/6.
    ASSERT_EQ(series.size(), 6u);
    EXPECT_DOUBLE_EQ(series[0].slicePercent, 0.0);
    EXPECT_DOUBLE_EQ(series[1].slicePercent, 50.0);
    EXPECT_NEAR(series[2].slicePercent, 66.67, 0.01);
    EXPECT_DOUBLE_EQ(series[3].slicePercent, 50.0);
    EXPECT_DOUBLE_EQ(series[4].slicePercent, 40.0);
    EXPECT_DOUBLE_EQ(series[5].slicePercent, 50.0);
}

TEST(Progress, StrideCoversWholeTrace)
{
    std::vector<trace::Record> records(1000);
    std::vector<uint8_t> verdicts(1000, 0);
    for (size_t i = 0; i < 1000; i += 3)
        verdicts[i] = 1;
    const auto series = computeBackwardProgress(records, verdicts, 10);
    ASSERT_FALSE(series.empty());
    EXPECT_EQ(series.back().analyzed, 1000u);
    EXPECT_NEAR(series.back().slicePercent, 33.4, 0.1);
}

TEST(Report, RendersAllSections)
{
    TwoFunctionTrace trace;
    slicer::SliceResult slice;
    slice.inSlice = trace.verdicts;
    slice.sliceInstructions = 3;
    slice.instructionsAnalyzed = trace.machine.instructionCount();

    const std::string names[] = {"CrRendererMain"};
    ReportOptions options;
    options.threadNames = names;
    options.topFunctions = 5;

    std::ostringstream os;
    renderReport(os, trace.machine.records(), slice, trace.cfgs,
                 trace.machine.symtab(), options);
    const std::string text = os.str();
    EXPECT_NE(text.find("pixel slice:"), std::string::npos);
    EXPECT_NE(text.find("CrRendererMain"), std::string::npos);
    EXPECT_NE(text.find("categorizable"), std::string::npos);
    EXPECT_NE(text.find("v8::hot"), std::string::npos);
}

TEST(Report, TopFunctionsSectionCanBeDisabled)
{
    TwoFunctionTrace trace;
    slicer::SliceResult slice;
    slice.inSlice = trace.verdicts;
    slice.instructionsAnalyzed = trace.machine.instructionCount();

    ReportOptions options;
    options.topFunctions = 0;
    std::ostringstream os;
    renderReport(os, trace.machine.records(), slice, trace.cfgs,
                 trace.machine.symtab(), options);
    EXPECT_EQ(os.str().find("hottest functions"), std::string::npos);
}

} // namespace
} // namespace analysis
} // namespace webslice
