/**
 * @file
 * Equivalence tests for the file-streaming profiler paths:
 * buildCfgsFromFile vs buildCfgs, computeSliceFromFile vs computeSlice,
 * and the MappedTrace view vs the loaded trace must agree bit-for-bit,
 * so huge traces can be profiled in bounded memory without changing any
 * result.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "reference_cfg_builder.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

/** A moderately interesting traced program saved to a file. */
struct SavedProgram
{
    Machine machine;
    std::string path;

    SavedProgram()
    {
        const auto t0 = machine.addThread("main");
        const auto t1 = machine.addThread("worker");
        const auto fn = machine.registerFunction("stream::work");
        const uint64_t shared = machine.alloc(64, "shared");
        const uint64_t pixels = machine.alloc(64, "pixels");
        const uint64_t junk = machine.alloc(64, "junk");

        machine.post(t0, [&, fn](Ctx &ctx) {
            TracedScope scope(ctx, fn);
            Value v = ctx.imm(41);
            Value i = ctx.imm(0);
            Value n = ctx.imm(5);
            while (true) {
                Value more = ctx.ltu(i, n);
                if (!ctx.branchIf(more))
                    break;
                v = ctx.add(v, i);
                i = ctx.addi(i, 1);
            }
            ctx.store(shared, 8, v);
            Value waste = ctx.muli(v, 99);
            ctx.store(junk, 8, waste);
        });
        machine.post(t1, [&, fn](Ctx &ctx) {
            TracedScope scope(ctx, fn);
            Value loaded = ctx.load(shared, 8);
            Value shifted = ctx.shli(loaded, 1);
            ctx.store(pixels, 8, shifted);
            const trace::MemRange ranges[] = {{pixels, 64}};
            ctx.marker(ranges);
        });
        machine.run();

        path = tempPath("streamed.trc");
        trace::saveTrace(path, machine.records());
    }

    ~SavedProgram() { std::remove(path.c_str()); }
};

TEST(Streaming, FileCfgsMatchInMemoryCfgs)
{
    SavedProgram program;
    const auto reference = graph::reference::referenceCfgs(
        program.machine.records(), program.machine.symtab());
    {
        SCOPED_TRACE("in memory");
        graph::reference::expectSameCfgSet(
            reference, graph::buildCfgs(program.machine.records(),
                                        program.machine.symtab()));
    }
    {
        SCOPED_TRACE("from file");
        graph::reference::expectSameCfgSet(
            reference, graph::buildCfgsFromFile(program.path,
                                                program.machine.symtab()));
    }
}

TEST(Streaming, FileSliceMatchesInMemorySlice)
{
    SavedProgram program;
    const auto cfgs = graph::buildCfgs(program.machine.records(),
                                       program.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);

    const auto memory_slice = slicer::computeSlice(
        program.machine.records(), cfgs, deps,
        program.machine.pixelCriteria());
    const auto file_slice = slicer::computeSliceFromFile(
        program.path, cfgs, deps, program.machine.pixelCriteria());

    EXPECT_EQ(memory_slice.inSlice, file_slice.inSlice);
    EXPECT_EQ(memory_slice.sliceInstructions,
              file_slice.sliceInstructions);
    EXPECT_EQ(memory_slice.instructionsAnalyzed,
              file_slice.instructionsAnalyzed);
}

TEST(Streaming, FileSliceHonorsOptions)
{
    SavedProgram program;
    const auto cfgs = graph::buildCfgs(program.machine.records(),
                                       program.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);

    slicer::SlicerOptions options;
    options.mode = slicer::CriteriaMode::Syscalls;
    options.endIndex = program.machine.records().size() / 2;
    const auto memory_slice = slicer::computeSlice(
        program.machine.records(), cfgs, deps,
        program.machine.pixelCriteria(), options);
    const auto file_slice = slicer::computeSliceFromFile(
        program.path, cfgs, deps, program.machine.pixelCriteria(),
        options);
    EXPECT_EQ(memory_slice.inSlice, file_slice.inSlice);
}

TEST(MappedTrace, RecordsMatchLoadTrace)
{
    SavedProgram program;
    const auto loaded = trace::loadTrace(program.path);
    trace::MappedTrace mapped(program.path);

    ASSERT_EQ(mapped.count(), loaded.size());
    const auto span = mapped.records();
    ASSERT_EQ(span.size(), loaded.size());
    for (size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(span[i].pc, loaded[i].pc);
        EXPECT_EQ(span[i].addr, loaded[i].addr);
        EXPECT_EQ(span[i].kind, loaded[i].kind);
        EXPECT_EQ(mapped[i].tid, loaded[i].tid);
    }
}

TEST(MappedTrace, DrivesTheFullPipeline)
{
    // The mmap view must be a drop-in replacement for the loaded vector:
    // same CFGs, same slice.
    SavedProgram program;
    trace::MappedTrace mapped(program.path);

    const auto cfgs = graph::buildCfgs(mapped.records(),
                                       program.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    const auto mapped_slice = slicer::computeSlice(
        mapped.records(), cfgs, deps, program.machine.pixelCriteria());

    const auto ref_cfgs = graph::buildCfgs(program.machine.records(),
                                           program.machine.symtab());
    const auto ref_deps = graph::buildControlDeps(ref_cfgs);
    const auto ref_slice = slicer::computeSlice(
        program.machine.records(), ref_cfgs, ref_deps,
        program.machine.pixelCriteria());

    EXPECT_EQ(cfgs.funcOf, ref_cfgs.funcOf);
    EXPECT_EQ(mapped_slice.inSlice, ref_slice.inSlice);
}

TEST(StreamingDeath, FeedMustDescend)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SavedProgram program;
    const auto cfgs = graph::buildCfgs(program.machine.records(),
                                       program.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    slicer::BackwardPass pass(cfgs, deps,
                              program.machine.pixelCriteria(), {},
                              program.machine.records().size());
    pass.feed(5, program.machine.records()[5]);
    EXPECT_DEATH(pass.feed(5, program.machine.records()[5]),
                 "descending");
}

TEST(StreamingDeath, AttributionLengthIsChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SavedProgram program;
    const auto cfgs = graph::buildCfgs(program.machine.records(),
                                       program.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    EXPECT_DEATH(slicer::BackwardPass(
                     cfgs, deps, program.machine.pixelCriteria(), {},
                     program.machine.records().size() + 1),
                 "attribution");
}

} // namespace
} // namespace webslice
