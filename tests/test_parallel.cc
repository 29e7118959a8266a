/**
 * @file
 * Tests for the profiler's parallel plumbing: the thread pool itself,
 * and — more importantly — the guarantee that every parallel path
 * (per-function CFG replay, parallel control dependences) produces
 * output bit-identical to the serial baseline. Parallelism that changes
 * the slice is a correctness bug, not a performance feature.
 *
 * The forward pass is checked against the seed's CfgBuilder
 * (tests/reference_cfg_builder.hh), node numbering included. Thread
 * counts are capped at the hardware, so on a one-CPU host the jobs-2/4
 * cases replay serially; multicore runners exercise the pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "reference_cfg_builder.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "support/metrics.hh"
#include "support/thread_pool.hh"
#include "temp_dir.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, CoversTheWholeRangeExactlyOnce)
{
    ThreadPool pool(3);
    constexpr size_t kCount = 10000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(0, kCount, [&hits](size_t i) { hits[i]++; });
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroWorkersDegradesToSerial)
{
    ThreadPool pool(0);
    std::vector<int> order;
    pool.parallelFor(5, 10, [&order](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{5, 6, 7, 8, 9}));
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(7, 7, [&ran](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, BodyExceptionsPropagateToCaller)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a throwing loop and accept more work.
    std::atomic<int> count{0};
    pool.parallelFor(0, 10, [&count](size_t) { count++; });
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ResolveJobsSemantics)
{
    // Positive values are capped at the hardware (when it is known), so
    // a large --jobs never builds a pool of that many threads. Only
    // resolveJobs() runs here: no thread is started.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned cap = hw ? hw : ~0u;
    EXPECT_EQ(ThreadPool::resolveJobs(1), 1u);
    EXPECT_EQ(ThreadPool::resolveJobs(5), std::min(5u, cap));
    EXPECT_LE(ThreadPool::resolveJobs(1 << 16), cap);
    EXPECT_GE(ThreadPool::resolveJobs(1 << 16), 1u);
    EXPECT_GE(ThreadPool::resolveJobs(0), 1u);  // "all hardware threads"
    EXPECT_GE(ThreadPool::resolveJobs(-3), 1u);
}

// ---- TaskGroup / post / drain ----------------------------------------------

TEST(TaskGroup, PostedTasksAllRunAndWaitBlocks)
{
    ThreadPool pool(3);
    TaskGroup group;
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.post(group, [&ran] { ran++; });
    group.wait();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(group.outstanding(), 0u);
    // The group is reusable after a wait.
    pool.post(group, [&ran] { ran++; });
    group.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(TaskGroup, ZeroWorkerPoolRunsTasksInline)
{
    ThreadPool pool(0);
    TaskGroup group;
    int ran = 0;
    pool.post(group, [&ran] { ran++; });
    // With no workers the task already ran inside post().
    EXPECT_EQ(ran, 1);
    group.wait();
}

TEST(TaskGroup, DrainExecutesQueuedTasksOnCaller)
{
    // A pool whose single worker is blocked: drain() must let the
    // calling thread pick up the queued tasks itself instead of
    // deadlocking behind the stuck worker.
    ThreadPool pool(1);
    TaskGroup group;
    std::atomic<bool> release{false};
    pool.post(group, [&release] {
        while (!release.load())
            std::this_thread::yield();
    });
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i)
        pool.post(group, [&ran] { ran++; });
    std::thread unblocker([&release] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        release.store(true);
    });
    pool.drain(group);
    unblocker.join();
    EXPECT_EQ(ran.load(), 50);
    EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroup, FirstTaskExceptionIsRethrownFromWait)
{
    ThreadPool pool(2);
    TaskGroup group;
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.post(group, [&ran, i] {
            ++ran;
            if (i == 7)
                throw std::runtime_error("task boom");
        });
    }
    EXPECT_THROW(pool.drain(group), std::runtime_error);
    // Every task still ran; one exception does not cancel siblings.
    EXPECT_EQ(ran.load(), 20);
    // The group must be reusable after the error was consumed.
    pool.post(group, [&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 21);
}

// ---- parallel pipeline == serial pipeline ----------------------------------

/**
 * A program with enough structure to make parallel bugs visible: two
 * threads, nested calls, loops with branches, cross-thread memory flow,
 * and records outside any traced function (synthetic toplevels).
 */
Machine
makeProgram()
{
    Machine machine;
    const auto t0 = machine.addThread("main");
    const auto t1 = machine.addThread("worker");
    const auto outer = machine.registerFunction("par::outer");
    const auto inner = machine.registerFunction("par::inner");
    const auto sink = machine.registerFunction("par::sink");
    const uint64_t shared = machine.alloc(64, "shared");
    const uint64_t pixels = machine.alloc(64, "pixels");
    const uint64_t junk = machine.alloc(64, "junk");

    machine.post(t0, [=](Ctx &ctx) {
        Value total = ctx.imm(0);
        {
            TracedScope scope(ctx, outer);
            Value i = ctx.imm(0);
            Value n = ctx.imm(8);
            while (true) {
                Value more = ctx.ltu(i, n);
                if (!ctx.branchIf(more))
                    break;
                {
                    TracedScope nested(ctx, inner);
                    Value sq = ctx.mul(i, i);
                    total = ctx.add(total, sq);
                }
                i = ctx.addi(i, 1);
            }
            ctx.store(shared, 8, total);
            Value waste = ctx.muli(total, 31);
            ctx.store(junk, 8, waste);
        }
        // Untraced tail: lands in the thread's synthetic toplevel.
        Value tail = ctx.addi(total, 1);
        ctx.store(junk + 8, 8, tail);
    });
    machine.post(t1, [=](Ctx &ctx) {
        TracedScope scope(ctx, sink);
        Value v = ctx.load(shared, 8);
        Value doubled = ctx.shli(v, 1);
        ctx.store(pixels, 8, doubled);
        const trace::MemRange ranges[] = {{pixels, 64}};
        ctx.marker(ranges);
    });
    machine.run();
    return machine;
}

TEST(ParallelPipeline, ParallelCfgsMatchSerial)
{
    Machine machine = makeProgram();
    const auto reference =
        graph::reference::referenceCfgs(machine.records(), machine.symtab());
    for (const int jobs : {1, 2, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        graph::reference::expectSameCfgSet(
            reference,
            graph::buildCfgs(machine.records(), machine.symtab(), jobs));
    }
}

/**
 * A generated browser scenario, in memory and from v1 and v2 files, at 1
 * and 4 jobs. Unlike makeProgram's tiny trace, its functions outgrow the
 * transition filter, so collisions let duplicate transitions through
 * and the replay's addEdge() has to drop them.
 */
TEST(ParallelPipeline, BrowserTraceCfgsMatchReference)
{
    scenario::Knobs knobs;
    knobs.domDepth = scenario::Level::Lo;
    knobs.cssVolume = scenario::Level::Lo;
    knobs.jsHotness = scenario::Level::Lo;
    knobs.images = scenario::Level::Lo;
    const auto run =
        scenario::runScenario(scenario::generateScenario(3, knobs));
    const trace::SymbolTable &symtab = run.machine->symtab();
    const auto reference =
        graph::reference::referenceCfgs(run.records(), symtab);

    const std::string v1 = tempPath("browser_v1.trc");
    const std::string v2 = tempPath("browser_v2.trc");
    trace::saveTrace(v1, run.records(), trace::TraceFormat::V1);
    trace::saveTrace(v2, run.records(), trace::TraceFormat::V2);

    auto &replayed =
        MetricRegistry::global().counter("cfg.transitions_replayed");
    for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        {
            SCOPED_TRACE("in memory");
            const uint64_t before = replayed.value();
            const auto cfgs = graph::buildCfgs(run.records(), symtab, jobs);
            graph::reference::expectSameCfgSet(reference, cfgs);
            // More transitions replayed than distinct edges: some
            // transition reached addEdge() twice.
            size_t edges = 0;
            for (const auto &kv : cfgs.byFunc) {
                for (const auto &out : kv.second.succs)
                    edges += out.size();
            }
            EXPECT_GT(replayed.value() - before, edges);
        }
        for (const std::string &path : {v1, v2}) {
            SCOPED_TRACE(path);
            graph::reference::expectSameCfgSet(
                reference, graph::buildCfgsFromFile(path, symtab, jobs));
        }
    }
}

/**
 * One function left open on three threads when the trace ends. Frames
 * are closed in thread-id order at every jobs value, so the exit node's
 * predecessors come out the same way each time. The reference
 * CfgBuilder closes them in hash-map order, so this case is pinned
 * across jobs values instead of against it; nothing downstream reads
 * that order.
 */
TEST(ParallelPipeline, OpenFramesCloseInThreadOrderAtEveryJobs)
{
    trace::SymbolTable symtab;
    const trace::FuncId f = symtab.addFunction(1000, "par::open");
    std::vector<trace::Record> records;
    for (const trace::ThreadId tid : {0, 1, 2}) {
        const auto add = [&](trace::RecordKind kind, trace::Pc pc) {
            trace::Record rec;
            rec.tid = tid;
            rec.kind = kind;
            rec.pc = pc;
            rec.addr = kind == trace::RecordKind::Call ? 1000 : 0;
            records.push_back(rec);
        };
        add(trace::RecordKind::Call, 10 + tid);
        add(trace::RecordKind::Alu, 1000);
        add(trace::RecordKind::Alu, 1001 + tid);
    }
    const auto serial = graph::buildCfgs(records, symtab, 1);
    const graph::Cfg &cfg = serial.byFunc.at(f);
    std::vector<trace::Pc> exit_preds;
    for (const graph::NodeId node : cfg.preds[graph::Cfg::kExit])
        exit_preds.push_back(cfg.nodePc[node]);
    EXPECT_EQ(exit_preds, (std::vector<trace::Pc>{1001, 1002, 1003}));
    for (const int jobs : {2, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        graph::reference::expectSameCfgSet(
            serial, graph::buildCfgs(records, symtab, jobs));
    }
}

TEST(ParallelPipeline, ParallelControlDepsMatchSerial)
{
    Machine machine = makeProgram();
    const auto cfgs = graph::buildCfgs(machine.records(),
                                       machine.symtab(), 1);
    const auto serial = graph::buildControlDeps(cfgs, 1);
    const auto parallel = graph::buildControlDeps(cfgs, 4);
    ASSERT_EQ(serial.pairCount(), parallel.pairCount());
    for (const auto &kv : cfgs.byFunc) {
        for (const trace::Pc pc : kv.second.nodePc) {
            if (pc == trace::kNoPc)
                continue;
            const auto a = serial.depsOf(kv.first, pc);
            const auto b = parallel.depsOf(kv.first, pc);
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a[i], b[i]);
        }
    }
}

TEST(ParallelPipeline, SliceIdenticalAcrossJobs)
{
    Machine machine = makeProgram();

    // Reference: the fully serial 1-job pipeline.
    const auto ref_cfgs = graph::buildCfgs(machine.records(),
                                           machine.symtab(), 1);
    const auto ref_deps = graph::buildControlDeps(ref_cfgs, 1);
    const auto reference = slicer::computeSlice(
        machine.records(), ref_cfgs, ref_deps, machine.pixelCriteria());

    for (const int jobs : {1, 2, 4}) {
        const auto cfgs = graph::buildCfgs(machine.records(),
                                           machine.symtab(), jobs);
        const auto deps = graph::buildControlDeps(cfgs, jobs);
        slicer::SlicerOptions options;
        options.jobs = jobs;
        const auto slice = slicer::computeSlice(
            machine.records(), cfgs, deps, machine.pixelCriteria(),
            options);
        EXPECT_EQ(slice.inSlice, reference.inSlice) << "jobs=" << jobs;
        EXPECT_EQ(slice.sliceInstructions, reference.sliceInstructions);
        EXPECT_EQ(slice.instructionsAnalyzed,
                  reference.instructionsAnalyzed);
    }
}

} // namespace
} // namespace webslice
