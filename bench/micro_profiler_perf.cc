/**
 * @file
 * Profiler micro-benchmarks (google-benchmark): throughput of the pieces
 * the paper's toolchain stresses — trace generation, CFG reconstruction,
 * postdominators + control deps, live-set operations, and the end-to-end
 * backward pass. Not a paper table; this is the engineering baseline for
 * anyone extending the profiler.
 */

#include <unordered_map>

#include <benchmark/benchmark.h>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "slicer/slicer.hh"
#include "support/flat_map.hh"
#include "support/sparse_byte_set.hh"
#include "support/thread_pool.hh"

using namespace webslice;

namespace {

/** Build a synthetic trace: loops of ALU/load/store with a live tail. */
struct SyntheticTrace
{
    sim::Machine machine;
    trace::ThreadId tid;

    explicit SyntheticTrace(int iterations)
        : tid(machine.addThread("main"))
    {
        const auto fn = machine.registerFunction("synthetic::kernel");
        const uint64_t buffer = machine.alloc(4096, "buf");
        machine.post(tid, [&, fn, buffer](sim::Ctx &ctx) {
            sim::TracedScope scope(ctx, fn);
            sim::Value acc = ctx.imm(1);
            sim::Value i = ctx.imm(0);
            sim::Value n = ctx.imm(static_cast<uint64_t>(iterations));
            while (true) {
                sim::Value more = ctx.ltu(i, n);
                if (!ctx.branchIf(more))
                    break;
                acc = ctx.add(acc, i);
                sim::Value addr = ctx.andi(acc, 4095 & ~7ull);
                ctx.store(buffer + (addr.get() & ~7ull), 8, acc);
                sim::Value back = ctx.load(buffer, 8);
                acc = ctx.bxor(acc, back);
                i = ctx.addi(i, 1);
            }
            ctx.store(buffer, 8, acc);
            const trace::MemRange ranges[] = {{buffer, 4096}};
            ctx.marker(ranges);
        });
        machine.run();
    }
};

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        SyntheticTrace trace(static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(trace.machine.records().size());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_TraceGeneration)->Arg(1000)->Arg(10000);

void
BM_CfgBuild(benchmark::State &state)
{
    SyntheticTrace trace(static_cast<int>(state.range(0)));
    const int jobs = static_cast<int>(state.range(1));
    for (auto _ : state) {
        auto cfgs = graph::buildCfgs(trace.machine.records(),
                                     trace.machine.symtab(), jobs);
        benchmark::DoNotOptimize(cfgs.byFunc.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.machine.records().size());
}
BENCHMARK(BM_CfgBuild)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4});

void
BM_ControlDeps(benchmark::State &state)
{
    SyntheticTrace trace(static_cast<int>(state.range(0)));
    const auto cfgs = graph::buildCfgs(trace.machine.records(),
                                       trace.machine.symtab());
    const int jobs = static_cast<int>(state.range(1));
    for (auto _ : state) {
        auto deps = graph::buildControlDeps(cfgs, jobs);
        benchmark::DoNotOptimize(deps.pairCount());
    }
}
BENCHMARK(BM_ControlDeps)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4});

void
BM_BackwardSlice(benchmark::State &state)
{
    SyntheticTrace trace(static_cast<int>(state.range(0)));
    const auto cfgs = graph::buildCfgs(trace.machine.records(),
                                       trace.machine.symtab());
    const auto deps = graph::buildControlDeps(cfgs);
    for (auto _ : state) {
        auto slice = slicer::computeSlice(
            trace.machine.records(), cfgs, deps,
            trace.machine.pixelCriteria());
        benchmark::DoNotOptimize(slice.sliceInstructions);
    }
    state.SetItemsProcessed(state.iterations() *
                            trace.machine.records().size());
}
BENCHMARK(BM_BackwardSlice)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_SparseByteSetInsertErase(benchmark::State &state)
{
    SparseByteSet set;
    uint64_t addr = 0;
    for (auto _ : state) {
        set.insert(addr, 64);
        benchmark::DoNotOptimize(set.testAndErase(addr, 64));
        addr = (addr + 4096) & 0xFFFFFF;
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SparseByteSetInsertErase);

void
BM_SparseByteSetIntersects(benchmark::State &state)
{
    SparseByteSet set;
    for (uint64_t a = 0; a < 1 << 20; a += 128)
        set.insert(a, 32);
    uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(set.intersects(addr, 16));
        addr = (addr + 64) & ((1 << 20) - 1);
    }
}
BENCHMARK(BM_SparseByteSetIntersects);

// FlatMap64 vs std::unordered_map on the chunk-map access pattern: a
// churning working set of 64-bit keys with heavy lookup traffic.
void
BM_FlatMap64InsertFindErase(benchmark::State &state)
{
    FlatMap64 map;
    uint64_t key = 0;
    for (auto _ : state) {
        map.findOrInsert(key) = key;
        benchmark::DoNotOptimize(map.find(key ^ 1));
        benchmark::DoNotOptimize(map.find(key));
        map.erase(key);
        key = (key * 2654435761u + 1) & 0xFFFFF;
    }
}
BENCHMARK(BM_FlatMap64InsertFindErase);

void
BM_StdUnorderedMapInsertFindErase(benchmark::State &state)
{
    std::unordered_map<uint64_t, uint64_t> map;
    uint64_t key = 0;
    for (auto _ : state) {
        map[key] = key;
        benchmark::DoNotOptimize(map.find(key ^ 1) != map.end());
        benchmark::DoNotOptimize(map.find(key) != map.end());
        map.erase(key);
        key = (key * 2654435761u + 1) & 0xFFFFF;
    }
}
BENCHMARK(BM_StdUnorderedMapInsertFindErase);

/** Fixed cost of dispatching a parallelFor across the worker pool. */
void
BM_ThreadPoolParallelFor(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    std::vector<uint64_t> sums(1024, 0);
    for (auto _ : state) {
        pool.parallelFor(0, sums.size(),
                         [&](size_t i) { sums[i] += i; });
        benchmark::DoNotOptimize(sums.data());
    }
    state.SetItemsProcessed(state.iterations() * sums.size());
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(3);

} // namespace

BENCHMARK_MAIN();
