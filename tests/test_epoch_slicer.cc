/**
 * @file
 * Tests of the epoch-plan replay (slicer/epoch.hh) and of the cold
 * sequential walk it must match.
 *
 * The contract under test is brutal and simple: for every trace, every
 * criteria mode, every ablation, every replay job count (which no
 * longer changes how the replay runs, and must not matter), and every
 * epoch partition — including adversarial boundaries forced through
 * syscall groups, pending branches, live registers, and open call
 * frames — a plan replay must be bit-identical to the sequential
 * oracle, counters and peaks included. The only tolerated divergence is
 * the flatProbes/flatResizes hash diagnostics, whose probe history
 * depends on table growth order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/epoch.hh"
#include "slicer/slicer.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace slicer {
namespace {

using graph::buildCfgs;
using graph::buildControlDeps;
using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;
using trace::RecordKind;

/** RAII setter for the epoch-boundary test override. */
struct BoundaryOverride
{
    std::vector<size_t> interior;

    explicit BoundaryOverride(std::vector<size_t> bounds)
        : interior(std::move(bounds))
    {
        EpochPlanner::boundariesOverrideForTesting = &interior;
    }

    ~BoundaryOverride()
    {
        EpochPlanner::boundariesOverrideForTesting = nullptr;
    }
};

/** Everything the backward pass needs, built once per machine. */
struct ForwardResult
{
    graph::CfgSet cfgs;
    graph::ControlDepMap deps;

    explicit ForwardResult(const Machine &machine)
        : cfgs(buildCfgs(machine.records(), machine.symtab())),
          deps(buildControlDeps(cfgs))
    {
    }
};

/** Every field but the hash diagnostics must match the oracle. */
void
expectIdentical(const SliceResult &oracle, const SliceResult &epoch,
                const char *what)
{
    EXPECT_EQ(oracle.inSlice, epoch.inSlice) << what;
    EXPECT_EQ(oracle.instructionsAnalyzed, epoch.instructionsAnalyzed)
        << what;
    EXPECT_EQ(oracle.sliceInstructions, epoch.sliceInstructions) << what;
    EXPECT_EQ(oracle.criteriaBytesSeeded, epoch.criteriaBytesSeeded)
        << what;
    EXPECT_EQ(oracle.recordsFed, epoch.recordsFed) << what;
    EXPECT_EQ(oracle.analyzedWindowEnd, epoch.analyzedWindowEnd) << what;
    EXPECT_EQ(oracle.peakLiveMemBytes, epoch.peakLiveMemBytes) << what;
    EXPECT_EQ(oracle.peakLiveMemChunks, epoch.peakLiveMemChunks) << what;
    EXPECT_EQ(oracle.peakPendingBranches, epoch.peakPendingBranches)
        << what;
}

/** Build a fresh plan under `options` and replay it on `jobs` threads. */
SliceResult
replayFreshPlan(const Machine &machine, const ForwardResult &fwd,
                SlicerOptions options, int jobs)
{
    const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                     fwd.deps, options);
    EXPECT_NE(plan, nullptr) << "no plan for this trace";
    options.backwardJobs = jobs;
    options.reusePlan = plan.get();
    return computeSlice(machine.records(), fwd.cfgs, fwd.deps,
                        machine.pixelCriteria(), options);
}

/**
 * Slice sequentially and by plan replay under `options` (for a few job
 * counts) and assert bit-identity.
 */
void
expectEpochMatchesSequential(const Machine &machine,
                             SlicerOptions options = {},
                             const char *what = "epoch vs sequential")
{
    const ForwardResult fwd(machine);
    const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria(),
                                     options);
    for (const int jobs : {1, 2, 3, 8}) {
        const auto epoch = replayFreshPlan(machine, fwd, options, jobs);
        expectIdentical(oracle, epoch, what);
    }
}

/** Index of the i-th record of the given kind. */
size_t
nthOfKind(const Machine &machine, RecordKind kind, size_t n = 0)
{
    const auto &records = machine.records();
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].kind == kind) {
            if (n == 0)
                return i;
            --n;
        }
    }
    ADD_FAILURE() << "record of requested kind not found";
    return records.size();
}

TEST(EpochSlicer, MatchesSequentialOnStraightLineProgram)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(64, "tile");
    const uint64_t scratch = machine.alloc(64, "scratch");

    Value color = ctx.imm(0xFF00FF);
    ctx.store(pixels, 4, color);
    Value junk = ctx.imm(7);
    ctx.store(scratch, 4, junk);
    Value more = ctx.add(color, junk);
    ctx.store(pixels + 8, 4, more);
    const trace::MemRange ranges[] = {{pixels, 64}};
    ctx.marker(ranges);

    expectEpochMatchesSequential(machine);
}

TEST(EpochSlicer, RegisterLivenessCrossesEpochBoundary)
{
    // The producer imm lands in epoch 0, the store consuming its
    // register in epoch 1: the boundary cuts straight through a live
    // register, which the replayed live-out must carry.
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(8, "tile");

    Value color = ctx.imm(0xAB);          // 0: must join via register
    Value pad0 = ctx.imm(1);              // 1: dead
    (void)pad0;
    const size_t boundary = machine.records().size();
    ctx.store(pixels, 4, color);          // 2: in later epoch
    const trace::MemRange ranges[] = {{pixels, 8}};
    ctx.marker(ranges);

    const BoundaryOverride forced({boundary});
    expectEpochMatchesSequential(machine);

    const ForwardResult fwd(machine);
    const auto result = replayFreshPlan(machine, fwd, {}, 2);
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_FALSE(result.inSlice[1]);
}

TEST(EpochSlicer, PendingBranchResolvesInEarlierEpoch)
{
    // The live store joins in the newest epoch and queues its guarding
    // branch as pending; the branch's nearest preceding instance lives
    // in an earlier epoch, so the pending set must survive the boundary.
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("paint::fill");
    const uint64_t pixels = machine.alloc(4, "tile");

    auto body = [&](Ctx &ctx, uint64_t flag_value) {
        TracedScope scope(ctx, func);
        Value flag = ctx.imm(flag_value);
        Value color = ctx.imm(0xABC);
        if (ctx.branchIf(flag))
            ctx.store(pixels, 4, color);
    };
    size_t boundary = 0;
    machine.post(tid, [&](Ctx &ctx) {
        body(ctx, 0); // skipping instance: creates the CFG diamond
        body(ctx, 1); // storing instance: joins with its branch
        boundary = ctx.machine().records().size() - 2;
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    // Force a boundary between the live branch and its store.
    const size_t live_branch = nthOfKind(machine, RecordKind::Branch, 1);
    const size_t store = nthOfKind(machine, RecordKind::Store, 0);
    ASSERT_LT(live_branch, store);
    const BoundaryOverride forced({store});
    expectEpochMatchesSequential(machine);

    const ForwardResult fwd(machine);
    const auto result = replayFreshPlan(machine, fwd, {}, 2);
    EXPECT_TRUE(result.inSlice[live_branch]);
    EXPECT_FALSE(
        result.inSlice[nthOfKind(machine, RecordKind::Branch, 0)]);
}

TEST(EpochSlicer, CallFrameSpansEpochBoundary)
{
    // Boundary inside a function body: the Ret opens its frame in the
    // newer epoch, the Call closes it in the older one — and the Call's
    // cross-epoch write of the Ret's verdict must land.
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto painter = machine.registerFunction("paint::run");
    const auto logger = machine.registerFunction("debug::log");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t logbuf = machine.alloc(4, "log");

    size_t boundary = 0;
    machine.post(tid, [&](Ctx &ctx) {
        {
            TracedScope scope(ctx, painter);
            Value color = ctx.imm(0xF0F0F0);
            boundary = ctx.machine().records().size();
            ctx.store(pixels, 4, color);
        }
        {
            TracedScope scope(ctx, logger);
            Value msg = ctx.imm(42);
            ctx.store(logbuf, 4, msg);
        }
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const BoundaryOverride forced({boundary});
    expectEpochMatchesSequential(machine);

    const ForwardResult fwd(machine);
    const auto result = replayFreshPlan(machine, fwd, {}, 2);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Call, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Ret, 0)]);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Call, 1)]);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Ret, 1)]);
}

TEST(EpochSlicer, SyscallGroupBoundaryIsRepaired)
{
    // A boundary proposed between a Syscall record and its pseudo
    // records must shift so the whole group stays in one epoch, and the
    // repair must be counted.
    Machine machine;
    const auto tid = machine.addThread("main");
    const uint64_t netbuf = machine.alloc(16, "net");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(tid, [&](Ctx &ctx) {
        ctx.machine().mem().write(netbuf, 4, 0xBEEF);
        Value r = sim::sysRecvfrom(ctx, netbuf, 16);
        (void)r;
        Value data = ctx.load(netbuf, 4);
        ctx.store(pixels, 4, data);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const size_t sys = nthOfKind(machine, RecordKind::Syscall);
    ASSERT_TRUE(machine.records()[sys + 1].isPseudo());

    auto &splits = MetricRegistry::global().counter(
        "criteria.epoch_boundary_splits");
    const uint64_t splits_before = splits.value();
    const BoundaryOverride forced({sys + 1});
    expectEpochMatchesSequential(machine);
    EXPECT_GT(splits.value(), splits_before);

    SlicerOptions sys_mode;
    sys_mode.mode = CriteriaMode::Syscalls;
    expectEpochMatchesSequential(machine, sys_mode);
}

TEST(EpochSlicer, MarkerAtBoundaryAndEmptyEpochs)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(8, "tile");

    Value color = ctx.imm(0x1);
    ctx.store(pixels, 4, color);
    const size_t marker_index = machine.records().size();
    const trace::MemRange ranges[] = {{pixels, 8}};
    ctx.marker(ranges);
    Value late = ctx.imm(0x2);
    ctx.store(pixels, 4, late);
    ctx.marker(ranges);

    // Duplicate and colliding boundaries yield empty epochs; the marker
    // sits exactly on a boundary.
    const BoundaryOverride forced(
        {marker_index, marker_index, marker_index, marker_index + 1});
    expectEpochMatchesSequential(machine);
}

TEST(EpochSlicer, MoreJobsThanRecords)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");
    Value v = ctx.imm(3);
    ctx.store(pixels, 4, v);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges); // 3 records total

    const ForwardResult fwd(machine);
    const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria());
    // Far more replay threads than records.
    const auto epoch = replayFreshPlan(machine, fwd, {}, 64);
    expectIdentical(oracle, epoch, "jobs > records");
}

TEST(EpochSlicer, WindowedAnalysisMatches)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    Value early = ctx.imm(0x1);
    ctx.store(pixels, 4, early);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);
    const size_t window = machine.records().size();
    Value late = ctx.imm(0x2);
    ctx.store(pixels, 4, late);
    ctx.marker(ranges);

    SlicerOptions options;
    options.endIndex = window;
    expectEpochMatchesSequential(machine, options);
}

TEST(EpochSlicer, AblationsMatch)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("paint::fill");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t sendbuf = machine.alloc(16, "net");

    auto body = [&](Ctx &ctx, uint64_t flag_value) {
        TracedScope scope(ctx, func);
        Value flag = ctx.imm(flag_value);
        Value color = ctx.imm(0xABC);
        if (ctx.branchIf(flag))
            ctx.store(pixels, 4, color);
    };
    machine.post(tid, [&](Ctx &ctx) {
        body(ctx, 0);
        body(ctx, 1);
        Value payload = ctx.imm(0x77);
        ctx.store(sendbuf, 4, payload);
        Value r = sim::sysSendto(ctx, sendbuf, 16);
        (void)r;
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    SlicerOptions options;
    expectEpochMatchesSequential(machine, options, "default");

    options = {};
    options.includeControlDeps = false;
    expectEpochMatchesSequential(machine, options, "no control deps");

    options = {};
    options.includeRegisterDeps = false;
    expectEpochMatchesSequential(machine, options, "memory only");

    options = {};
    options.mode = CriteriaMode::Syscalls;
    expectEpochMatchesSequential(machine, options, "syscall criteria");
}

TEST(EpochSlicer, CrossThreadFlowAcrossEpochs)
{
    Machine machine;
    const auto t_main = machine.addThread("main");
    const auto t_raster = machine.addThread("raster");
    const uint64_t item = machine.alloc(8, "item");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(t_main, [&](Ctx &ctx) {
        Value color = ctx.imm(0x00FF00);
        ctx.store(item, 4, color);
        ctx.machine().post(t_raster, [&](Ctx &rctx) {
            Value loaded = rctx.load(item, 4);
            rctx.store(pixels, 4, loaded);
            const trace::MemRange ranges[] = {{pixels, 4}};
            rctx.marker(ranges);
        });
    });
    machine.run();

    // Boundary between the producing thread's store and the consuming
    // thread's load: the shared live-memory set crosses the boundary.
    const size_t load = nthOfKind(machine, RecordKind::Load);
    const BoundaryOverride forced({load});
    expectEpochMatchesSequential(machine);
}

/**
 * Random program generator for the fuzz loop: a mix of arithmetic,
 * loads/stores over a small heap, guarded stores inside traced function
 * scopes, syscalls, and markers, spread over two threads.
 */
Machine
randomProgram(uint64_t seed)
{
    Machine machine;
    Rng rng(seed);
    const auto t0 = machine.addThread("a");
    const auto t1 = machine.addThread("b");
    const auto fn_a = machine.registerFunction("fuzz::alpha");
    const auto fn_b = machine.registerFunction("fuzz::beta");
    const uint64_t heap = machine.alloc(256, "heap");
    const uint64_t pixels = machine.alloc(64, "tile");
    const uint64_t net = machine.alloc(32, "net");

    auto program = [&, fn_a, fn_b](Ctx &ctx, uint64_t thread_seed) {
        Rng r(thread_seed);
        TracedScope top(ctx, fn_a);
        std::vector<Value> vals;
        vals.push_back(ctx.imm(r.below(1000)));
        const size_t steps = 30 + r.below(50);
        for (size_t i = 0; i < steps; ++i) {
            auto pick = [&]() -> Value & {
                return vals[r.below(vals.size())];
            };
            switch (r.below(9)) {
              case 0:
                vals.push_back(ctx.imm(r.below(1 << 20)));
                break;
              case 1:
                vals.push_back(ctx.add(pick(), pick()));
                break;
              case 2:
                vals.push_back(
                    ctx.addi(pick(), static_cast<int64_t>(r.below(9))));
                break;
              case 3:
                ctx.store(heap + 8 * r.below(30), 4, pick());
                break;
              case 4:
                vals.push_back(ctx.load(heap + 8 * r.below(30), 4));
                break;
              case 5:
                ctx.store(pixels + 4 * r.below(15), 4, pick());
                break;
              case 6: {
                TracedScope scope(ctx, fn_b);
                Value flag = ctx.imm(r.below(2));
                Value color = ctx.imm(r.below(256));
                if (ctx.branchIf(flag))
                    ctx.store(pixels + 4 * r.below(15), 4, color);
                break;
              }
              case 7:
                if (r.chance(0.5)) {
                    ctx.store(net, 4, pick());
                    (void)sim::sysSendto(ctx, net, 16);
                } else {
                    ctx.machine().mem().write(net, 4, r.next());
                    (void)sim::sysRecvfrom(ctx, net, 16);
                }
                break;
              case 8: {
                const trace::MemRange ranges[] = {{pixels, 64}};
                ctx.marker(ranges);
                break;
              }
            }
            if (vals.size() > 12)
                vals.erase(vals.begin(),
                           vals.begin() +
                               static_cast<long>(vals.size() - 6));
        }
        const trace::MemRange ranges[] = {{pixels, 64}};
        ctx.marker(ranges);
    };
    machine.post(t0, [&](Ctx &ctx) { program(ctx, seed * 2 + 1); });
    machine.post(t1, [&](Ctx &ctx) { program(ctx, seed * 2 + 2); });
    machine.run();
    return machine;
}

TEST(EpochSlicer, FuzzBitIdentityAgainstSequential)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        const Machine machine = randomProgram(seed);
        const ForwardResult fwd(machine);
        Rng r(seed ^ 0xF00D);

        for (const auto mode :
             {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
            SlicerOptions options;
            options.mode = mode;
            options.includeControlDeps = r.chance(0.8);
            options.includeRegisterDeps = r.chance(0.8);
            const auto oracle = computeSlice(
                machine.records(), fwd.cfgs, fwd.deps,
                machine.pixelCriteria(), options);

            // Planner-chosen boundaries at three job counts...
            for (const int jobs : {1, 2, 5}) {
                const auto epoch =
                    replayFreshPlan(machine, fwd, options, jobs);
                expectIdentical(oracle, epoch, "fuzz planner bounds");
            }

            // ...and adversarial random ones (possibly colliding).
            std::vector<size_t> interior;
            for (int i = 0; i < 5; ++i)
                interior.push_back(
                    r.below(machine.records().size() + 2));
            const BoundaryOverride forced(interior);
            for (const int jobs : {1, 3}) {
                const auto epoch =
                    replayFreshPlan(machine, fwd, options, jobs);
                expectIdentical(oracle, epoch, "fuzz random bounds");
            }
        }
    }
}

// ---- reusable epoch plans ------------------------------------------------

uint64_t
counterValue(const char *name)
{
    return MetricRegistry::global().counter(name).value();
}

/** RAII setter for the widened-summary test hook. */
struct ForceWidenedSummaries
{
    ForceWidenedSummaries()
    {
        EpochPlanner::forceWidenedSummariesForTesting = true;
    }

    ~ForceWidenedSummaries()
    {
        EpochPlanner::forceWidenedSummariesForTesting = false;
    }
};

TEST(EpochPlan, ReuseAcrossCriteriaIsBitIdentical)
{
    const Machine machine = randomProgram(11);
    const ForwardResult fwd(machine);
    const SlicerOptions build;
    const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                     fwd.deps, build);
    ASSERT_TRUE(plan);
    EXPECT_TRUE(plan->compatibleWith(build, machine.records().size()));
    EXPECT_EQ(plan->windowEnd(), machine.records().size());
    EXPECT_GT(plan->epochCount(), 0u);
    EXPECT_GT(plan->approxBytes(), 0u);

    // One plan serves both criteria modes at any job count, and every
    // reuse is bit-identical to a from-scratch slice of that criterion.
    for (const auto mode :
         {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
        SlicerOptions options;
        options.mode = mode;
        const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                         fwd.deps,
                                         machine.pixelCriteria(), options);
        for (const int jobs : {1, 3}) {
            options.backwardJobs = jobs;
            options.reusePlan = plan.get();
            const uint64_t hits = counterValue("slicer.plan_hits");
            const auto warm = computeSlice(machine.records(), fwd.cfgs,
                                           fwd.deps,
                                           machine.pixelCriteria(),
                                           options);
            EXPECT_EQ(counterValue("slicer.plan_hits"), hits + 1);
            expectIdentical(oracle, warm, "plan reuse");
        }
    }
}

TEST(EpochPlan, ChangedCriteriaOverASharedPlanSliceCorrectly)
{
    const Machine machine = randomProgram(12);
    const ForwardResult fwd(machine);
    SlicerOptions options;
    const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                     fwd.deps, options);
    ASSERT_TRUE(plan);
    options.reusePlan = plan.get();

    // The plan holds no results: a repeat replays and matches.
    const auto first = computeSlice(machine.records(), fwd.cfgs,
                                    fwd.deps, machine.pixelCriteria(),
                                    options);
    options.backwardJobs = 4; // an execution knob, not a criterion
    const auto second = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria(),
                                     options);
    expectIdentical(first, second, "repeat over one plan");

    // Different criteria content over the same transcode must slice
    // exactly as a plan-less walk of those criteria does.
    trace::CriteriaSet other;
    other.add(/*marker=*/0, 0x100000, 4);
    const auto third = computeSlice(machine.records(), fwd.cfgs,
                                    fwd.deps, other, options);
    options.reusePlan = nullptr;
    options.backwardJobs = 1;
    const auto fresh = computeSlice(machine.records(), fwd.cfgs,
                                    fwd.deps, other, options);
    expectIdentical(fresh, third, "changed criteria");
}

TEST(EpochPlan, IncompatibleOptionsFallBackToThePlanlessPath)
{
    const Machine machine = randomProgram(13);
    const ForwardResult fwd(machine);
    const SlicerOptions build; // full window, both dep kinds
    const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                     fwd.deps, build);
    ASSERT_TRUE(plan);

    SlicerOptions options;
    options.endIndex = machine.records().size() / 2;
    options.reusePlan = plan.get();
    EXPECT_FALSE(plan->compatibleWith(options, machine.records().size()));

    const uint64_t misses = counterValue("slicer.plan_misses");
    const auto sliced = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria(),
                                     options);
    EXPECT_EQ(counterValue("slicer.plan_misses"), misses + 1);

    options.reusePlan = nullptr;
    const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria(),
                                     options);
    expectIdentical(oracle, sliced, "incompatible window fallback");
}

TEST(EpochPlan, SkipsProvablyInertEpochs)
{
    // [Call][color imm][200 inert Alu][store pixels][marker][Ret]: the
    // middle epoch only kills registers the walk never holds live, so
    // its gen/kill summary must prove it skippable — and the slice must
    // still match the oracle exactly.
    Machine machine;
    const auto t0 = machine.addThread("main");
    const auto fn = machine.registerFunction("skip::inert");
    const uint64_t pixels = machine.alloc(64, "tile");
    machine.post(t0, [&, fn](Ctx &ctx) {
        TracedScope scope(ctx, fn);
        Value color = ctx.imm(7);
        Value v = ctx.imm(1);
        for (int i = 0; i < 150; ++i)
            v = ctx.addi(v, 1);
        ctx.store(pixels, 4, color);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const ForwardResult fwd(machine);
    const size_t store_at = nthOfKind(machine, RecordKind::Store);
    const size_t chain_at = nthOfKind(machine, RecordKind::Alu, 5);
    ASSERT_LT(chain_at, store_at);
    const BoundaryOverride bounds({chain_at, store_at});

    SlicerOptions options;
    const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                     fwd.deps, machine.pixelCriteria(),
                                     options);
    const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                     fwd.deps, options);
    ASSERT_TRUE(plan);

    options.reusePlan = plan.get();
    const uint64_t skipped = counterValue("slicer.epochs_skipped");
    const auto warm = computeSlice(machine.records(), fwd.cfgs, fwd.deps,
                                   machine.pixelCriteria(), options);
    EXPECT_GT(counterValue("slicer.epochs_skipped"), skipped);
    expectIdentical(oracle, warm, "inert epoch skipped");
}

TEST(EpochPlan, FuzzReuseMatchesSequentialEvenWithWidenedSummaries)
{
    // Widened summaries must disable skipping, never change results:
    // odd seeds force every summary conservative and the plan replay
    // still has to be bit-identical to the oracle.
    for (uint64_t seed = 100; seed < 106; ++seed) {
        const Machine machine = randomProgram(seed);
        const ForwardResult fwd(machine);

        std::unique_ptr<ForceWidenedSummaries> widened;
        if (seed % 2)
            widened = std::make_unique<ForceWidenedSummaries>();

        const SlicerOptions build;
        const auto plan = buildEpochPlan(machine.records(), fwd.cfgs,
                                         fwd.deps, build);
        ASSERT_TRUE(plan);

        for (const auto mode :
             {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
            SlicerOptions options;
            options.mode = mode;
            const auto oracle = computeSlice(machine.records(), fwd.cfgs,
                                             fwd.deps,
                                             machine.pixelCriteria(),
                                             options);
            for (const int jobs : {1, 4}) {
                options.backwardJobs = jobs;
                options.reusePlan = plan.get();
                const auto warm = computeSlice(machine.records(),
                                               fwd.cfgs, fwd.deps,
                                               machine.pixelCriteria(),
                                               options);
                expectIdentical(oracle, warm, "fuzz plan reuse");
            }
        }
    }
}

TEST(SplitBoundary, ShiftsOntoSyscallRecord)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const uint64_t netbuf = machine.alloc(16, "net");

    machine.post(tid, [&](Ctx &ctx) {
        Value v = ctx.imm(1);
        ctx.store(netbuf, 4, v);
        (void)sim::sysSendto(ctx, netbuf, 16);
        Value after = ctx.imm(2);
        (void)after;
    });
    machine.run();

    const auto &records = machine.records();
    const size_t sys = nthOfKind(machine, RecordKind::Syscall);
    size_t last_pseudo = sys;
    while (last_pseudo + 1 < records.size() &&
           records[last_pseudo + 1].isPseudo())
        ++last_pseudo;
    ASSERT_GT(last_pseudo, sys);

    // Any boundary inside the pseudo group lands on the Syscall...
    for (size_t b = sys + 1; b <= last_pseudo; ++b)
        EXPECT_EQ(trace::CriteriaSet::splitBoundary(records, b), sys);
    // ...and boundaries outside the group are untouched.
    EXPECT_EQ(trace::CriteriaSet::splitBoundary(records, sys), sys);
    EXPECT_EQ(trace::CriteriaSet::splitBoundary(records, 0), 0u);
    EXPECT_EQ(trace::CriteriaSet::splitBoundary(records, last_pseudo + 1),
              last_pseudo + 1);
    EXPECT_EQ(
        trace::CriteriaSet::splitBoundary(records, records.size() + 5),
        records.size() + 5);
}

/** A saved multi-block trace with its machine (for file-path tests). */
struct BigSavedProgram
{
    Machine machine;
    std::string path;

    BigSavedProgram()
    {
        const auto tid = machine.addThread("main");
        const uint64_t heap = machine.alloc(64, "heap");
        const uint64_t pixels = machine.alloc(16, "tile");
        machine.post(tid, [&](Ctx &ctx) {
            // Enough records to span several index blocks.
            const size_t rounds = (1 << 16) + 4000;
            for (size_t i = 0; i < rounds; ++i) {
                Value v = ctx.imm(i & 0xFF);
                ctx.store(heap + 8 * (i % 8), 4, v);
            }
            Value color = ctx.load(heap, 4);
            ctx.store(pixels, 4, color);
            const trace::MemRange ranges[] = {{pixels, 16}};
            ctx.marker(ranges);
        });
        machine.run();

        path = tempPath("epoch_big.trc");
        trace::TraceWriter writer(path, /*block_index=*/true);
        for (const auto &rec : machine.records())
            writer.append(rec);
        writer.close();
    }

    ~BigSavedProgram() { std::remove(path.c_str()); }
};

TEST(TraceIndexFooter, RoundTripsThroughWriterAndLoader)
{
    const BigSavedProgram program;
    const auto &records = program.machine.records();

    // Parse the WEBTIDX1 footer straight from the file's bytes: magic,
    // records per block, block count, then one (executed, pseudo) pair
    // of u32 counts per block.
    std::ifstream in(program.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const size_t footer = 16 + records.size() * sizeof(trace::Record);
    ASSERT_GE(bytes.size(), footer + 24);
    EXPECT_EQ(bytes.substr(footer, 8), std::string("WEBTIDX1", 8));
    const auto u64_at = [&](size_t offset) {
        uint64_t v;
        std::memcpy(&v, bytes.data() + offset, sizeof(v));
        return v;
    };
    const auto u32_at = [&](size_t offset) {
        uint32_t v;
        std::memcpy(&v, bytes.data() + offset, sizeof(v));
        return v;
    };
    EXPECT_EQ(u64_at(footer + 8), trace::kTraceIndexBlockRecords);
    const size_t blocks =
        (records.size() + trace::kTraceIndexBlockRecords - 1) /
        trace::kTraceIndexBlockRecords;
    ASSERT_GE(blocks, 2u);
    ASSERT_EQ(u64_at(footer + 16), blocks);
    ASSERT_EQ(bytes.size(), footer + 24 + 8 * blocks);

    for (size_t b = 0; b < blocks; ++b) {
        uint32_t instructions = 0;
        uint32_t pseudos = 0;
        const size_t end = std::min(records.size(),
                                    (b + 1) * trace::kTraceIndexBlockRecords);
        for (size_t i = b * trace::kTraceIndexBlockRecords; i < end; ++i)
            ++(records[i].isPseudo() ? pseudos : instructions);
        EXPECT_EQ(u32_at(footer + 24 + 8 * b), instructions) << "block " << b;
        EXPECT_EQ(u32_at(footer + 28 + 8 * b), pseudos) << "block " << b;
    }

    // Every reader accepts the footer.
    trace::MappedTrace mapped(program.path);
    EXPECT_TRUE(mapped.mapped());
    EXPECT_EQ(mapped.count(), records.size());
    EXPECT_EQ(mapped[0].pc, records[0].pc);
    EXPECT_EQ(trace::loadTrace(program.path).size(), records.size());
}

TEST(EpochSlicer, FileSliceMatchesMemorySlice)
{
    const BigSavedProgram program;
    const ForwardResult fwd(program.machine);

    // The whole trace, then a window that cuts mid-trace.
    SlicerOptions options;
    for (const size_t end :
         {program.machine.records().size(),
          program.machine.records().size() / 2}) {
        options.endIndex = end;
        const auto memory =
            computeSlice(program.machine.records(), fwd.cfgs, fwd.deps,
                         program.machine.pixelCriteria(), options);
        auto file = computeSliceFromFile(
            program.path, fwd.cfgs, fwd.deps,
            program.machine.pixelCriteria(), options);
        // The streamed walk is fed the records past the window too.
        EXPECT_EQ(file.recordsFed, program.machine.records().size());
        file.recordsFed = memory.recordsFed;
        expectIdentical(memory, file, "file vs memory");
    }
}

TEST(EpochSlicer, ColdQueriesWalkSequentiallyAtAnyJobCount)
{
    // Without a plan, backwardJobs changes nothing: no epochs are
    // planned, and the slice is the 1-job walk's, hash diagnostics
    // included.
    const BigSavedProgram program;
    const ForwardResult fwd(program.machine);
    const auto &records = program.machine.records();
    const auto &criteria = program.machine.pixelCriteria();

    SlicerOptions options;
    const auto oracle =
        computeSlice(records, fwd.cfgs, fwd.deps, criteria, options);

    auto &planned =
        MetricRegistry::global().counter("slicer.epochs_planned");
    const uint64_t planned_before = planned.value();
    options.backwardJobs = 4;
    const auto memory =
        computeSlice(records, fwd.cfgs, fwd.deps, criteria, options);
    const auto file = computeSliceFromFile(program.path, fwd.cfgs,
                                           fwd.deps, criteria, options);
    EXPECT_EQ(planned.value(), planned_before);

    for (const auto *cold : {&memory, &file}) {
        expectIdentical(oracle, *cold, "cold query at 4 jobs");
        EXPECT_EQ(oracle.flatProbes, cold->flatProbes);
        EXPECT_EQ(oracle.flatResizes, cold->flatResizes);
    }
}

} // namespace
} // namespace slicer
} // namespace webslice
