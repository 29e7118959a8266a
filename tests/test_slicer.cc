/**
 * @file
 * Tests of the backward slicing pass on small traced programs.
 *
 * Each test builds a miniature program on the simulated machine, runs the
 * forward pass (CFGs + control deps) and the backward pass, and checks
 * precisely which instructions join the slice. These encode the paper's
 * slicing rules: criteria seeding, kill/gen liveness, branch pending
 * lists, syscall effects, and cross-thread flow through shared memory.
 */

#include <gtest/gtest.h>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "big_saved_program.hh"

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

/** Runs forward + backward passes with default (pixel) criteria. */
SliceResult
slice(Machine &machine, SlicerOptions options = {})
{
    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    const auto deps = buildControlDeps(cfgs);
    return computeSlice(machine.records(), cfgs, deps,
                        machine.pixelCriteria(), options);
}

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
expectIdentical(const SliceResult &oracle, const SliceResult &other,
                const char *what)
{
    EXPECT_EQ(oracle.inSlice, other.inSlice) << what;
    EXPECT_EQ(oracle.instructionsAnalyzed, other.instructionsAnalyzed)
        << what;
    EXPECT_EQ(oracle.sliceInstructions, other.sliceInstructions) << what;
    EXPECT_EQ(oracle.criteriaBytesSeeded, other.criteriaBytesSeeded)
        << what;
    EXPECT_EQ(oracle.recordsFed, other.recordsFed) << what;
    EXPECT_EQ(oracle.analyzedWindowEnd, other.analyzedWindowEnd) << what;
    EXPECT_EQ(oracle.peakLiveMemBytes, other.peakLiveMemBytes) << what;
    EXPECT_EQ(oracle.peakLiveMemChunks, other.peakLiveMemChunks) << what;
    EXPECT_EQ(oracle.peakPendingBranches, other.peakPendingBranches)
        << what;
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

TEST(Slicer, StoreFeedingCriteriaIsInSlice)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);

    const uint64_t pixels = machine.alloc(64, "tile");
    const uint64_t scratch = machine.alloc(64, "scratch");

    Value color = ctx.imm(0xFF00FF);          // 0: feeds pixels
    ctx.store(pixels, 4, color);              // 1: feeds pixels
    Value junk = ctx.imm(7);                  // 2: dead
    ctx.store(scratch, 4, junk);              // 3: dead
    const trace::MemRange ranges[] = {{pixels, 64}};
    ctx.marker(ranges);                       // 4: criterion

    const auto result = slice(machine);
    ASSERT_EQ(result.inSlice.size(), 5u);
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_FALSE(result.inSlice[2]);
    EXPECT_FALSE(result.inSlice[3]);
    EXPECT_TRUE(result.inSlice[4]);
    EXPECT_EQ(result.instructionsAnalyzed, 5u);
    EXPECT_EQ(result.sliceInstructions, 3u);
    EXPECT_EQ(result.criteriaBytesSeeded, 64u);
}

TEST(Slicer, ArithmeticChainIsFollowed)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(16, "tile");

    Value a = ctx.imm(3);          // in slice
    Value b = ctx.imm(4);          // in slice
    Value c = ctx.add(a, b);       // in slice
    Value d = ctx.muli(c, 2);      // in slice
    Value e = ctx.imm(100);        // dead
    Value f = ctx.addi(e, 1);      // dead
    (void)f;
    ctx.store(pixels, 4, d);       // in slice
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[2]);
    EXPECT_TRUE(result.inSlice[3]);
    EXPECT_FALSE(result.inSlice[4]);
    EXPECT_FALSE(result.inSlice[5]);
    EXPECT_TRUE(result.inSlice[6]);
}

TEST(Slicer, OverwrittenStoreIsDead)
{
    // Overdraw: the first store to the pixel is killed by the second.
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    Value under = ctx.imm(0x111111);  // dead (overdrawn)
    ctx.store(pixels, 4, under);      // dead (overdrawn)
    Value over = ctx.imm(0x222222);   // live
    ctx.store(pixels, 4, over);       // live
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_FALSE(result.inSlice[0]);
    EXPECT_FALSE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[2]);
    EXPECT_TRUE(result.inSlice[3]);
}

TEST(Slicer, PartialOverwriteKeepsBothStores)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(8, "tile");

    Value wide = ctx.imm(0xAAAABBBBCCCCDDDDull);
    ctx.store(pixels, 8, wide);     // half survives
    Value narrow = ctx.imm(0x1234);
    ctx.store(pixels, 4, narrow);   // overwrites low half only
    const trace::MemRange ranges[] = {{pixels, 8}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[3]);
}

TEST(Slicer, LoadBridgesMemoryDependence)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t style = machine.alloc(8, "style");
    const uint64_t pixels = machine.alloc(8, "tile");

    Value v = ctx.imm(5);            // in slice
    ctx.store(style, 4, v);          // in slice
    Value loaded = ctx.load(style, 4); // in slice
    Value scaled = ctx.muli(loaded, 3); // in slice
    ctx.store(pixels, 4, scaled);    // in slice
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    for (size_t i = 0; i < result.inSlice.size(); ++i)
        EXPECT_TRUE(result.inSlice[i]) << "record " << i;
}

TEST(Slicer, PointerRegisterBecomesLive)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t node = machine.alloc(32, "node");
    const uint64_t pixels = machine.alloc(8, "tile");

    Value base = ctx.imm(node);           // in slice (address dep)
    Value v = ctx.imm(9);                 // in slice
    ctx.storeVia(base, 8, 4, v);          // in slice
    Value loaded = ctx.loadVia(base, 8, 4); // in slice
    ctx.store(pixels, 4, loaded);         // in slice
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_TRUE(result.inSlice[0]) << "pointer imm must join via rr deps";
    EXPECT_TRUE(result.inSlice[2]);
    EXPECT_TRUE(result.inSlice[3]);
}

TEST(Slicer, BranchGuardingLiveStoreJoinsWithItsCondition)
{
    // Control dependence only exists in the *observed* CFG when the branch
    // was seen to go both ways (dynamic CFGs have no static fall-through
    // knowledge), so run the guarded body once skipping and once storing.
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("paint::fill");
    const uint64_t pixels = machine.alloc(4, "tile");

    auto body = [&](Ctx &ctx, uint64_t flag_value) {
        TracedScope scope(ctx, func);
        Value flag = ctx.imm(flag_value); // condition source
        Value color = ctx.imm(0xABC);
        if (ctx.branchIf(flag)) {         // controls the store
            ctx.store(pixels, 4, color);
        }
    };
    machine.post(tid, [&](Ctx &ctx) {
        body(ctx, 0); // skipping instance: everything dead
        body(ctx, 1); // storing instance: chain joins the slice
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    const size_t skip_branch = nthOfKind(machine, RecordKind::Branch, 0);
    const size_t live_branch = nthOfKind(machine, RecordKind::Branch, 1);
    const size_t store = nthOfKind(machine, RecordKind::Store);
    EXPECT_FALSE(result.inSlice[skip_branch]);
    EXPECT_TRUE(result.inSlice[live_branch]);
    EXPECT_TRUE(result.inSlice[store]);
    // The live instance's condition producer (first imm after its Call)
    // joins through the branch's condition register.
    const size_t live_call = nthOfKind(machine, RecordKind::Call, 1);
    EXPECT_TRUE(result.inSlice[live_call + 1]);
    // The skipping instance's condition producer stays out.
    const size_t skip_call = nthOfKind(machine, RecordKind::Call, 0);
    EXPECT_FALSE(result.inSlice[skip_call + 1]);
}

TEST(Slicer, BranchNotControllingSliceIsExcluded)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("paint::fill");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t scratch = machine.alloc(4, "scratch");

    auto body = [&](Ctx &ctx, uint64_t flag_value) {
        TracedScope scope(ctx, func);
        Value color = ctx.imm(0xABC);
        ctx.store(pixels, 4, color);      // live, unconditional
        Value flag = ctx.imm(flag_value); // dead
        if (ctx.branchIf(flag)) {         // dead: controls only scratch
            Value junk = ctx.imm(1);      // dead
            ctx.store(scratch, 4, junk);  // dead
        }
    };
    machine.post(tid, [&](Ctx &ctx) {
        body(ctx, 0);
        body(ctx, 1);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Branch, 0)]);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Branch, 1)]);
    // Store order: [0] pixels (overwritten), [1] pixels (survives),
    // [2] scratch (guarded, dead).
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Store, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Store, 1)]);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Store, 2)]);
}

TEST(Slicer, ControlDepsCanBeDisabled)
{
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
    machine.post(tid, [&](Ctx &ctx) {
        body(ctx, 0);
        body(ctx, 1);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    // With control deps the guarding branch joins the slice...
    const auto with_deps = slice(machine);
    const size_t live_branch = nthOfKind(machine, RecordKind::Branch, 1);
    EXPECT_TRUE(with_deps.inSlice[live_branch]);

    // ...and without, it does not, but the data chain is unaffected.
    SlicerOptions options;
    options.includeControlDeps = false;
    const auto without_deps = slice(machine, options);
    EXPECT_FALSE(without_deps.inSlice[live_branch]);
    const size_t store = nthOfKind(machine, RecordKind::Store);
    EXPECT_TRUE(without_deps.inSlice[store]);
    EXPECT_LT(without_deps.sliceInstructions, with_deps.sliceInstructions);
}

TEST(Slicer, NearestPrecedingBranchInstanceJoins)
{
    // Two dynamic instances of the same branch site; only the one that
    // actually guards the live store (the nearest preceding instance)
    // must join the slice.
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("paint::fill");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t scratch = machine.alloc(4, "scratch");

    auto iteration = [&](Ctx &ctx, uint64_t target, uint64_t flag_value) {
        TracedScope scope(ctx, func);
        Value flag = ctx.imm(flag_value);
        Value color = ctx.imm(0xABC);
        if (ctx.branchIf(flag))
            ctx.store(target, 4, color);
    };
    machine.post(tid, [&](Ctx &ctx) {
        iteration(ctx, scratch, 1); // guards a dead store
        iteration(ctx, pixels, 1);  // guards the live store
        iteration(ctx, scratch, 0); // skipping instance (creates the
                                    // diamond in the observed CFG)
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    // Only the instance guarding the live store joins: the pending-list
    // mechanism picks the nearest instance *preceding* the in-slice store,
    // so the later skipping instance and the earlier dead-store instance
    // both stay out.
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Branch, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Branch, 1)]);
    EXPECT_FALSE(result.inSlice[nthOfKind(machine, RecordKind::Branch, 2)]);
}

TEST(Slicer, CrossThreadFlowThroughSharedMemory)
{
    Machine machine;
    const auto t_main = machine.addThread("main");
    const auto t_raster = machine.addThread("raster");
    const uint64_t display_item = machine.alloc(8, "item");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(t_main, [&](Ctx &ctx) {
        Value color = ctx.imm(0x00FF00);   // in slice (cross-thread)
        ctx.store(display_item, 4, color); // in slice
        ctx.machine().post(t_raster, [&](Ctx &rctx) {
            Value loaded = rctx.load(display_item, 4); // in slice
            ctx.machine(); // no-op; silence unused warnings
            rctx.store(pixels, 4, loaded);             // in slice
            const trace::MemRange ranges[] = {{pixels, 4}};
            rctx.marker(ranges);
        });
    });
    machine.run();

    const auto result = slice(machine);
    for (size_t i = 0; i < result.inSlice.size(); ++i)
        EXPECT_TRUE(result.inSlice[i]) << "record " << i;
}

TEST(Slicer, RegisterLivenessIsPerThread)
{
    // Two threads use the same virtual register id for unrelated values;
    // liveness of one thread's register must not leak into the other.
    Machine machine;
    const auto t0 = machine.addThread("a");
    const auto t1 = machine.addThread("b");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(t0, [&](Ctx &ctx) {
        Value dead = ctx.imm(1); // same reg id as the other thread's live
        (void)dead;
    });
    machine.post(t1, [&](Ctx &ctx) {
        Value live = ctx.imm(2);
        ctx.store(pixels, 4, live);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    // Thread a's imm shares the register id but must stay dead.
    const auto &records = machine.records();
    size_t t0_imm = records.size();
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].tid == t0 && records[i].kind == RecordKind::LoadImm)
            t0_imm = i;
    }
    ASSERT_LT(t0_imm, records.size());
    EXPECT_FALSE(result.inSlice[t0_imm]);
    EXPECT_EQ(result.sliceInstructions, 3u);
}

TEST(Slicer, ContributingCallAndRetJoinSlice)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto painter = machine.registerFunction("paint::run");
    const auto logger = machine.registerFunction("debug::log");
    const uint64_t pixels = machine.alloc(4, "tile");
    const uint64_t logbuf = machine.alloc(4, "log");

    machine.post(tid, [&](Ctx &ctx) {
        {
            TracedScope scope(ctx, painter);
            Value color = ctx.imm(0xF0F0F0);
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

    const auto result = slice(machine);
    const size_t painter_call = nthOfKind(machine, RecordKind::Call, 0);
    const size_t painter_ret = nthOfKind(machine, RecordKind::Ret, 0);
    const size_t logger_call = nthOfKind(machine, RecordKind::Call, 1);
    const size_t logger_ret = nthOfKind(machine, RecordKind::Ret, 1);
    EXPECT_TRUE(result.inSlice[painter_call]);
    EXPECT_TRUE(result.inSlice[painter_ret]);
    EXPECT_FALSE(result.inSlice[logger_call]);
    EXPECT_FALSE(result.inSlice[logger_ret]);
}

TEST(Slicer, IndirectCallTargetRegisterJoins)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto handler = machine.registerFunction("v8::Handler::run");
    const uint64_t fnptr_cell = machine.alloc(8, "code");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(tid, [&](Ctx &ctx) {
        // The function "pointer" is data in simulated memory.
        Value entry = ctx.imm(ctx.machine().functionEntry(handler));
        ctx.store(fnptr_cell, 8, entry);
        Value target = ctx.load(fnptr_cell, 8);
        {
            TracedScope scope(ctx, handler, target);
            Value color = ctx.imm(0x123456);
            ctx.store(pixels, 4, color);
        }
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    // The whole dispatch chain joins: entry imm, store, load, call.
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::LoadImm, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Store, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Load, 0)]);
    EXPECT_TRUE(result.inSlice[nthOfKind(machine, RecordKind::Call, 0)]);
}

TEST(Slicer, SyscallJoinsWhenItsWriteIsLive)
{
    // recvfrom writes resource bytes that end up in pixels: the syscall
    // must join the slice; the killed bytes stop the chase at the OS
    // boundary.
    Machine machine;
    const auto tid = machine.addThread("main");
    const uint64_t netbuf = machine.alloc(16, "net");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(tid, [&](Ctx &ctx) {
        ctx.machine().mem().write(netbuf, 4, 0xBEEF); // kernel-side fill
        Value r = sim::sysRecvfrom(ctx, netbuf, 16);
        (void)r;
        Value data = ctx.load(netbuf, 4);
        ctx.store(pixels, 4, data);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    const size_t sys = nthOfKind(machine, RecordKind::Syscall);
    EXPECT_TRUE(result.inSlice[sys]);
}

TEST(Slicer, UnrelatedSyscallStaysOutInPixelMode)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const uint64_t logbuf = machine.alloc(16, "log");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(tid, [&](Ctx &ctx) {
        Value r = sim::sysWrite(ctx, logbuf, 16); // console logging
        (void)r;
        Value color = ctx.imm(0xFFFFFF);
        ctx.store(pixels, 4, color);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    const auto result = slice(machine);
    const size_t sys = nthOfKind(machine, RecordKind::Syscall);
    EXPECT_FALSE(result.inSlice[sys]);
}

TEST(Slicer, SyscallModeSeedsSyscallReads)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const uint64_t sendbuf = machine.alloc(16, "net");
    const uint64_t pixels = machine.alloc(4, "tile");

    machine.post(tid, [&](Ctx &ctx) {
        Value payload = ctx.imm(0x77);     // feeds sendto: in syscall slice
        ctx.store(sendbuf, 4, payload);
        Value r = sim::sysSendto(ctx, sendbuf, 16);
        (void)r;
        Value color = ctx.imm(0xFFFFFF);   // feeds pixels
        ctx.store(pixels, 4, color);
        const trace::MemRange ranges[] = {{pixels, 4}};
        ctx.marker(ranges);
    });
    machine.run();

    SlicerOptions pixel_options;
    const auto pixel_result = slice(machine, pixel_options);

    SlicerOptions sys_options;
    sys_options.mode = CriteriaMode::Syscalls;
    const auto sys_result = slice(machine, sys_options);

    const size_t payload_imm = nthOfKind(machine, RecordKind::LoadImm, 0);
    const size_t payload_store = nthOfKind(machine, RecordKind::Store, 0);
    EXPECT_FALSE(pixel_result.inSlice[payload_imm]);
    EXPECT_TRUE(sys_result.inSlice[payload_imm]);
    EXPECT_TRUE(sys_result.inSlice[payload_store]);
    // Syscall mode sees every syscall; pixel content is not seeded there,
    // so the color chain stays out in this tiny program.
    const size_t color_imm = nthOfKind(machine, RecordKind::LoadImm, 1);
    EXPECT_TRUE(pixel_result.inSlice[color_imm]);
    EXPECT_FALSE(sys_result.inSlice[color_imm]);
}

TEST(Slicer, EndIndexWindowsTheAnalysis)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    Value early = ctx.imm(0x1);
    ctx.store(pixels, 4, early);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);                       // index 2
    const size_t load_done = machine.records().size();

    Value late = ctx.imm(0x2);
    ctx.store(pixels, 4, late);
    ctx.marker(ranges);                       // beyond the window

    SlicerOptions options;
    options.endIndex = load_done;
    const auto result = slice(machine, options);
    EXPECT_EQ(result.instructionsAnalyzed, 3u);
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[2]);
    EXPECT_FALSE(result.inSlice[3]);
    EXPECT_FALSE(result.inSlice[4]);
    EXPECT_FALSE(result.inSlice[5]);
}

TEST(Slicer, FullWindowSeesLaterOverwriteKillEarlierStore)
{
    // Same program as above without the window: the late store overwrites
    // the pixel, so the early chain is dead — but the early marker still
    // seeds its own criteria, keeping the early chain live.
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    Value early = ctx.imm(0x1);
    ctx.store(pixels, 4, early);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);
    Value late = ctx.imm(0x2);
    ctx.store(pixels, 4, late);
    ctx.marker(ranges);

    const auto result = slice(machine);
    // Every marker is a criterion: both chains are useful (each produced
    // a displayed frame), which is exactly the paper's semantics.
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[3]);
    EXPECT_TRUE(result.inSlice[4]);
}

TEST(Slicer, SelectPullsAllThreeOperands)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    Value cond = ctx.imm(1);
    Value a = ctx.imm(10);
    Value b = ctx.imm(20);
    Value chosen = ctx.select(cond, a, b);
    ctx.store(pixels, 4, chosen);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_TRUE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
    EXPECT_TRUE(result.inSlice[2]);
    EXPECT_TRUE(result.inSlice[3]);
}

TEST(Slicer, RegisterReuseDoesNotLeakLiveness)
{
    // A dead value that happens to reuse the register of a live value
    // (recycled by the allocator) must not join the slice: the later
    // write kills the register before the dead producer is reached.
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(4, "tile");

    trace::RegId first_reg;
    {
        Value dead = ctx.imm(0xDEAD); // record 0: dead
        first_reg = dead.reg();
    }
    Value live = ctx.imm(0x11FE); // reuses the same register
    ASSERT_EQ(live.reg(), first_reg);
    ctx.store(pixels, 4, live);
    const trace::MemRange ranges[] = {{pixels, 4}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_FALSE(result.inSlice[0]);
    EXPECT_TRUE(result.inSlice[1]);
}

TEST(Slicer, PeakDiagnosticsArePopulated)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const uint64_t pixels = machine.alloc(256, "tile");
    Value v = ctx.imm(1);
    ctx.store(pixels, 4, v);
    const trace::MemRange ranges[] = {{pixels, 256}};
    ctx.marker(ranges);

    const auto result = slice(machine);
    EXPECT_GE(result.peakLiveMemBytes, 252u);
    EXPECT_EQ(result.slicePercent(), 100.0);
}

// ---- the streamed file walk ----------------------------------------------

TEST(Slicer, FileSliceMatchesMemorySlice)
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

TEST(Slicer, ColdQueriesWalkSequentiallyAtAnyJobCount)
{
    // backwardJobs changes nothing: the slice is the 1-job walk's, hash
    // diagnostics included.
    const BigSavedProgram program;
    const ForwardResult fwd(program.machine);
    const auto &records = program.machine.records();
    const auto &criteria = program.machine.pixelCriteria();

    SlicerOptions options;
    const auto oracle =
        computeSlice(records, fwd.cfgs, fwd.deps, criteria, options);

    options.backwardJobs = 4;
    const auto memory =
        computeSlice(records, fwd.cfgs, fwd.deps, criteria, options);
    const auto file = computeSliceFromFile(program.path, fwd.cfgs,
                                           fwd.deps, criteria, options);

    for (const auto *cold : {&memory, &file}) {
        expectIdentical(oracle, *cold, "cold query at 4 jobs");
        EXPECT_EQ(oracle.flatProbes, cold->flatProbes);
        EXPECT_EQ(oracle.flatResizes, cold->flatResizes);
    }
}

} // namespace
} // namespace slicer
} // namespace webslice
