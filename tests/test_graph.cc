/**
 * @file
 * Unit tests for the forward pass: CFG reconstruction from dynamic traces,
 * postdominator computation, and control dependences.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "graph/postdom.hh"
#include "sim/machine.hh"
#include "temp_dir.hh"

namespace webslice {
namespace graph {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

// ---- postdominators on hand-built graphs -----------------------------------

/** Build a CFG from an edge list over nodes 0..n-1 (0=entry, 1=exit). */
Cfg
makeCfg(int nodes, std::initializer_list<std::pair<int, int>> edges)
{
    Cfg cfg;
    cfg.nodePc.assign(nodes, trace::kNoPc);
    cfg.succs.assign(nodes, {});
    cfg.preds.assign(nodes, {});
    cfg.isBranch.assign(nodes, false);
    for (int i = 2; i < nodes; ++i) {
        cfg.nodePc[i] = 0x1000 + 4 * i;
        cfg.pcNode[cfg.nodePc[i]] = i;
    }
    for (auto [a, b] : edges)
        cfg.addEdge(a, b);
    return cfg;
}

TEST(Postdom, LinearChain)
{
    // entry -> 2 -> 3 -> exit
    Cfg cfg = makeCfg(4, {{0, 2}, {2, 3}, {3, 1}});
    const auto ipdom = computePostdoms(cfg);
    EXPECT_EQ(ipdom[0], 2);
    EXPECT_EQ(ipdom[2], 3);
    EXPECT_EQ(ipdom[3], 1);
    EXPECT_EQ(ipdom[1], 1);
}

TEST(Postdom, Diamond)
{
    // entry -> 2(branch) -> {3, 4} -> 5 -> exit
    Cfg cfg = makeCfg(6,
                      {{0, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1}});
    const auto ipdom = computePostdoms(cfg);
    EXPECT_EQ(ipdom[2], 5); // join postdominates the branch
    EXPECT_EQ(ipdom[3], 5);
    EXPECT_EQ(ipdom[4], 5);
    EXPECT_EQ(ipdom[5], 1);
    EXPECT_TRUE(postdominates(ipdom, 5, 2));
    EXPECT_TRUE(postdominates(ipdom, 1, 2));
    EXPECT_FALSE(postdominates(ipdom, 3, 2));
}

TEST(Postdom, LoopBackEdge)
{
    // entry -> 2(header/branch) -> 3(body) -> 2 ; 2 -> exit
    Cfg cfg = makeCfg(4, {{0, 2}, {2, 3}, {3, 2}, {2, 1}});
    const auto ipdom = computePostdoms(cfg);
    EXPECT_EQ(ipdom[3], 2); // body postdominated by the header
    EXPECT_EQ(ipdom[2], 1);
}

TEST(Postdom, SelfPostdominationHoldsTrivially)
{
    Cfg cfg = makeCfg(3, {{0, 2}, {2, 1}});
    const auto ipdom = computePostdoms(cfg);
    EXPECT_TRUE(postdominates(ipdom, 2, 2));
}

// ---- control deps on hand-built graphs -------------------------------------

TEST(ControlDeps, DiamondArmsDependOnBranch)
{
    CfgSet cfgs;
    Cfg cfg = makeCfg(6,
                      {{0, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1}});
    cfg.func = 0;
    cfg.isBranch[2] = true;
    cfgs.byFunc.emplace(0u, std::move(cfg));

    const ControlDepMap deps = buildControlDeps(cfgs);
    const trace::Pc branch_pc = 0x1000 + 4 * 2;
    const auto then_deps = deps.depsOf(0, 0x1000 + 4 * 3);
    const auto else_deps = deps.depsOf(0, 0x1000 + 4 * 4);
    const auto join_deps = deps.depsOf(0, 0x1000 + 4 * 5);
    ASSERT_EQ(then_deps.size(), 1u);
    EXPECT_EQ(then_deps[0], branch_pc);
    ASSERT_EQ(else_deps.size(), 1u);
    EXPECT_EQ(else_deps[0], branch_pc);
    EXPECT_TRUE(join_deps.empty());
}

TEST(ControlDeps, LoopBodyAndHeaderDependOnHeaderBranch)
{
    CfgSet cfgs;
    Cfg cfg = makeCfg(4, {{0, 2}, {2, 3}, {3, 2}, {2, 1}});
    cfg.func = 3;
    cfg.isBranch[2] = true;
    cfgs.byFunc.emplace(3u, std::move(cfg));

    const ControlDepMap deps = buildControlDeps(cfgs);
    const trace::Pc header_pc = 0x1000 + 4 * 2;
    const auto body_deps = deps.depsOf(3, 0x1000 + 4 * 3);
    ASSERT_EQ(body_deps.size(), 1u);
    EXPECT_EQ(body_deps[0], header_pc);
    // The loop header is control-dependent on itself (back edge).
    const auto header_deps = deps.depsOf(3, header_pc);
    ASSERT_EQ(header_deps.size(), 1u);
    EXPECT_EQ(header_deps[0], header_pc);
}

TEST(ControlDeps, NonBranchMultiSuccessorIsIgnored)
{
    CfgSet cfgs;
    Cfg cfg = makeCfg(6,
                      {{0, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1}});
    cfg.func = 1;
    // Node 2 has two successors but never executed a Branch record.
    cfgs.byFunc.emplace(1u, std::move(cfg));

    const ControlDepMap deps = buildControlDeps(cfgs);
    EXPECT_TRUE(deps.depsOf(1, 0x1000 + 4 * 3).empty());
    EXPECT_EQ(deps.pairCount(), 0u);
}

TEST(ControlDepMap, ConcurrentFirstLookupsReadASealedMap)
{
    // buildControlDeps() hands back a sealed map: the very first
    // depsOf() calls, from four threads at once, only read it.
    CfgSet cfgs;
    Cfg cfg = makeCfg(6,
                      {{0, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1}});
    cfg.func = 0;
    cfg.isBranch[2] = true;
    cfgs.byFunc.emplace(0u, std::move(cfg));
    const ControlDepMap deps = buildControlDeps(cfgs);

    constexpr int kThreads = 4;
    const trace::Pc branch_pc = 0x1000 + 4 * 2;
    std::atomic<int> ready{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            for (int i = 0; i < 1000; ++i) {
                const auto then_deps = deps.depsOf(0, 0x1000 + 4 * 3);
                const auto join_deps = deps.depsOf(0, 0x1000 + 4 * 5);
                if (then_deps.size() != 1 || then_deps[0] != branch_pc ||
                    !join_deps.empty())
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(wrong.load(), 0);
}

TEST(ControlDepMap, LookupAfterAddWithoutSealPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ControlDepMap deps;
    EXPECT_TRUE(deps.depsOf(2, 0x1010).empty()); // an empty map is sealed
    deps.add(2, 0x1010, 0x1004);
    EXPECT_DEATH(deps.depsOf(2, 0x1010), "without a seal");
    deps.seal();
    ASSERT_EQ(deps.depsOf(2, 0x1010).size(), 1u);
    EXPECT_EQ(deps.depsOf(2, 0x1010)[0], 0x1004u);
}

TEST(ControlDepMap, SaveLoadRoundTrip)
{
    ControlDepMap deps;
    deps.add(2, 0x1010, 0x1004);
    deps.add(2, 0x1010, 0x1008);
    deps.add(2, 0x1010, 0x1004); // duplicate ignored
    deps.add(7, 0x2000, 0x2004);
    EXPECT_EQ(deps.pairCount(), 3u);

    const std::string path = tempPath("cdg.txt");
    deps.save(path);
    ControlDepMap loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.pairCount(), 3u);
    EXPECT_EQ(loaded.depsOf(2, 0x1010).size(), 2u);
    EXPECT_EQ(loaded.depsOf(7, 0x2000).size(), 1u);
    EXPECT_TRUE(loaded.depsOf(9, 0x1010).empty());
    std::remove(path.c_str());
}

// ---- CFG reconstruction from machine traces ---------------------------------

TEST(CfgBuild, AttributesRecordsToFunctions)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const auto outer = machine.registerFunction("css::resolve");
    const auto inner = machine.registerFunction("css::match");

    {
        TracedScope outer_scope(ctx, outer);
        Value a = ctx.imm(1);
        {
            TracedScope inner_scope(ctx, inner);
            Value b = ctx.imm(2);
            (void)b;
        }
        Value c = ctx.addi(a, 1);
        (void)c;
    }

    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    const auto &records = machine.records();
    // Layout: Call(outer) imm Call(inner) imm Ret addi Ret
    ASSERT_EQ(records.size(), 7u);
    ASSERT_EQ(cfgs.funcOf.size(), 7u);
    // The Call record belongs to the *caller*: toplevel for the first.
    EXPECT_GE(cfgs.funcOf[0], cfgs.firstSynthetic);
    EXPECT_EQ(cfgs.funcOf[1], outer);
    EXPECT_EQ(cfgs.funcOf[2], outer); // inner Call belongs to outer
    EXPECT_EQ(cfgs.funcOf[3], inner);
    EXPECT_EQ(cfgs.funcOf[4], inner); // inner Ret
    EXPECT_EQ(cfgs.funcOf[5], outer);
    EXPECT_EQ(cfgs.funcOf[6], outer); // outer Ret
}

TEST(CfgBuild, BranchBothWaysMakesDiamond)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    const auto func = machine.registerFunction("layout::place");

    auto body = [&](Ctx &ctx, bool flag) {
        TracedScope scope(ctx, func);
        Value cond = ctx.imm(flag ? 1 : 0);
        if (ctx.branchIf(cond)) {
            Value t = ctx.imm(10);
            (void)t;
        } else {
            Value f = ctx.imm(20);
            (void)f;
        }
        Value join = ctx.imm(30);
        (void)join;
    };
    machine.post(tid, [&](Ctx &ctx) { body(ctx, true); });
    machine.post(tid, [&](Ctx &ctx) { body(ctx, false); });
    machine.run();

    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    const auto &cfg = cfgs.byFunc.at(func);

    // Find the branch node: it must have two distinct successors.
    NodeId branch_node = kNoNode;
    for (size_t n = 0; n < cfg.nodeCount(); ++n) {
        if (cfg.isBranch[n])
            branch_node = static_cast<NodeId>(n);
    }
    ASSERT_NE(branch_node, kNoNode);
    EXPECT_EQ(cfg.succs[branch_node].size(), 2u);

    // And control deps must point both arms at the branch.
    const auto deps = buildControlDeps(cfgs);
    const trace::Pc branch_pc = cfg.nodePc[branch_node];
    size_t dependent_pcs = 0;
    for (size_t n = 2; n < cfg.nodeCount(); ++n) {
        const auto node_deps = deps.depsOf(func, cfg.nodePc[n]);
        for (const auto pc : node_deps) {
            if (pc == branch_pc)
                ++dependent_pcs;
        }
    }
    EXPECT_EQ(dependent_pcs, 2u); // then-arm and else-arm only
}

TEST(CfgBuild, SyntheticToplevelPerThread)
{
    Machine machine;
    const auto t0 = machine.addThread("main");
    const auto t1 = machine.addThread("worker");
    machine.post(t0, [](Ctx &ctx) {
        Value v = ctx.imm(1);
        (void)v;
    });
    machine.post(t1, [](Ctx &ctx) {
        Value v = ctx.imm(2);
        (void)v;
    });
    machine.run();

    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    ASSERT_EQ(cfgs.funcOf.size(), 2u);
    EXPECT_NE(cfgs.funcOf[0], cfgs.funcOf[1]);
    EXPECT_GE(cfgs.funcOf[0], cfgs.firstSynthetic);
    const std::string name0 =
        cfgs.functionName(cfgs.funcOf[0], machine.symtab());
    EXPECT_NE(name0.find("toplevel"), std::string::npos);
}

TEST(CfgBuild, LoopFormsBackEdge)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const auto func = machine.registerFunction("lib::loop");

    {
        TracedScope scope(ctx, func);
        Value i = ctx.imm(0);
        Value n = ctx.imm(3);
        while (true) {
            Value cond = ctx.ltu(i, n);
            if (!ctx.branchIf(cond))
                break;
            i = ctx.addi(i, 1);
        }
    }

    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    const auto &cfg = cfgs.byFunc.at(func);
    // The branch node must have both a loop successor and an exit-side
    // successor.
    NodeId branch_node = kNoNode;
    for (size_t n = 0; n < cfg.nodeCount(); ++n) {
        if (cfg.isBranch[n])
            branch_node = static_cast<NodeId>(n);
    }
    ASSERT_NE(branch_node, kNoNode);
    EXPECT_EQ(cfg.succs[branch_node].size(), 2u);

    const auto deps = buildControlDeps(cfgs);
    // The loop body (addi site) is control-dependent on the loop branch.
    bool body_depends = false;
    for (size_t n = 2; n < cfg.nodeCount(); ++n) {
        for (const auto pc : deps.depsOf(func, cfg.nodePc[n])) {
            if (pc == cfg.nodePc[branch_node])
                body_depends = true;
        }
    }
    EXPECT_TRUE(body_depends);
}

TEST(CfgBuild, PseudoRecordsInheritFunction)
{
    Machine machine;
    const auto tid = machine.addThread("main");
    Ctx ctx(machine, tid);
    const auto func = machine.registerFunction("net::send");
    {
        TracedScope scope(ctx, func);
        const trace::MemRange reads[] = {{0x100, 8}};
        Value r = ctx.syscall(1, 8, reads, {});
        (void)r;
    }
    const auto cfgs = buildCfgs(machine.records(), machine.symtab());
    // Call, Syscall, SyscallRead(pseudo), Ret
    ASSERT_EQ(cfgs.funcOf.size(), 4u);
    EXPECT_EQ(cfgs.funcOf[1], func);
    EXPECT_EQ(cfgs.funcOf[2], func); // pseudo inherits
}

} // namespace
} // namespace graph
} // namespace webslice
