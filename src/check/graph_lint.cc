#include "check/graph_lint.hh"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/postdom.hh"
#include "support/strings.hh"

namespace webslice {
namespace check {

using graph::Cfg;
using graph::CfgSet;
using graph::NodeId;
using graph::kNoNode;
using trace::FuncId;
using trace::Pc;
using trace::Record;
using trace::RecordKind;

namespace {

// The reference replay encodes CFG nodes as plain integers so it shares
// no data structures with the builder it audits: 0 = virtual entry,
// 1 = virtual exit, pc + 2 otherwise.
constexpr uint64_t kRefEntry = 0;
constexpr uint64_t kRefExit = 1;

uint64_t
encodePc(Pc pc)
{
    return static_cast<uint64_t>(pc) + 2;
}

std::string
describeNode(uint64_t node)
{
    if (node == kRefEntry)
        return "<entry>";
    if (node == kRefExit)
        return "<exit>";
    return format("pc%llu", static_cast<unsigned long long>(node - 2));
}

/** One function's CFG as the reference replay sees it. */
struct RefFunc
{
    std::set<uint64_t> nodes;
    std::set<std::pair<uint64_t, uint64_t>> edges;
    std::set<Pc> branchPcs;
};

/** Full output of the reference replay. */
struct Reference
{
    std::map<FuncId, RefFunc> funcs;
    std::vector<FuncId> funcOf;
    std::map<FuncId, std::string> syntheticNames;
    CfgSet::Stats stats;
};

/**
 * Independently re-derive the CFG set from the raw record stream: the
 * same Call/Ret frame-matching semantics as graph/cfg.cc's forward
 * builder, written record by record against plain sets (no transition
 * filter, no deferred replay) so a builder bug cannot hide in shared
 * code.
 */
Reference
replayReference(std::span<const Record> records,
                const trace::SymbolTable &symtab)
{
    Reference ref;
    ref.funcOf.reserve(records.size());

    struct RFrame
    {
        FuncId func;
        uint64_t last; ///< Last node executed; kRefEntry initially.
    };
    std::vector<std::vector<RFrame>> stacks;
    FuncId next_synthetic = static_cast<FuncId>(symtab.functionCount());

    const auto func_ref = [&ref](FuncId func) -> RefFunc & {
        RefFunc &rf = ref.funcs[func];
        rf.nodes.insert(kRefEntry);
        rf.nodes.insert(kRefExit);
        return rf;
    };
    const auto stack_of =
        [&stacks](trace::ThreadId tid) -> std::vector<RFrame> & {
        if (tid >= stacks.size())
            stacks.resize(tid + 1);
        return stacks[tid];
    };
    const auto top = [&](trace::ThreadId tid) -> RFrame & {
        auto &stack = stack_of(tid);
        if (stack.empty()) {
            const FuncId synthetic = next_synthetic++;
            ref.syntheticNames[synthetic] =
                format("<toplevel:tid%u>", tid);
            func_ref(synthetic);
            stack.push_back(RFrame{synthetic, kRefEntry});
            ++ref.stats.framesOpened;
        }
        return stack.back();
    };
    const auto step = [&](trace::ThreadId tid, Pc pc,
                          bool is_branch) -> FuncId {
        RFrame &frame = top(tid);
        RefFunc &rf = func_ref(frame.func);
        const uint64_t node = encodePc(pc);
        rf.nodes.insert(node);
        rf.edges.insert({frame.last, node});
        if (is_branch)
            rf.branchPcs.insert(pc);
        frame.last = node;
        return frame.func;
    };

    for (const Record &rec : records) {
        if (rec.isPseudo()) {
            ref.funcOf.push_back(ref.funcOf.empty() ? trace::kNoFunc
                                                    : ref.funcOf.back());
            continue;
        }
        ++ref.stats.transitionsObserved;

        switch (rec.kind) {
          case RecordKind::Call: {
            ref.funcOf.push_back(step(rec.tid, rec.pc, false));
            FuncId callee =
                symtab.functionAtEntry(static_cast<Pc>(rec.addr));
            if (callee == trace::kNoFunc) {
                callee = next_synthetic++;
                ref.syntheticNames[callee] = format(
                    "<anon:pc%llu>",
                    static_cast<unsigned long long>(rec.addr));
            }
            func_ref(callee);
            stack_of(rec.tid).push_back(RFrame{callee, kRefEntry});
            ++ref.stats.framesOpened;
            break;
          }

          case RecordKind::Ret: {
            auto &stack = stack_of(rec.tid);
            if (stack.empty()) {
                ref.funcOf.push_back(step(rec.tid, rec.pc, false));
                break;
            }
            RFrame &frame = stack.back();
            RefFunc &rf = func_ref(frame.func);
            const uint64_t node = encodePc(rec.pc);
            rf.nodes.insert(node);
            rf.edges.insert({frame.last, node});
            rf.edges.insert({node, kRefExit});
            ref.funcOf.push_back(frame.func);
            stack.pop_back();
            ++ref.stats.framesClosed;
            break;
          }

          default:
            ref.funcOf.push_back(
                step(rec.tid, rec.pc, rec.kind == RecordKind::Branch));
            break;
        }
    }

    // Close frames still open at trace end, then give every remaining
    // successor-less node an edge to the exit — the builder's close-out
    // and defensive fix-up, re-derived.
    for (const auto &stack : stacks) {
        ref.stats.framesOpenAtEnd += stack.size();
        for (const RFrame &frame : stack)
            ref.funcs.at(frame.func).edges.insert({frame.last, kRefExit});
    }
    for (auto &kv : ref.funcs) {
        RefFunc &rf = kv.second;
        std::set<uint64_t> has_succ;
        for (const auto &edge : rf.edges)
            has_succ.insert(edge.first);
        for (const uint64_t node : rf.nodes) {
            if (node != kRefExit && !has_succ.count(node))
                rf.edges.insert({node, kRefExit});
        }
    }
    return ref;
}

/** Encoded node for a Cfg node index. */
uint64_t
encodeNode(const Cfg &cfg, NodeId node)
{
    if (node == Cfg::kEntry)
        return kRefEntry;
    if (node == Cfg::kExit)
        return kRefExit;
    return encodePc(cfg.nodePc[node]);
}

/**
 * Structural well-formedness of one Cfg. Returns true when the basic
 * shape held up; analysis checks (postdoms, CDG) only run on sound CFGs.
 */
bool
checkStructure(const std::string &name, const Cfg &cfg, Findings &findings)
{
    const size_t n = cfg.nodeCount();
    if (n < 2 || cfg.succs.size() != n || cfg.preds.size() != n ||
        cfg.isBranch.size() != n) {
        findings.add(format("%s: inconsistent node arrays (nodePc %zu, "
                            "succs %zu, preds %zu, isBranch %zu)",
                            name.c_str(), n, cfg.succs.size(),
                            cfg.preds.size(), cfg.isBranch.size()));
        return false;
    }

    bool sound = true;
    const auto flag = [&](std::string message) {
        findings.add(std::move(message));
        sound = false;
    };

    if (cfg.nodePc[Cfg::kEntry] != trace::kNoPc ||
        cfg.nodePc[Cfg::kExit] != trace::kNoPc)
        flag(format("%s: virtual entry/exit carry a pc", name.c_str()));
    if (cfg.isBranch[Cfg::kEntry] || cfg.isBranch[Cfg::kExit])
        flag(format("%s: virtual entry/exit marked as branch",
                    name.c_str()));

    // pc <-> node must be a bijection over the non-virtual nodes.
    if (cfg.pcNode.size() != n - 2) {
        flag(format("%s: pcNode has %zu entries for %zu pc nodes",
                    name.c_str(), cfg.pcNode.size(), n - 2));
    }
    for (size_t node = 2; node < n; ++node) {
        const Pc pc = cfg.nodePc[node];
        if (pc == trace::kNoPc) {
            flag(format("%s: node %zu has no pc", name.c_str(), node));
            continue;
        }
        auto it = cfg.pcNode.find(pc);
        if (it == cfg.pcNode.end() ||
            it->second != static_cast<NodeId>(node)) {
            flag(format("%s: pcNode does not map pc%llu back to node %zu",
                        name.c_str(),
                        static_cast<unsigned long long>(pc), node));
        }
    }
    for (const auto &kv : cfg.pcNode) {
        if (kv.second < 2 || static_cast<size_t>(kv.second) >= n ||
            cfg.nodePc[kv.second] != kv.first) {
            flag(format("%s: pcNode entry pc%llu -> node %d is stale",
                        name.c_str(),
                        static_cast<unsigned long long>(kv.first),
                        kv.second));
        }
    }

    // Successor and predecessor lists must mirror each other exactly,
    // without duplicate edges.
    for (size_t a = 0; a < n; ++a) {
        for (const NodeId b : cfg.succs[a]) {
            if (b < 0 || static_cast<size_t>(b) >= n) {
                flag(format("%s: edge from node %zu to out-of-range "
                            "node %d", name.c_str(), a, b));
                continue;
            }
            const auto &out = cfg.succs[a];
            if (std::count(out.begin(), out.end(), b) != 1) {
                flag(format("%s: duplicate edge %s -> %s", name.c_str(),
                            describeNode(encodeNode(cfg,
                                static_cast<NodeId>(a))).c_str(),
                            describeNode(encodeNode(cfg, b)).c_str()));
            }
            const auto &in = cfg.preds[b];
            if (std::count(in.begin(), in.end(),
                           static_cast<NodeId>(a)) != 1) {
                flag(format("%s: edge %s -> %s missing from preds",
                            name.c_str(),
                            describeNode(encodeNode(cfg,
                                static_cast<NodeId>(a))).c_str(),
                            describeNode(encodeNode(cfg, b)).c_str()));
            }
        }
    }
    size_t succ_total = 0, pred_total = 0;
    for (size_t a = 0; a < n; ++a) {
        succ_total += cfg.succs[a].size();
        pred_total += cfg.preds[a].size();
    }
    if (succ_total != pred_total) {
        flag(format("%s: %zu successor entries vs %zu predecessor "
                    "entries", name.c_str(), succ_total, pred_total));
    }

    if (!cfg.preds[Cfg::kEntry].empty())
        flag(format("%s: virtual entry has predecessors", name.c_str()));
    if (!cfg.succs[Cfg::kExit].empty())
        flag(format("%s: virtual exit has successors", name.c_str()));
    for (size_t node = 0; node < n; ++node) {
        if (node != static_cast<size_t>(Cfg::kExit) &&
            cfg.succs[node].empty())
            flag(format("%s: node %s has no successors", name.c_str(),
                        describeNode(encodeNode(cfg,
                            static_cast<NodeId>(node))).c_str()));
        if (node != static_cast<size_t>(Cfg::kEntry) &&
            cfg.preds[node].empty())
            flag(format("%s: node %s has no predecessors", name.c_str(),
                        describeNode(encodeNode(cfg,
                            static_cast<NodeId>(node))).c_str()));
    }

    // Full reachability: entry reaches everything forward, exit reaches
    // everything backward.
    const auto reach = [n](const std::vector<std::vector<NodeId>> &adj,
                           NodeId root) {
        std::vector<uint8_t> seen(n, 0);
        std::vector<NodeId> work{root};
        seen[root] = 1;
        while (!work.empty()) {
            const NodeId cur = work.back();
            work.pop_back();
            for (const NodeId next : adj[cur]) {
                if (next >= 0 && static_cast<size_t>(next) < n &&
                    !seen[next]) {
                    seen[next] = 1;
                    work.push_back(next);
                }
            }
        }
        return seen;
    };
    const auto fwd = reach(cfg.succs, Cfg::kEntry);
    const auto bwd = reach(cfg.preds, Cfg::kExit);
    for (size_t node = 0; node < n; ++node) {
        if (!fwd[node])
            flag(format("%s: node %s unreachable from entry",
                        name.c_str(),
                        describeNode(encodeNode(cfg,
                            static_cast<NodeId>(node))).c_str()));
        if (!bwd[node])
            flag(format("%s: node %s cannot reach exit", name.c_str(),
                        describeNode(encodeNode(cfg,
                            static_cast<NodeId>(node))).c_str()));
    }
    return sound;
}

/**
 * Naive postdominator-set dataflow: pdom(exit) = {exit},
 * pdom(n) = {n} ∪ ⋂ pdom(succ), iterated to a fixpoint on bitsets.
 * Returns one bitset row (words per node) per node.
 */
std::vector<uint64_t>
naivePostdomSets(const Cfg &cfg)
{
    const size_t n = cfg.nodeCount();
    const size_t words = (n + 63) / 64;
    const uint64_t tail_mask =
        (n % 64) ? ((uint64_t{1} << (n % 64)) - 1) : ~uint64_t{0};

    std::vector<uint64_t> sets(n * words, ~uint64_t{0});
    for (size_t node = 0; node < n; ++node)
        sets[node * words + words - 1] &= tail_mask;
    uint64_t *exit_row = sets.data() +
                         static_cast<size_t>(Cfg::kExit) * words;
    std::fill(exit_row, exit_row + words, 0);
    exit_row[static_cast<size_t>(Cfg::kExit) / 64] |=
        uint64_t{1} << (static_cast<size_t>(Cfg::kExit) % 64);

    std::vector<uint64_t> tmp(words);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t node = 0; node < n; ++node) {
            if (node == static_cast<size_t>(Cfg::kExit) ||
                cfg.succs[node].empty())
                continue;
            std::fill(tmp.begin(), tmp.end(), ~uint64_t{0});
            tmp[words - 1] &= tail_mask;
            for (const NodeId succ : cfg.succs[node]) {
                const uint64_t *row =
                    sets.data() + static_cast<size_t>(succ) * words;
                for (size_t w = 0; w < words; ++w)
                    tmp[w] &= row[w];
            }
            tmp[node / 64] |= uint64_t{1} << (node % 64);
            uint64_t *row = sets.data() + node * words;
            if (!std::equal(tmp.begin(), tmp.end(), row)) {
                std::copy(tmp.begin(), tmp.end(), row);
                changed = true;
            }
        }
    }
    return sets;
}

/** Immediate postdominators derived from the naive sets. */
std::vector<NodeId>
ipdomFromSets(const Cfg &cfg, const std::vector<uint64_t> &sets,
              const std::string &name, Findings &findings)
{
    const size_t n = cfg.nodeCount();
    const size_t words = (n + 63) / 64;
    const auto popcount = [&](size_t node) {
        uint64_t bits = 0;
        for (size_t w = 0; w < words; ++w)
            bits += static_cast<uint64_t>(
                __builtin_popcountll(sets[node * words + w]));
        return bits;
    };
    const auto contains = [&](size_t node, size_t member) {
        return (sets[node * words + member / 64] >>
                (member % 64)) & 1;
    };

    std::vector<NodeId> ipdom(n, kNoNode);
    ipdom[Cfg::kExit] = Cfg::kExit;
    for (size_t node = 0; node < n; ++node) {
        if (node == static_cast<size_t>(Cfg::kExit))
            continue;
        const uint64_t size = popcount(node);
        bool found = false;
        for (size_t cand = 0; cand < n && !found; ++cand) {
            if (cand == node || !contains(node, cand))
                continue;
            if (popcount(cand) == size - 1) {
                ipdom[node] = static_cast<NodeId>(cand);
                found = true;
            }
        }
        if (!found) {
            findings.add(format(
                "%s: no immediate postdominator derivable for node %s",
                name.c_str(),
                describeNode(encodeNode(cfg,
                    static_cast<NodeId>(node))).c_str()));
        }
    }
    return ipdom;
}

/**
 * The Ferrante-Ottenstein-Warren dependence walk, over the *reference*
 * postdominator tree (same traversal shape as control_deps.cc's
 * collectDeps, but fed by the independent ipdom computation).
 */
std::set<std::pair<Pc, Pc>>
referenceDeps(const Cfg &cfg, const std::vector<NodeId> &ipdom_ref)
{
    std::set<std::pair<Pc, Pc>> expected;
    for (size_t a = 0; a < cfg.nodeCount(); ++a) {
        if (!cfg.isBranch[a] || cfg.succs[a].size() < 2)
            continue;
        const Pc branch_pc = cfg.nodePc[a];
        for (const NodeId succ : cfg.succs[a]) {
            NodeId t = succ;
            size_t guard = 0;
            while (t != kNoNode &&
                   t != ipdom_ref[static_cast<size_t>(a)] &&
                   t != Cfg::kExit) {
                if (cfg.nodePc[t] != trace::kNoPc)
                    expected.insert({cfg.nodePc[t], branch_pc});
                t = ipdom_ref[t];
                if (++guard > cfg.nodeCount())
                    return expected; // malformed tree; already flagged
            }
        }
    }
    return expected;
}

} // namespace

GraphLintResult
lintGraphs(std::span<const Record> records,
           const trace::SymbolTable &symtab, const CfgSet &cfgs,
           const graph::ControlDepMap *deps,
           const GraphLintOptions &options)
{
    GraphLintResult result;
    result.findings.cap = options.maxFindings;
    Findings &findings = result.findings;

    const Reference ref = replayReference(records, symtab);
    result.transitionsReplayed = ref.stats.transitionsObserved;

    // ---- coverage: builder output vs the reference replay ---------------
    for (const auto &kv : ref.funcs) {
        if (!cfgs.byFunc.count(kv.first)) {
            findings.add(format("missing cfg for function %u (%zu "
                                "reference nodes)", kv.first,
                                kv.second.nodes.size()));
        }
    }
    for (const auto &kv : cfgs.byFunc) {
        const FuncId func = kv.first;
        const Cfg &cfg = kv.second;
        const std::string name =
            format("cfg[%s]", cfgs.functionName(func, symtab).c_str());
        ++result.cfgsChecked;
        result.nodesChecked += cfg.nodeCount();

        if (cfg.func != func) {
            findings.add(format("%s: stored func id %u under key %u",
                                name.c_str(), cfg.func, func));
        }

        const bool sound = checkStructure(name, cfg, findings);

        auto ref_it = ref.funcs.find(func);
        if (ref_it == ref.funcs.end()) {
            findings.add(format("%s: not justified by any trace record",
                                name.c_str()));
            continue;
        }
        const RefFunc &rf = ref_it->second;

        // Node and edge sets, decoded to pcs so node numbering cannot
        // mask a diff.
        std::set<uint64_t> actual_nodes;
        std::set<std::pair<uint64_t, uint64_t>> actual_edges;
        std::set<Pc> actual_branches;
        for (size_t node = 0; node < cfg.nodeCount(); ++node) {
            actual_nodes.insert(
                encodeNode(cfg, static_cast<NodeId>(node)));
            if (cfg.isBranch[node] && node >= 2)
                actual_branches.insert(cfg.nodePc[node]);
            for (const NodeId succ : cfg.succs[node]) {
                if (succ >= 0 &&
                    static_cast<size_t>(succ) < cfg.nodeCount()) {
                    actual_edges.insert(
                        {encodeNode(cfg, static_cast<NodeId>(node)),
                         encodeNode(cfg, succ)});
                }
            }
        }
        result.edgesChecked += actual_edges.size();

        for (const uint64_t node : rf.nodes) {
            if (!actual_nodes.count(node))
                findings.add(format("%s: node %s observed in trace but "
                                    "absent", name.c_str(),
                                    describeNode(node).c_str()));
        }
        for (const uint64_t node : actual_nodes) {
            if (!rf.nodes.count(node))
                findings.add(format("%s: node %s not observed in trace",
                                    name.c_str(),
                                    describeNode(node).c_str()));
        }
        for (const auto &edge : rf.edges) {
            if (!actual_edges.count(edge))
                findings.add(format("%s: dynamic transition %s -> %s not "
                                    "covered by an edge", name.c_str(),
                                    describeNode(edge.first).c_str(),
                                    describeNode(edge.second).c_str()));
        }
        for (const auto &edge : actual_edges) {
            if (!rf.edges.count(edge))
                findings.add(format("%s: edge %s -> %s not observed in "
                                    "trace", name.c_str(),
                                    describeNode(edge.first).c_str(),
                                    describeNode(edge.second).c_str()));
        }
        for (const Pc pc : rf.branchPcs) {
            if (!actual_branches.count(pc))
                findings.add(format("%s: pc%llu executed a Branch but is "
                                    "not marked", name.c_str(),
                                    static_cast<unsigned long long>(pc)));
        }
        for (const Pc pc : actual_branches) {
            if (!rf.branchPcs.count(pc))
                findings.add(format("%s: pc%llu marked as branch but "
                                    "never branched", name.c_str(),
                                    static_cast<unsigned long long>(pc)));
        }

        // ---- postdominator + control-dependence reference ----------------
        if (!sound)
            continue;
        if (cfg.nodeCount() > options.postdomNodeLimit) {
            ++result.postdomSkippedCfgs;
            continue;
        }

        const std::vector<uint64_t> sets = naivePostdomSets(cfg);
        const std::vector<NodeId> ipdom_ref =
            ipdomFromSets(cfg, sets, name, findings);
        const std::vector<NodeId> ipdom = graph::computePostdoms(cfg);
        result.postdomNodesDiffed += cfg.nodeCount();
        if (ipdom.size() != cfg.nodeCount()) {
            findings.add(format("%s: computePostdoms returned %zu "
                                "entries for %zu nodes", name.c_str(),
                                ipdom.size(), cfg.nodeCount()));
            continue;
        }
        for (size_t node = 0; node < cfg.nodeCount(); ++node) {
            if (ipdom[node] != ipdom_ref[node]) {
                findings.add(format(
                    "%s: ipdom(%s) is %s but the dataflow reference "
                    "says %s", name.c_str(),
                    describeNode(encodeNode(cfg,
                        static_cast<NodeId>(node))).c_str(),
                    ipdom[node] == kNoNode
                        ? "<none>"
                        : describeNode(encodeNode(cfg,
                              ipdom[node])).c_str(),
                    ipdom_ref[node] == kNoNode
                        ? "<none>"
                        : describeNode(encodeNode(cfg,
                              ipdom_ref[node])).c_str()));
            }
        }

        if (deps) {
            const std::set<std::pair<Pc, Pc>> expected =
                referenceDeps(cfg, ipdom_ref);
            std::set<std::pair<Pc, Pc>> actual;
            for (size_t node = 2; node < cfg.nodeCount(); ++node) {
                for (const Pc branch :
                     deps->depsOf(func, cfg.nodePc[node]))
                    actual.insert({cfg.nodePc[node], branch});
            }
            result.depPairsChecked += actual.size();
            for (const auto &pair : expected) {
                if (!actual.count(pair))
                    findings.add(format(
                        "%s: missing control dependence pc%llu on "
                        "branch pc%llu", name.c_str(),
                        static_cast<unsigned long long>(pair.first),
                        static_cast<unsigned long long>(pair.second)));
            }
            for (const auto &pair : actual) {
                if (!expected.count(pair))
                    findings.add(format(
                        "%s: control dependence pc%llu on branch "
                        "pc%llu not justified by postdominance",
                        name.c_str(),
                        static_cast<unsigned long long>(pair.first),
                        static_cast<unsigned long long>(pair.second)));
            }
        }
    }

    // ---- dependence pairs must reference known nodes ---------------------
    if (deps) {
        for (const auto &[func, pc, branch] : deps->allPairs()) {
            auto it = cfgs.byFunc.find(func);
            if (it == cfgs.byFunc.end()) {
                findings.add(format("control dependence references "
                                    "unknown function %u", func));
                continue;
            }
            const Cfg &cfg = it->second;
            if (cfg.findNode(pc) == kNoNode) {
                findings.add(format(
                    "control dependence in %s references unknown "
                    "pc%llu",
                    cfgs.functionName(func, symtab).c_str(),
                    static_cast<unsigned long long>(pc)));
            }
            const NodeId branch_node = cfg.findNode(branch);
            if (branch_node == kNoNode ||
                branch_node >= static_cast<NodeId>(
                    cfg.isBranch.size()) ||
                !cfg.isBranch[branch_node]) {
                findings.add(format(
                    "control dependence in %s names pc%llu as a "
                    "branch, but it is not one",
                    cfgs.functionName(func, symtab).c_str(),
                    static_cast<unsigned long long>(branch)));
            }
        }
    }

    // ---- attribution, synthetic names, and feed totals -------------------
    if (cfgs.funcOf.size() != records.size()) {
        findings.add(format("funcOf has %zu entries for %zu records",
                            cfgs.funcOf.size(), records.size()));
    } else {
        for (size_t idx = 0; idx < records.size(); ++idx) {
            if (cfgs.funcOf[idx] != ref.funcOf[idx]) {
                findings.add(format(
                    "record %zu attributed to function %u, but the "
                    "replay says %u", idx, cfgs.funcOf[idx],
                    ref.funcOf[idx]));
            }
        }
    }

    for (const auto &kv : ref.syntheticNames) {
        auto it = cfgs.syntheticNames.find(kv.first);
        if (it == cfgs.syntheticNames.end()) {
            findings.add(format("missing synthetic function %u (%s)",
                                kv.first, kv.second.c_str()));
        } else if (it->second != kv.second) {
            findings.add(format("synthetic function %u named '%s', "
                                "expected '%s'", kv.first,
                                it->second.c_str(), kv.second.c_str()));
        }
    }
    for (const auto &kv : cfgs.syntheticNames) {
        if (!ref.syntheticNames.count(kv.first))
            findings.add(format("unexpected synthetic function %u (%s)",
                                kv.first, kv.second.c_str()));
    }

    const CfgSet::Stats &st = cfgs.stats;
    const CfgSet::Stats &rs = ref.stats;
    if (st.transitionsObserved != rs.transitionsObserved ||
        st.framesOpened != rs.framesOpened ||
        st.framesClosed != rs.framesClosed ||
        st.framesOpenAtEnd != rs.framesOpenAtEnd) {
        findings.add(format(
            "builder stats diverge from replay: transitions %llu/%llu, "
            "frames opened %llu/%llu, closed %llu/%llu, open at end "
            "%llu/%llu",
            static_cast<unsigned long long>(st.transitionsObserved),
            static_cast<unsigned long long>(rs.transitionsObserved),
            static_cast<unsigned long long>(st.framesOpened),
            static_cast<unsigned long long>(rs.framesOpened),
            static_cast<unsigned long long>(st.framesClosed),
            static_cast<unsigned long long>(rs.framesClosed),
            static_cast<unsigned long long>(st.framesOpenAtEnd),
            static_cast<unsigned long long>(rs.framesOpenAtEnd)));
    }
    if (st.framesOpened != st.framesClosed + st.framesOpenAtEnd) {
        findings.add(format(
            "call/return frames unbalanced: %llu opened, %llu closed, "
            "%llu open at end",
            static_cast<unsigned long long>(st.framesOpened),
            static_cast<unsigned long long>(st.framesClosed),
            static_cast<unsigned long long>(st.framesOpenAtEnd)));
    }

    return result;
}

} // namespace check
} // namespace webslice
