/**
 * @file
 * The seed's forward-pass builder, kept as a test oracle.
 *
 * CfgBuilder builds every node and edge as each record arrives, with no
 * transition filter and no deferred replay: the simplest statement of
 * the Call/Ret frame semantics. graph::buildCfgs and buildCfgsFromFile
 * must produce exactly its CfgSet, node numbering included, for every
 * jobs value; expectSameCfgSet() checks that field by field. (The
 * verification layer's graph linter compares sets of nodes and edges,
 * so only this oracle pins the numbering.) One case differs: frames of
 * one function still open on several threads when the trace ends are
 * closed here in hash-map order, so the exit node's predecessor order
 * is pinned by test_parallel across jobs values instead.
 */

#ifndef WEBSLICE_TESTS_REFERENCE_CFG_BUILDER_HH
#define WEBSLICE_TESTS_REFERENCE_CFG_BUILDER_HH

#include <gtest/gtest.h>

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/cfg.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

namespace webslice {
namespace graph {
namespace reference {

using trace::FuncId;
using trace::Pc;
using trace::Record;
using trace::RecordKind;

/**
 * Incremental forward-pass CFG builder: feed records first-to-last, then
 * take the finished CfgSet.
 */
class CfgBuilder
{
  public:
    explicit CfgBuilder(const trace::SymbolTable &symtab);

    /** Consume the next record (records must arrive in trace order). */
    void feed(const trace::Record &record);

    /** Close open frames and return the result; the builder is spent. */
    CfgSet finish();

  private:
    struct Frame
    {
        trace::FuncId func = trace::kNoFunc;
        NodeId lastNode = kNoNode;
    };

    Cfg &cfgFor(trace::FuncId func);
    Frame &topFrame(trace::ThreadId tid);
    trace::FuncId step(trace::ThreadId tid, trace::Pc pc, bool is_branch);

    const trace::SymbolTable &symtab_;
    CfgSet out_;
    std::unordered_map<trace::ThreadId, std::vector<Frame>> threads_;
    trace::FuncId nextSynthetic_;
    bool finished_ = false;
};

// ---- CfgBuilder -------------------------------------------------------------

inline CfgBuilder::CfgBuilder(const trace::SymbolTable &symtab)
    : symtab_(symtab)
{
    out_.firstSynthetic = static_cast<FuncId>(symtab.functionCount());
    nextSynthetic_ = out_.firstSynthetic;
}

inline Cfg &
CfgBuilder::cfgFor(FuncId func)
{
    auto [it, inserted] = out_.byFunc.try_emplace(func);
    if (inserted) {
        Cfg &cfg = it->second;
        cfg.func = func;
        // Reserve entry and exit.
        cfg.nodePc.assign(2, trace::kNoPc);
        cfg.succs.assign(2, {});
        cfg.preds.assign(2, {});
        cfg.isBranch.assign(2, false);
    }
    return it->second;
}

inline CfgBuilder::Frame &
CfgBuilder::topFrame(trace::ThreadId tid)
{
    auto &stack = threads_[tid];
    if (stack.empty()) {
        const FuncId synthetic = nextSynthetic_++;
        out_.syntheticNames[synthetic] = format("<toplevel:tid%u>", tid);
        cfgFor(synthetic);
        stack.push_back(Frame{synthetic, Cfg::kEntry});
        ++out_.stats.framesOpened;
    }
    return stack.back();
}

inline FuncId
CfgBuilder::step(trace::ThreadId tid, Pc pc, bool is_branch)
{
    Frame &frame = topFrame(tid);
    Cfg &cfg = cfgFor(frame.func);
    const NodeId node = cfg.nodeFor(pc);
    if (is_branch)
        cfg.isBranch[node] = true;
    const NodeId from =
        frame.lastNode == kNoNode ? Cfg::kEntry : frame.lastNode;
    cfg.addEdge(from, node);
    frame.lastNode = node;
    return frame.func;
}

inline void
CfgBuilder::feed(const Record &rec)
{
    panic_if(finished_, "feed after finish");

    if (rec.isPseudo()) {
        // Inherit the enclosing function of the preceding syscall.
        out_.funcOf.push_back(out_.funcOf.empty() ? trace::kNoFunc
                                                  : out_.funcOf.back());
        return;
    }

    ++out_.stats.transitionsObserved;

    switch (rec.kind) {
      case RecordKind::Call: {
        // The call instruction itself belongs to the caller.
        out_.funcOf.push_back(step(rec.tid, rec.pc, false));

        FuncId callee =
            symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
        if (callee == trace::kNoFunc) {
            // Call into an unregistered target: synthesize a function.
            callee = nextSynthetic_++;
            out_.syntheticNames[callee] = format(
                "<anon:pc%llu>",
                static_cast<unsigned long long>(rec.addr));
        }
        cfgFor(callee);
        threads_[rec.tid].push_back(Frame{callee, kNoNode});
        ++out_.stats.framesOpened;
        break;
      }

      case RecordKind::Ret: {
        auto &stack = threads_[rec.tid];
        if (stack.empty()) {
            // Trace began mid-function; treat as toplevel glue.
            out_.funcOf.push_back(step(rec.tid, rec.pc, false));
            break;
        }
        Frame &frame = stack.back();
        Cfg &cfg = cfgFor(frame.func);
        const NodeId node = cfg.nodeFor(rec.pc);
        const NodeId from =
            frame.lastNode == kNoNode ? Cfg::kEntry : frame.lastNode;
        cfg.addEdge(from, node);
        cfg.addEdge(node, Cfg::kExit);
        out_.funcOf.push_back(frame.func);
        stack.pop_back();
        ++out_.stats.framesClosed;
        break;
      }

      default:
        out_.funcOf.push_back(
            step(rec.tid, rec.pc, rec.kind == RecordKind::Branch));
        break;
    }
}

inline CfgSet
CfgBuilder::finish()
{
    panic_if(finished_, "finish called twice");
    finished_ = true;

    // Close any frames still open at the end of the trace so every node
    // can reach the virtual exit (postdominators need this).
    for (auto &kv : threads_) {
        out_.stats.framesOpenAtEnd += kv.second.size();
        for (auto it = kv.second.rbegin(); it != kv.second.rend(); ++it) {
            Cfg &cfg = out_.byFunc.at(it->func);
            const NodeId from =
                it->lastNode == kNoNode ? Cfg::kEntry : it->lastNode;
            cfg.addEdge(from, Cfg::kExit);
        }
    }

    // Defensive: any node with no successors (shouldn't happen after the
    // close-out above, but keeps postdominator computation total).
    for (auto &kv : out_.byFunc) {
        Cfg &cfg = kv.second;
        for (size_t n = 0; n < cfg.nodeCount(); ++n) {
            if (n != static_cast<size_t>(Cfg::kExit) &&
                cfg.succs[n].empty()) {
                cfg.addEdge(static_cast<NodeId>(n), Cfg::kExit);
            }
        }
    }

    MetricRegistry::global().counter("cfg.records_fed")
        .add(out_.funcOf.size());

    return std::move(out_);
}

/** Build the reference CfgSet for an in-memory trace. */
inline CfgSet
referenceCfgs(std::span<const Record> records,
              const trace::SymbolTable &symtab)
{
    CfgBuilder builder(symtab);
    for (const Record &rec : records)
        builder.feed(rec);
    return builder.finish();
}

/**
 * Expect `actual` to equal `expected` in every field: attribution,
 * synthetic names, feed totals, and each CFG's node numbering, pc map,
 * edges in insertion order and branch flags.
 */
inline void
expectSameCfgSet(const CfgSet &expected, const CfgSet &actual)
{
    EXPECT_EQ(expected.funcOf, actual.funcOf);
    EXPECT_EQ(expected.firstSynthetic, actual.firstSynthetic);
    EXPECT_EQ(expected.syntheticNames, actual.syntheticNames);
    EXPECT_EQ(expected.stats.transitionsObserved,
              actual.stats.transitionsObserved);
    EXPECT_EQ(expected.stats.framesOpened, actual.stats.framesOpened);
    EXPECT_EQ(expected.stats.framesClosed, actual.stats.framesClosed);
    EXPECT_EQ(expected.stats.framesOpenAtEnd,
              actual.stats.framesOpenAtEnd);
    ASSERT_EQ(expected.byFunc.size(), actual.byFunc.size());
    for (const auto &[func, want] : expected.byFunc) {
        const auto it = actual.byFunc.find(func);
        ASSERT_NE(it, actual.byFunc.end()) << "missing function " << func;
        const Cfg &got = it->second;
        EXPECT_EQ(want.func, got.func);
        EXPECT_EQ(want.nodePc, got.nodePc) << "function " << func;
        EXPECT_EQ(want.pcNode, got.pcNode) << "function " << func;
        EXPECT_EQ(want.succs, got.succs) << "function " << func;
        EXPECT_EQ(want.preds, got.preds) << "function " << func;
        EXPECT_EQ(want.isBranch, got.isBranch) << "function " << func;
    }
}

} // namespace reference
} // namespace graph
} // namespace webslice

#endif // WEBSLICE_TESTS_REFERENCE_CFG_BUILDER_HH
