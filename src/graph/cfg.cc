#include "graph/cfg.hh"

#include <algorithm>
#include <thread>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "support/thread_pool.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace graph {

using trace::FuncId;
using trace::Pc;
using trace::Record;
using trace::RecordKind;

NodeId
Cfg::nodeFor(Pc pc)
{
    auto it = pcNode.find(pc);
    if (it != pcNode.end())
        return it->second;
    const NodeId id = static_cast<NodeId>(nodePc.size());
    nodePc.push_back(pc);
    pcNode.emplace(pc, id);
    succs.emplace_back();
    preds.emplace_back();
    isBranch.push_back(false);
    return id;
}

NodeId
Cfg::findNode(Pc pc) const
{
    auto it = pcNode.find(pc);
    return it == pcNode.end() ? kNoNode : it->second;
}

void
Cfg::addEdge(NodeId a, NodeId b)
{
    auto &out = succs[a];
    if (std::find(out.begin(), out.end(), b) != out.end())
        return;
    out.push_back(b);
    preds[b].push_back(a);
}

std::string
CfgSet::functionName(FuncId id, const trace::SymbolTable &symtab) const
{
    auto it = syntheticNames.find(id);
    if (it != syntheticNames.end())
        return it->second;
    if (id < symtab.functionCount())
        return symtab.symbol(id).name;
    return format("<unknown:%u>", id);
}

Pc
CfgSet::entryPcOf(FuncId id) const
{
    auto it = byFunc.find(id);
    if (it == byFunc.end())
        return trace::kNoPc;
    const Cfg &cfg = it->second;
    // Node 2 is the first real pc the function ever executed (nodes 0/1
    // are the virtual entry/exit); for symbol-registered functions that
    // is the function's entry pc, for synthetics it is the first glue pc.
    return cfg.nodePc.size() > 2 ? cfg.nodePc[2] : trace::kNoPc;
}

std::vector<FuncId>
CfgSet::functionsByEntryPc() const
{
    std::vector<FuncId> order;
    order.reserve(byFunc.size());
    for (const auto &[id, cfg] : byFunc)
        order.push_back(id);
    std::sort(order.begin(), order.end(), [this](FuncId a, FuncId b) {
        const Pc pa = entryPcOf(a);
        const Pc pb = entryPcOf(b);
        if (pa != pb)
            return pa < pb;
        return a < b;
    });
    return order;
}

// ---- CfgBuilder -------------------------------------------------------------

CfgBuilder::CfgBuilder(const trace::SymbolTable &symtab)
    : symtab_(symtab)
{
    out_.firstSynthetic = static_cast<FuncId>(symtab.functionCount());
    nextSynthetic_ = out_.firstSynthetic;
}

Cfg &
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

CfgBuilder::Frame &
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

FuncId
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

void
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

CfgSet
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

// ---- ParallelCfgBuilder -----------------------------------------------------

size_t ParallelCfgBuilder::shardOverrideForTesting = 0;

ParallelCfgBuilder::ParallelCfgBuilder(const trace::SymbolTable &symtab)
    : symtab_(symtab)
{
    out_.firstSynthetic = static_cast<FuncId>(symtab.functionCount());
    nextSynthetic_ = out_.firstSynthetic;
    // Registered functions are known upfront; synthetics grow the arrays
    // on demand in touchFunc().
    funcs_.resize(symtab.functionCount());
    touched_.resize(symtab.functionCount(), 0);
}

void
ParallelCfgBuilder::reserveRecords(size_t count)
{
    out_.funcOf.reserve(count);
}

void
ParallelCfgBuilder::touchFunc(FuncId func)
{
    if (func >= funcs_.size()) {
        funcs_.resize(func + 1);
        touched_.resize(func + 1, 0);
    }
    if (!touched_[func]) {
        touched_[func] = 1;
        funcOrder_.push_back(func);
    }
}

std::vector<ParallelCfgBuilder::Frame> &
ParallelCfgBuilder::stackFor(trace::ThreadId tid)
{
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    return threads_[tid];
}

ParallelCfgBuilder::Frame &
ParallelCfgBuilder::topFrame(trace::ThreadId tid)
{
    auto &stack = stackFor(tid);
    if (stack.empty()) {
        const FuncId synthetic = nextSynthetic_++;
        out_.syntheticNames[synthetic] = format("<toplevel:tid%u>", tid);
        touchFunc(synthetic);
        stack.push_back(Frame{synthetic, trace::kNoPc});
        ++out_.stats.framesOpened;
    }
    return stack.back();
}

FuncId
ParallelCfgBuilder::step(trace::ThreadId tid, Pc pc, bool is_branch)
{
    Frame &frame = topFrame(tid);
    funcs_[frame.func].emit(frame.lastPc, pc,
                            is_branch ? uint8_t{kTransBranch}
                                      : uint8_t{0});
    frame.lastPc = pc;
    // topFrame may have grown funcs_ (toplevel creation), so compute the
    // cached pointers only now.
    cacheTid_ = tid;
    cacheFrame_ = &frame;
    cacheStream_ = &funcs_[frame.func];
    return frame.func;
}

void
ParallelCfgBuilder::feed(const Record &rec)
{
    panic_if(finished_, "feed after finish");

    if (rec.isPseudo()) {
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
            callee = nextSynthetic_++;
            out_.syntheticNames[callee] = format(
                "<anon:pc%llu>",
                static_cast<unsigned long long>(rec.addr));
        }
        touchFunc(callee);
        threads_[rec.tid].push_back(Frame{callee, trace::kNoPc});
        ++out_.stats.framesOpened;
        cacheTid_ = rec.tid;
        cacheFrame_ = &threads_[rec.tid].back();
        cacheStream_ = &funcs_[callee];
        break;
      }

      case RecordKind::Ret: {
        auto &stack = stackFor(rec.tid);
        if (stack.empty()) {
            // Trace began mid-function; treat as toplevel glue.
            out_.funcOf.push_back(step(rec.tid, rec.pc, false));
            break;
        }
        Frame &frame = stack.back();
        funcs_[frame.func].emit(frame.lastPc, rec.pc, kTransRet);
        out_.funcOf.push_back(frame.func);
        stack.pop_back();
        ++out_.stats.framesClosed;
        cacheTid_ = rec.tid;
        cacheFrame_ = stack.empty() ? nullptr : &stack.back();
        cacheStream_ =
            stack.empty() ? nullptr : &funcs_[stack.back().func];
        break;
      }

      default: {
        if (cacheFrame_ && rec.tid == cacheTid_) {
            Frame &frame = *cacheFrame_;
            cacheStream_->emit(frame.lastPc, rec.pc,
                               rec.kind == RecordKind::Branch
                                   ? uint8_t{kTransBranch}
                                   : uint8_t{0});
            frame.lastPc = rec.pc;
            out_.funcOf.push_back(frame.func);
            break;
        }
        out_.funcOf.push_back(
            step(rec.tid, rec.pc, rec.kind == RecordKind::Branch));
        break;
      }
    }
}

/**
 * One shard of the parallel feed: the starting call stacks (from the
 * structure pass), the synthetic ids the structure pass assigned to
 * events inside this shard's record range, the per-function streams the
 * shard emits, and the placeholder transitions that need their `from` pc
 * patched in from the previous shard.
 */
struct ParallelCfgBuilder::Shard
{
    std::vector<std::vector<Frame>> stacks; ///< Indexed by ThreadId.
    std::vector<FuncStream> funcs;          ///< Indexed by FuncId.
    std::vector<trace::FuncId> preallocated; ///< Synthetics, in order.
    size_t nextPrealloc = 0;

    struct Patch
    {
        trace::FuncId func;
        uint32_t step;
        trace::ThreadId tid;
    };
    std::vector<Patch> patches;
};

void
ParallelCfgBuilder::runShard(Shard &shard,
                             std::span<const Record> records,
                             size_t begin, size_t end)
{
    shard.funcs.resize(funcs_.size());

    // Function of the previous record, for pseudo-record inheritance.
    // Records before the shard's first non-pseudo one are attributed
    // serially afterwards (their predecessor lives in another shard).
    FuncId last_func = trace::kNoFunc;
    bool seeded = false;

    const auto take_synthetic = [&shard]() -> FuncId {
        panic_if(shard.nextPrealloc >= shard.preallocated.size(),
                 "shard ran out of pre-assigned synthetic functions");
        return shard.preallocated[shard.nextPrealloc++];
    };
    const auto stack_of =
        [&shard](trace::ThreadId tid) -> std::vector<Frame> & {
        if (tid >= shard.stacks.size())
            shard.stacks.resize(tid + 1);
        return shard.stacks[tid];
    };
    const auto emit = [&shard](trace::ThreadId tid, FuncId func, Pc from,
                               Pc to, uint8_t flags) {
        panic_if(func >= shard.funcs.size(),
                 "shard touched a function the structure pass missed");
        FuncStream &fs = shard.funcs[func];
        if (from == kPatchPc) {
            // Predecessor pc lives in the previous shard; record the
            // transition unfiltered and patch `from` in serially later.
            shard.patches.push_back(Shard::Patch{
                func, static_cast<uint32_t>(fs.steps.size()), tid});
            fs.steps.push_back(Transition{from, to, flags});
            return;
        }
        fs.emit(from, to, flags);
    };
    const auto step = [&](trace::ThreadId tid, Pc pc,
                          bool is_branch) -> FuncId {
        auto &stack = stack_of(tid);
        if (stack.empty())
            stack.push_back(Frame{take_synthetic(), trace::kNoPc});
        Frame &frame = stack.back();
        emit(tid, frame.func, frame.lastPc, pc,
             is_branch ? uint8_t{kTransBranch} : uint8_t{0});
        frame.lastPc = pc;
        return frame.func;
    };

    for (size_t idx = begin; idx < end; ++idx) {
        const Record &rec = records[idx];

        if (rec.isPseudo()) {
            if (seeded)
                out_.funcOf[idx] = last_func;
            continue;
        }

        switch (rec.kind) {
          case RecordKind::Call: {
            out_.funcOf[idx] = step(rec.tid, rec.pc, false);
            FuncId callee =
                symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
            if (callee == trace::kNoFunc)
                callee = take_synthetic();
            stack_of(rec.tid).push_back(Frame{callee, trace::kNoPc});
            break;
          }

          case RecordKind::Ret: {
            auto &stack = stack_of(rec.tid);
            if (stack.empty()) {
                out_.funcOf[idx] = step(rec.tid, rec.pc, false);
                break;
            }
            Frame &frame = stack.back();
            emit(rec.tid, frame.func, frame.lastPc, rec.pc, kTransRet);
            out_.funcOf[idx] = frame.func;
            stack.pop_back();
            break;
          }

          default:
            out_.funcOf[idx] =
                step(rec.tid, rec.pc, rec.kind == RecordKind::Branch);
            break;
        }

        last_func = out_.funcOf[idx];
        seeded = true;
    }

    panic_if(shard.nextPrealloc != shard.preallocated.size(),
             "shard did not consume every pre-assigned synthetic");
}

void
ParallelCfgBuilder::feedAll(std::span<const Record> records, int jobs)
{
    panic_if(finished_, "feedAll after finish");
    panic_if(!out_.funcOf.empty(), "feedAll requires a fresh builder");

    // Sharding does strictly more total work than the serial feed (the
    // structure pass re-reads the trace), so it only pays off when real
    // cores can run the shards concurrently: clamp to the hardware.
    const unsigned threads = ThreadPool::resolveJobs(jobs);
    size_t shards = std::min<size_t>(
        threads,
        std::max<size_t>(1, records.size() / kMinShardRecords));
    if (const unsigned hw = std::thread::hardware_concurrency())
        shards = std::min<size_t>(shards, hw);
    if (shardOverrideForTesting) {
        shards = std::min(shardOverrideForTesting,
                          std::max<size_t>(1, records.size()));
    }
    if (shards <= 1) {
        // Serial feed, specialized for a known trace length: the same
        // logic as feed(), but the attribution array is sized upfront
        // and written through a raw pointer — per-record push_back
        // bookkeeping is measurable at this loop's throughput.
        out_.funcOf.resize(records.size(), trace::kNoFunc);
        FuncId *const func_of = out_.funcOf.data();
        for (size_t idx = 0; idx < records.size(); ++idx) {
            const Record &rec = records[idx];
            if (rec.isPseudo()) {
                func_of[idx] = idx ? func_of[idx - 1] : trace::kNoFunc;
                continue;
            }
            ++out_.stats.transitionsObserved;
            switch (rec.kind) {
              case RecordKind::Call: {
                func_of[idx] = step(rec.tid, rec.pc, false);
                FuncId callee =
                    symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
                if (callee == trace::kNoFunc) {
                    callee = nextSynthetic_++;
                    out_.syntheticNames[callee] = format(
                        "<anon:pc%llu>",
                        static_cast<unsigned long long>(rec.addr));
                }
                touchFunc(callee);
                threads_[rec.tid].push_back(Frame{callee, trace::kNoPc});
                ++out_.stats.framesOpened;
                cacheTid_ = rec.tid;
                cacheFrame_ = &threads_[rec.tid].back();
                cacheStream_ = &funcs_[callee];
                break;
              }

              case RecordKind::Ret: {
                auto &stack = stackFor(rec.tid);
                if (stack.empty()) {
                    func_of[idx] = step(rec.tid, rec.pc, false);
                    break;
                }
                Frame &frame = stack.back();
                funcs_[frame.func].emit(frame.lastPc, rec.pc, kTransRet);
                func_of[idx] = frame.func;
                stack.pop_back();
                ++out_.stats.framesClosed;
                cacheTid_ = rec.tid;
                cacheFrame_ = stack.empty() ? nullptr : &stack.back();
                cacheStream_ =
                    stack.empty() ? nullptr : &funcs_[stack.back().func];
                break;
              }

              default: {
                if (cacheFrame_ && rec.tid == cacheTid_) {
                    Frame &frame = *cacheFrame_;
                    cacheStream_->emit(frame.lastPc, rec.pc,
                                       rec.kind == RecordKind::Branch
                                           ? uint8_t{kTransBranch}
                                           : uint8_t{0});
                    frame.lastPc = rec.pc;
                    func_of[idx] = frame.func;
                    break;
                }
                func_of[idx] = step(rec.tid, rec.pc,
                                    rec.kind == RecordKind::Branch);
                break;
              }
            }
        }
        return;
    }

    // Pseudo-records at shard boundaries are attributed in the fix-up
    // below; everything else is written by exactly one shard.
    out_.funcOf.assign(records.size(), trace::kNoFunc);

    std::vector<size_t> bounds(shards + 1);
    for (size_t w = 0; w <= shards; ++w)
        bounds[w] = records.size() * w / shards;

    // Structure pass: replay only the stack-shaping events (Call/Ret and
    // toplevel creation) so each shard starts from the right call
    // stacks, and assign synthetic function ids in exact serial order.
    // Top-frame lastPc values are not tracked here — each shard's
    // snapshot gets a placeholder instead, resolved after the shards
    // run.
    std::vector<Shard> shard_states(shards);
    {
        std::vector<std::vector<Frame>> stacks;
        size_t w = 0;

        const auto make_toplevel =
            [&](std::vector<Frame> &stack, trace::ThreadId tid) {
                const FuncId synthetic = nextSynthetic_++;
                out_.syntheticNames[synthetic] =
                    format("<toplevel:tid%u>", tid);
                touchFunc(synthetic);
                shard_states[w].preallocated.push_back(synthetic);
                stack.push_back(Frame{synthetic, trace::kNoPc});
                ++out_.stats.framesOpened;
            };

        for (size_t idx = 0; idx < records.size(); ++idx) {
            if (w + 1 < shards && idx == bounds[w + 1]) {
                ++w;
                auto snapshot = stacks;
                for (auto &stack : snapshot) {
                    if (!stack.empty())
                        stack.back().lastPc = kPatchPc;
                }
                shard_states[w].stacks = std::move(snapshot);
            }

            const Record &rec = records[idx];
            if (rec.isPseudo())
                continue;
            ++out_.stats.transitionsObserved;
            if (rec.tid >= stacks.size())
                stacks.resize(rec.tid + 1);
            auto &stack = stacks[rec.tid];

            switch (rec.kind) {
              case RecordKind::Call: {
                if (stack.empty())
                    make_toplevel(stack, rec.tid);
                stack.back().lastPc = rec.pc;
                FuncId callee =
                    symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
                if (callee == trace::kNoFunc) {
                    callee = nextSynthetic_++;
                    out_.syntheticNames[callee] = format(
                        "<anon:pc%llu>",
                        static_cast<unsigned long long>(rec.addr));
                    shard_states[w].preallocated.push_back(callee);
                }
                touchFunc(callee);
                stack.push_back(Frame{callee, trace::kNoPc});
                ++out_.stats.framesOpened;
                break;
              }

              case RecordKind::Ret:
                if (stack.empty()) {
                    make_toplevel(stack, rec.tid);
                    stack.back().lastPc = rec.pc;
                } else {
                    stack.pop_back();
                    ++out_.stats.framesClosed;
                }
                break;

              default:
                if (stack.empty())
                    make_toplevel(stack, rec.tid);
                break;
            }
        }
    }

    {
        ThreadPool pool(static_cast<unsigned>(shards) - 1);
        pool.parallelFor(0, shards, [&](size_t w) {
            runShard(shard_states[w], records, bounds[w], bounds[w + 1]);
        });
    }

    // Resolve the placeholder predecessors: walk shards in trace order
    // carrying each thread's top-frame lastPc forward. A shard that saw
    // no records of a thread leaves its stacks (and any placeholder)
    // untouched, so the carried value stays correct across it.
    std::vector<Pc> last_pc; // per tid; kPatchPc = not yet known
    for (size_t w = 0; w < shards; ++w) {
        Shard &shard = shard_states[w];
        for (const auto &patch : shard.patches) {
            panic_if(patch.tid >= last_pc.size() ||
                         last_pc[patch.tid] == kPatchPc,
                     "cross-shard predecessor has no source");
            shard.funcs[patch.func].steps[patch.step].from =
                last_pc[patch.tid];
        }
        if (shard.stacks.size() > last_pc.size())
            last_pc.resize(shard.stacks.size(), kPatchPc);
        for (size_t tid = 0; tid < shard.stacks.size(); ++tid) {
            auto &stack = shard.stacks[tid];
            if (stack.empty())
                continue;
            if (stack.back().lastPc == kPatchPc) {
                // Untouched by this shard; inherit for the close-out.
                panic_if(last_pc[tid] == kPatchPc,
                         "cross-shard predecessor has no source");
                stack.back().lastPc = last_pc[tid];
            }
            last_pc[tid] = stack.back().lastPc;
        }
    }

    // Concatenate the shard streams in trace order; contiguous ranges
    // mean this preserves global first-occurrence order exactly.
    for (size_t func = 0; func < funcs_.size(); ++func) {
        auto &dst = funcs_[func].steps;
        for (auto &shard : shard_states) {
            if (func >= shard.funcs.size())
                continue;
            funcs_[func].filtered += shard.funcs[func].filtered;
            auto &src = shard.funcs[func].steps;
            if (dst.empty())
                dst = std::move(src);
            else
                dst.insert(dst.end(), src.begin(), src.end());
        }
    }

    // The final shard's stacks are the frames still open at trace end.
    threads_ = std::move(shard_states.back().stacks);

    // Pseudo-records leading a shard inherit across the boundary.
    for (size_t w = 1; w < shards; ++w) {
        for (size_t idx = bounds[w];
             idx < bounds[w + 1] && records[idx].isPseudo(); ++idx) {
            out_.funcOf[idx] = out_.funcOf[idx - 1];
        }
    }
}

CfgSet
ParallelCfgBuilder::finish(int jobs)
{
    panic_if(finished_, "finish called twice");
    finished_ = true;

    // Close frames still open at the end of the trace (mirrors
    // CfgBuilder::finish so every node can reach the virtual exit).
    for (auto &stack : threads_) {
        out_.stats.framesOpenAtEnd += stack.size();
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            funcs_[it->func].steps.push_back(
                Transition{it->lastPc, trace::kNoPc, kTransClose});
        }
    }

    // Create every Cfg entry serially; the parallel phase below only
    // mutates the per-function values, never the map itself.
    for (const FuncId func : funcOrder_) {
        Cfg &cfg = out_.byFunc[func];
        cfg.func = func;
        cfg.nodePc.assign(2, trace::kNoPc);
        cfg.succs.assign(2, {});
        cfg.preds.assign(2, {});
        cfg.isBranch.assign(2, false);
    }

    // Longest streams first so the pool's work stays balanced even when
    // one function (an interpreter loop, say) dominates the trace.
    std::vector<FuncId> order = funcOrder_;
    std::sort(order.begin(), order.end(),
              [this](FuncId a, FuncId b) {
                  const size_t na = funcs_[a].steps.size();
                  const size_t nb = funcs_[b].steps.size();
                  return na != nb ? na > nb : a < b;
              });

    // Replay each function's transition stream independently. Node ids
    // are assigned in first-use order of the `to` pcs, exactly as the
    // serial builder assigns them, so the result is bit-identical.
    const auto replay = [this, &order](size_t i) {
        const FuncId func = order[i];
        Cfg &cfg = out_.byFunc.at(func);
        for (const Transition &t : funcs_[func].steps) {
            if (t.flags & kTransClose) {
                const NodeId from = t.from == trace::kNoPc
                                        ? Cfg::kEntry
                                        : cfg.nodeFor(t.from);
                cfg.addEdge(from, Cfg::kExit);
                continue;
            }
            const NodeId node = cfg.nodeFor(t.to);
            if (t.flags & kTransBranch)
                cfg.isBranch[node] = true;
            const NodeId from =
                t.from == trace::kNoPc ? Cfg::kEntry : cfg.nodeFor(t.from);
            cfg.addEdge(from, node);
            if (t.flags & kTransRet)
                cfg.addEdge(node, Cfg::kExit);
        }
        // Defensive no-successor fix-up, as in CfgBuilder::finish.
        for (size_t n = 0; n < cfg.nodeCount(); ++n) {
            if (n != static_cast<size_t>(Cfg::kExit) &&
                cfg.succs[n].empty()) {
                cfg.addEdge(static_cast<NodeId>(n), Cfg::kExit);
            }
        }
    };

    const unsigned threads = ThreadPool::resolveJobs(jobs);
    if (threads <= 1) {
        for (size_t i = 0; i < order.size(); ++i)
            replay(i);
    } else {
        ThreadPool pool(threads - 1);
        pool.parallelFor(0, order.size(), replay);
    }

    // Publish the feed's filtering effectiveness: replayed is the unique
    // transitions that survived the duplicate filter, filtered the drops.
    uint64_t replayed = 0, filtered = 0;
    for (const FuncStream &fs : funcs_) {
        replayed += fs.steps.size();
        filtered += fs.filtered;
    }
    auto &registry = MetricRegistry::global();
    registry.counter("cfg.records_fed").add(out_.funcOf.size());
    registry.counter("cfg.transitions_replayed").add(replayed);
    registry.counter("cfg.transitions_filtered").add(filtered);

    funcs_.clear();
    return std::move(out_);
}

CfgSet
buildCfgs(std::span<const Record> records,
          const trace::SymbolTable &symtab, int jobs)
{
    if (jobs == 1) {
        CfgBuilder builder(symtab);
        for (const auto &rec : records)
            builder.feed(rec);
        return builder.finish();
    }
    ParallelCfgBuilder builder(symtab);
    builder.feedAll(records, jobs);
    return builder.finish(jobs);
}

CfgSet
buildCfgsFromFile(const std::string &path,
                  const trace::SymbolTable &symtab, int jobs)
{
    trace::TraceReader reader(path, trace::TraceReader::Direction::Forward);
    Record rec;
    if (jobs == 1) {
        CfgBuilder builder(symtab);
        while (reader.next(rec))
            builder.feed(rec);
        return builder.finish();
    }
    ParallelCfgBuilder builder(symtab);
    builder.reserveRecords(reader.count());
    while (reader.next(rec))
        builder.feed(rec);
    return builder.finish(jobs);
}

} // namespace graph
} // namespace webslice
