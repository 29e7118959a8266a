#include "graph/cfg.hh"

#include <algorithm>

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

// ---- the forward builder ---------------------------------------------------

namespace {

/**
 * The forward pass: feed() every record in trace order, then finish().
 * feed() does the inherently sequential work (call/return frame matching,
 * synthetic-function assignment, per-record attribution) and appends one
 * compact transition per record to its function's stream, unless the
 * stream's duplicate filter still holds it. finish(jobs) replays each
 * function's stream independently into nodes and edges.
 */
class ForwardBuilder
{
  public:
    /** `record_count` records will be fed; the attribution array is
     *  sized for exactly that many. */
    ForwardBuilder(const trace::SymbolTable &symtab, size_t record_count);

    /**
     * Consume the next record (records must arrive in trace order).
     * Defined in the class so that both entry points' loops inline the
     * common case, a plain record on the thread the cache holds; calls
     * and returns go out of line.
     */
    void
    feed(const Record &rec)
    {
        panic_if(fed_ >= out_.funcOf.size(), "record ", fed_,
                 " is past the announced trace length");
        const size_t idx = fed_++;
        FuncId *const func_of = out_.funcOf.data();

        if (rec.isPseudo()) {
            // Inherit the enclosing function of the preceding syscall.
            func_of[idx] = idx ? func_of[idx - 1] : trace::kNoFunc;
            return;
        }

        ++out_.stats.transitionsObserved;

        switch (rec.kind) {
          case RecordKind::Call:
            func_of[idx] = call(rec);
            break;

          case RecordKind::Ret:
            func_of[idx] = ret(rec);
            break;

          default: {
            const bool is_branch = rec.kind == RecordKind::Branch;
            if (cacheFrame_ && rec.tid == cacheTid_) {
                Frame &frame = *cacheFrame_;
                cacheStream_->emit(frame.lastPc, rec.pc,
                                   is_branch ? uint8_t{kTransBranch}
                                             : uint8_t{0});
                frame.lastPc = rec.pc;
                func_of[idx] = frame.func;
                break;
            }
            func_of[idx] = step(rec.tid, rec.pc, is_branch);
            break;
          }
        }
    }

    /** Replay the transitions on `jobs` threads and return the result;
     *  the builder is spent. */
    CfgSet finish(int jobs);

  private:
    struct Frame
    {
        FuncId func = trace::kNoFunc;
        Pc lastPc = trace::kNoPc; ///< kNoPc means "at entry".
    };

    /** One CFG-affecting event within a function. */
    struct Transition
    {
        Pc from = trace::kNoPc; ///< kNoPc means the virtual entry.
        Pc to = trace::kNoPc;
        uint8_t flags = 0;
    };

    enum : uint8_t
    {
        kTransBranch = 1 << 0, ///< `to` executed a Branch record.
        kTransRet = 1 << 1,    ///< `to` returns (edge to virtual exit).
        kTransClose = 1 << 2,  ///< Frame left open at end of trace.
    };

    static constexpr size_t kFilterSlots = 4096;

    /** A function's transition stream plus its duplicate filter. */
    struct FuncStream
    {
        std::vector<Transition> steps;
        uint64_t filtered = 0; ///< Duplicate transitions dropped.

        struct FilterEntry
        {
            Pc from = 0;
            Pc to = 0;
            uint8_t flags = 0;
            uint8_t valid = 0;
        };
        std::vector<FilterEntry> filter; ///< Allocated on first touch.

        void
        emit(Pc from, Pc to, uint8_t flags)
        {
            const size_t slot = (from * 2654435761u ^ to) &
                                (kFilterSlots - 1);
            FilterEntry &e = filter[slot];
            if (e.valid && e.from == from && e.to == to &&
                e.flags == flags) {
                ++filtered; // transition already recorded
                return;
            }
            e = FilterEntry{from, to, flags, 1};
            steps.push_back(Transition{from, to, flags});
        }
    };

    std::vector<Frame> &stackFor(trace::ThreadId tid);
    Frame &topFrame(trace::ThreadId tid);
    void touchFunc(FuncId func);
    FuncId step(trace::ThreadId tid, Pc pc, bool is_branch);
    FuncId call(const Record &rec);
    FuncId ret(const Record &rec);

    const trace::SymbolTable &symtab_;
    CfgSet out_;
    size_t fed_ = 0; ///< Records fed so far: the next funcOf slot.
    std::vector<FuncStream> funcs_;     ///< Indexed by (dense) FuncId.
    std::vector<uint8_t> touched_;      ///< Parallel to funcs_.
    std::vector<FuncId> funcOrder_;     ///< First-touch order.
    std::vector<std::vector<Frame>> threads_; ///< Indexed by ThreadId.
    FuncId nextSynthetic_;

    // One-entry hot-path cache: traces run long same-thread stretches
    // without calls or returns, so the top frame and its function's
    // stream are the same record after record. The Frame pointer
    // survives growth of threads_ itself (moving an inner vector does
    // not move its heap buffer); any push/pop on the same thread's stack
    // or growth of funcs_ goes through the slow path, which recomputes
    // the cache.
    trace::ThreadId cacheTid_ = 0;
    Frame *cacheFrame_ = nullptr;
    FuncStream *cacheStream_ = nullptr;
};

ForwardBuilder::ForwardBuilder(const trace::SymbolTable &symtab,
                               size_t record_count)
    : symtab_(symtab)
{
    out_.firstSynthetic = static_cast<FuncId>(symtab.functionCount());
    nextSynthetic_ = out_.firstSynthetic;
    out_.funcOf.resize(record_count, trace::kNoFunc);
    // Registered functions are known upfront; synthetics grow the arrays
    // on demand in touchFunc().
    funcs_.resize(symtab.functionCount());
    touched_.resize(symtab.functionCount(), 0);
}

void
ForwardBuilder::touchFunc(FuncId func)
{
    if (func >= funcs_.size()) {
        funcs_.resize(func + 1);
        touched_.resize(func + 1, 0);
    }
    if (!touched_[func]) {
        touched_[func] = 1;
        funcOrder_.push_back(func);
        funcs_[func].filter.resize(kFilterSlots);
    }
}

std::vector<ForwardBuilder::Frame> &
ForwardBuilder::stackFor(trace::ThreadId tid)
{
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    return threads_[tid];
}

ForwardBuilder::Frame &
ForwardBuilder::topFrame(trace::ThreadId tid)
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
ForwardBuilder::step(trace::ThreadId tid, Pc pc, bool is_branch)
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

/** Open the callee's frame; returns the caller (who owns the call). */
FuncId
ForwardBuilder::call(const Record &rec)
{
    const FuncId caller = step(rec.tid, rec.pc, false);

    FuncId callee = symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
    if (callee == trace::kNoFunc) {
        // Call into an unregistered target: synthesize a function.
        callee = nextSynthetic_++;
        out_.syntheticNames[callee] = format(
            "<anon:pc%llu>", static_cast<unsigned long long>(rec.addr));
    }
    touchFunc(callee);
    threads_[rec.tid].push_back(Frame{callee, trace::kNoPc});
    ++out_.stats.framesOpened;
    cacheTid_ = rec.tid;
    cacheFrame_ = &threads_[rec.tid].back();
    cacheStream_ = &funcs_[callee];
    return caller;
}

/** Close the top frame; returns the function the return belongs to. */
FuncId
ForwardBuilder::ret(const Record &rec)
{
    auto &stack = stackFor(rec.tid);
    if (stack.empty()) {
        // Trace began mid-function; treat as toplevel glue.
        return step(rec.tid, rec.pc, false);
    }
    const Frame frame = stack.back();
    funcs_[frame.func].emit(frame.lastPc, rec.pc, kTransRet);
    stack.pop_back();
    ++out_.stats.framesClosed;
    cacheTid_ = rec.tid;
    cacheFrame_ = stack.empty() ? nullptr : &stack.back();
    cacheStream_ = stack.empty() ? nullptr : &funcs_[stack.back().func];
    return frame.func;
}

CfgSet
ForwardBuilder::finish(int jobs)
{
    panic_if(fed_ != out_.funcOf.size(), "fed ", fed_, " of ",
             out_.funcOf.size(), " announced records");

    // Feeding is over: free the filters before the replay allocates the
    // CFGs, so that it reuses their memory instead of adding to it.
    for (FuncStream &fs : funcs_)
        fs.filter = std::vector<FuncStream::FilterEntry>();

    // Close frames still open at the end of the trace so every node can
    // reach the virtual exit (postdominators need this).
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
    // are assigned in first-use order of the `to` pcs, and the streams
    // keep first occurrences in trace order, so the result does not
    // depend on the thread count.
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
        // Defensive: any node with no successors (the close-out above
        // should leave none) still gets an exit edge, which keeps the
        // postdominator computation total.
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

} // namespace

CfgSet
buildCfgs(std::span<const Record> records,
          const trace::SymbolTable &symtab, int jobs)
{
    ForwardBuilder builder(symtab, records.size());
    for (const Record &rec : records)
        builder.feed(rec);
    return builder.finish(jobs);
}

CfgSet
buildCfgsFromFile(const std::string &path,
                  const trace::SymbolTable &symtab, int jobs)
{
    trace::TraceReader reader(path, trace::TraceReader::Direction::Forward);
    ForwardBuilder builder(symtab, reader.count());
    Record rec;
    while (reader.next(rec))
        builder.feed(rec);
    return builder.finish(jobs);
}

} // namespace graph
} // namespace webslice
