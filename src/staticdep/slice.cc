#include "staticdep/slice.hh"

#include <algorithm>
#include <ostream>
#include <unordered_set>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/stopwatch.hh"

namespace webslice {
namespace staticdep {

using graph::Cfg;
using graph::NodeId;
using slicer::CriteriaMode;
using trace::FuncId;
using trace::Pc;
using trace::RegId;

StaticAnalysis
buildStaticAnalysis(std::span<const trace::Record> records,
                    const graph::CfgSet &cfgs,
                    const graph::ControlDepMap &deps,
                    const ModelOptions &options)
{
    StaticAnalysis analysis;
    {
        ScopedPhase phase("static-model");
        analysis.model = buildStaticModel(records, cfgs, options);
    }
    {
        ScopedPhase phase("static-fixpoints");
        analysis.summaries = computeSummaries(analysis.model);
        for (const FuncId func : analysis.model.order) {
            FuncDataflow df =
                computeReachingDefs(analysis.model, analysis.summaries, func);
            if (df.flowInsensitive)
                ++analysis.rdFallbacks;
            analysis.rd.emplace(func, std::move(df));
        }
    }
    analysis.deps = &deps;
    return analysis;
}

namespace {

/** The backward walk over the implicit static PDG. */
class Walk
{
  public:
    Walk(const StaticAnalysis &analysis, const trace::CriteriaSet &criteria,
         const StaticSliceOptions &options)
        : analysis_(analysis), model_(analysis.model), criteria_(criteria),
          options_(options)
    {
        for (const FuncId func : model_.order) {
            FuncWalk &fw = walk_[func];
            const size_t n = model_.funcModel(func).cfg->nodeCount();
            fw.reasons.assign(n, 0);
            fw.processed.assign(n, 0);
        }
        buildMemIndexes();
    }

    StaticSliceResult
    run()
    {
        seed();
        while (!items_.empty()) {
            const Item item = items_.back();
            items_.pop_back();
            switch (item.op) {
            case Op::Include:
                processInclude(item);
                break;
            case Op::DefsAt:
                processDefsAt(item);
                break;
            case Op::EntryDefs:
                processEntryDefs(item);
                break;
            case Op::ExitDefs:
                processExitDefs(item);
                break;
            }
        }
        return finalize();
    }

  private:
    enum class Op : uint8_t
    {
        Include,
        DefsAt,
        EntryDefs,
        ExitDefs,
    };

    struct Item
    {
        Op op;
        uint8_t reason = 0; ///< Include only.
        FuncId func = trace::kNoFunc;
        NodeId node = graph::kNoNode; ///< Include / DefsAt.
        RegId reg = trace::kNoReg;    ///< DefsAt / EntryDefs / ExitDefs.
    };

    struct FuncWalk
    {
        std::vector<uint8_t> reasons;
        std::vector<uint8_t> processed;
        bool tainted = false;
        std::unordered_set<uint64_t> regQueries; ///< node << 16 | reg.
        std::unordered_set<uint32_t> entryQueried;
        std::unordered_set<uint32_t> exitQueried;
    };

    void
    buildMemIndexes()
    {
        for (const FuncId func : model_.order) {
            const FuncModel &fm = model_.funcModel(func);
            for (size_t node = 0; node < fm.instrs.size(); ++node) {
                const StaticInstr &instr = fm.instrs[node];
                if (!instr.seen())
                    continue;
                const SiteRef ref{func, static_cast<NodeId>(node)};
                if (!instr.memWrites.empty()) {
                    const uint32_t idx =
                        static_cast<uint32_t>(writers_.size());
                    writers_.push_back(ref);
                    writerWoken_.push_back(0);
                    if (instr.memWrites.widened)
                        widenedWriters_.push_back(idx);
                    else
                        for (const uint64_t page : instr.memWrites.pages)
                            pageToWriters_[page].push_back(idx);
                }
                // In memory-only mode a Load whose loaded bytes are
                // demanded joins the dynamic slice directly; mirror that
                // by waking loads from the demanded-page set too.
                if (!options_.includeRegisterDeps &&
                    (instr.kinds & kSiteLoad) && !instr.memReads.empty()) {
                    const uint32_t idx =
                        static_cast<uint32_t>(readers_.size());
                    readers_.push_back(ref);
                    readerWoken_.push_back(0);
                    if (instr.memReads.widened)
                        widenedReaders_.push_back(idx);
                    else
                        for (const uint64_t page : instr.memReads.pages)
                            pageToReaders_[page].push_back(idx);
                }
            }
        }
    }

    void
    seed()
    {
        if (options_.mode == CriteriaMode::PixelBuffer) {
            for (const SiteRef site : model_.markerSites)
                push({Op::Include, kReachSeed, site.func, site.node});
            // Criteria bytes are demanded at every marker; the static
            // walk cannot tell ordinals apart, so demand the union.
            if (!model_.markerSites.empty())
                for (const trace::MemRange &range : criteria_.allRanges())
                    needRange(range.addr, range.size);
        } else {
            for (const SiteRef site : model_.syscallSites)
                push({Op::Include, kReachSeed, site.func, site.node});
        }
    }

    void push(Item item) { items_.push_back(item); }

    void
    processInclude(const Item &item)
    {
        FuncWalk &fw = walk_.at(item.func);
        fw.reasons[item.node] |= item.reason;
        if (fw.processed[item.node])
            return;
        fw.processed[item.node] = 1;
        ++result_.includedSites;

        const FuncModel &fm = model_.funcModel(item.func);
        const StaticInstr &instr = fm.instrs[item.node];

        // A pure Ret is structural: the dynamic slicer marks the Ret
        // record straight from its contributing Call without running the
        // include machinery, so it carries no dependences of its own.
        if (instr.kinds == kSiteRet)
            return;

        taint(item.func);

        if (options_.includeControlDeps) {
            for (const Pc branch_pc :
                 analysis_.deps->depsOf(item.func, instr.pc)) {
                // Pending-branch sets are per-thread and pc-keyed, so a
                // dynamic match may land in any function carrying this
                // branch pc; fan out to all of them.
                auto it = model_.sitesOfPc.find(branch_pc);
                if (it == model_.sitesOfPc.end())
                    continue;
                for (const SiteRef site : it->second) {
                    const StaticInstr *branch =
                        model_.instrAt(site.func, site.node);
                    if (!branch || !(branch->kinds & kSiteBranch))
                        continue;
                    ++result_.controlEdges;
                    push({Op::Include, kReachControl, site.func, site.node});
                }
            }
        }

        if (options_.includeRegisterDeps) {
            for (const RegId reg : instr.uses)
                push({Op::DefsAt, 0, item.func, item.node, reg});
        }

        // A joining Load makes its whole loaded footprint live; a
        // joining Syscall makes its read ranges live.
        if (instr.kinds & (kSiteLoad | kSiteSyscall))
            needSummary(instr.memReads);
    }

    void
    taint(FuncId func)
    {
        FuncWalk &fw = walk_.at(func);
        if (fw.tainted)
            return;
        fw.tainted = true;
        // A contributing function pulls in every observed call site of
        // itself (the dynamic Call joins when its frame contributed) and
        // every of its return sites (the joining Call marks the matching
        // Ret).
        auto callers = model_.callersOf.find(func);
        if (callers != model_.callersOf.end()) {
            for (const SiteRef site : callers->second) {
                ++result_.callEdges;
                push({Op::Include, kReachControl, site.func, site.node});
            }
        }
        for (const NodeId ret : model_.funcModel(func).retNodes) {
            ++result_.callEdges;
            push({Op::Include, kReachControl, func, ret});
        }
    }

    void
    processDefsAt(const Item &item)
    {
        FuncWalk &fw = walk_.at(item.func);
        const uint64_t key =
            (static_cast<uint64_t>(item.node) << 16) | item.reg;
        if (!fw.regQueries.insert(key).second)
            return;
        ++result_.rdQueries;

        const FuncDataflow &df = analysis_.rd.at(item.func);
        const FuncModel &fm = model_.funcModel(item.func);
        df.forEachDefReaching(
            item.node, item.reg, [&](const FuncDataflow::Def &def) {
                switch (def.src) {
                case FuncDataflow::DefSrc::Entry:
                    push({Op::EntryDefs, 0, item.func, graph::kNoNode,
                          item.reg});
                    break;
                case FuncDataflow::DefSrc::Instr:
                    ++result_.dataEdges;
                    push({Op::Include, kReachData, item.func, def.node});
                    break;
                case FuncDataflow::DefSrc::CallSummary:
                case FuncDataflow::DefSrc::Wildcard:
                    for (const FuncId callee : fm.callees[def.node]) {
                        if (!analysis_.summaries.of(callee).mayDefine(
                                item.reg))
                            continue;
                        push({Op::ExitDefs, 0, callee, graph::kNoNode,
                              item.reg});
                    }
                    break;
                }
            });
    }

    void
    processEntryDefs(const Item &item)
    {
        FuncWalk &fw = walk_.at(item.func);
        if (!fw.entryQueried.insert(item.reg).second)
            return;
        ++result_.entryPropagations;
        // The value came in from a caller: the defining site is whatever
        // reached each observed call site in each caller.
        auto callers = model_.callersOf.find(item.func);
        if (callers == model_.callersOf.end())
            return; // toplevel: the initial (zero) machine state
        for (const SiteRef site : callers->second)
            push({Op::DefsAt, 0, site.func, site.node, item.reg});
    }

    void
    processExitDefs(const Item &item)
    {
        FuncWalk &fw = walk_.at(item.func);
        if (!fw.exitQueried.insert(item.reg).second)
            return;
        ++result_.exitQueries;
        push({Op::DefsAt, 0, item.func, Cfg::kExit, item.reg});
    }

    // --- Memory demand --------------------------------------------------

    void
    needRange(uint64_t addr, uint64_t size)
    {
        if (size == 0)
            return;
        const uint64_t first = pageOf(addr);
        const uint64_t last = pageOf(addr + size - 1);
        for (uint64_t page = first;; ++page) {
            needPage(page);
            if (neededWidened_ || page == last)
                break;
        }
    }

    void
    needSummary(const PageSummary &summary)
    {
        if (summary.empty())
            return;
        if (summary.widened) {
            widenNeeded();
            return;
        }
        for (const uint64_t page : summary.pages) {
            needPage(page);
            if (neededWidened_)
                break;
        }
    }

    void
    needPage(uint64_t page)
    {
        if (neededWidened_)
            return;
        if (!neededPages_.insert(page).second)
            return;
        touchMem();
        if (neededPages_.size() > options_.neededPageCap) {
            widenNeeded();
            return;
        }
        if (auto it = pageToWriters_.find(page); it != pageToWriters_.end())
            for (const uint32_t idx : it->second)
                wakeWriter(idx);
        if (auto it = pageToReaders_.find(page); it != pageToReaders_.end())
            for (const uint32_t idx : it->second)
                wakeReader(idx);
    }

    /** Widened footprints overlap any demand; wake them on the first. */
    void
    touchMem()
    {
        if (anyMemNeeded_)
            return;
        anyMemNeeded_ = true;
        for (const uint32_t idx : widenedWriters_)
            wakeWriter(idx);
        for (const uint32_t idx : widenedReaders_)
            wakeReader(idx);
    }

    void
    widenNeeded()
    {
        if (neededWidened_)
            return;
        neededWidened_ = true;
        touchMem();
        for (uint32_t idx = 0; idx < writers_.size(); ++idx)
            wakeWriter(idx);
        for (uint32_t idx = 0; idx < readers_.size(); ++idx)
            wakeReader(idx);
        neededPages_.clear();
    }

    void
    wakeWriter(uint32_t idx)
    {
        if (writerWoken_[idx])
            return;
        writerWoken_[idx] = 1;
        ++result_.dataEdges;
        push({Op::Include, kReachData, writers_[idx].func,
              writers_[idx].node});
    }

    void
    wakeReader(uint32_t idx)
    {
        if (readerWoken_[idx])
            return;
        readerWoken_[idx] = 1;
        ++result_.dataEdges;
        push({Op::Include, kReachData, readers_[idx].func,
              readers_[idx].node});
    }

    StaticSliceResult
    finalize()
    {
        result_.siteUniverse = model_.siteCount;
        result_.neededPages = neededPages_.size();
        result_.neededWidened = neededWidened_;
        for (const FuncId func : model_.order) {
            const FuncWalk &fw = walk_.at(func);
            const FuncModel &fm = model_.funcModel(func);
            for (size_t node = 0; node < fw.reasons.size(); ++node) {
                if (fw.reasons[node] == 0)
                    continue;
                result_.byFuncPc[StaticSliceResult::key(
                    func, fm.instrs[node].pc)] |= fw.reasons[node];
            }
        }
        return std::move(result_);
    }

    const StaticAnalysis &analysis_;
    const StaticModel &model_;
    const trace::CriteriaSet &criteria_;
    const StaticSliceOptions &options_;

    std::unordered_map<FuncId, FuncWalk> walk_;
    std::vector<Item> items_;

    std::vector<SiteRef> writers_;
    std::vector<uint8_t> writerWoken_;
    std::vector<uint32_t> widenedWriters_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> pageToWriters_;

    std::vector<SiteRef> readers_;
    std::vector<uint8_t> readerWoken_;
    std::vector<uint32_t> widenedReaders_;
    std::unordered_map<uint64_t, std::vector<uint32_t>> pageToReaders_;

    std::unordered_set<uint64_t> neededPages_;
    bool neededWidened_ = false;
    bool anyMemNeeded_ = false;

    StaticSliceResult result_;
};

const char *
kindName(uint16_t bit)
{
    switch (bit) {
    case kSiteAlu:
        return "alu";
    case kSiteLoad:
        return "load";
    case kSiteStore:
        return "store";
    case kSiteBranch:
        return "branch";
    case kSiteJump:
        return "jump";
    case kSiteCall:
        return "call";
    case kSiteRet:
        return "ret";
    case kSiteSyscall:
        return "syscall";
    case kSiteMarker:
        return "marker";
    default:
        return "?";
    }
}

} // namespace

StaticSliceResult
computeStaticSlice(const StaticAnalysis &analysis,
                   const trace::CriteriaSet &criteria,
                   const StaticSliceOptions &options)
{
    ScopedPhase phase("static-backward");
    Walk walk(analysis, criteria, options);
    return walk.run();
}

void
dumpPdg(std::ostream &os, const StaticAnalysis &analysis,
        const trace::SymbolTable &symtab, const StaticSliceResult *result)
{
    const StaticModel &model = analysis.model;
    for (const FuncId func : model.order) {
        const FuncModel &fm = model.funcModel(func);
        const RegSummary &summary = analysis.summaries.of(func);
        os << "func " << model.cfgs->functionName(func, symtab) << " id="
           << func << " nodes=" << fm.cfg->nodeCount()
           << " mayDef=" << summary.mayDef.size()
           << " liveIn=" << summary.liveIn.size()
           << (summary.widened ? " widened" : "") << "\n";
        for (size_t node = 0; node < fm.instrs.size(); ++node) {
            const StaticInstr &instr = fm.instrs[node];
            if (!instr.seen())
                continue;
            os << "  n" << node << " pc=" << instr.pc << " [";
            bool first = true;
            for (uint16_t bit = 1; bit <= kSiteMarker; bit <<= 1) {
                if (!(instr.kinds & bit))
                    continue;
                os << (first ? "" : ",") << kindName(bit);
                first = false;
            }
            os << "]";
            if (!instr.uses.empty()) {
                std::vector<RegId> uses = instr.uses;
                std::sort(uses.begin(), uses.end());
                os << " use=";
                for (size_t i = 0; i < uses.size(); ++i)
                    os << (i ? "," : "") << uses[i];
            }
            if (!instr.defs.empty()) {
                std::vector<RegId> defs = instr.defs;
                std::sort(defs.begin(), defs.end());
                os << " def=";
                for (size_t i = 0; i < defs.size(); ++i)
                    os << (i ? "," : "") << defs[i];
                if (instr.strongDef)
                    os << "!";
            }
            if (!instr.memReads.empty())
                os << " rd_pages="
                   << (instr.memReads.widened
                           ? std::string("*")
                           : std::to_string(instr.memReads.pages.size()));
            if (!instr.memWrites.empty())
                os << " wr_pages="
                   << (instr.memWrites.widened
                           ? std::string("*")
                           : std::to_string(instr.memWrites.pages.size()));
            if (!fm.callees[node].empty()) {
                std::vector<FuncId> callees = fm.callees[node];
                std::sort(callees.begin(), callees.end());
                os << " calls=";
                for (size_t i = 0; i < callees.size(); ++i)
                    os << (i ? "," : "")
                       << model.cfgs->functionName(callees[i], symtab);
            }
            if (result) {
                const uint8_t reason = result->reasonOf(func, instr.pc);
                if (reason) {
                    os << " slice=";
                    if (reason & kReachSeed)
                        os << "S";
                    if (reason & kReachData)
                        os << "D";
                    if (reason & kReachControl)
                        os << "C";
                }
            }
            os << "\n";
        }
    }
}

void
publishStaticSliceMetrics(const StaticSliceResult &result)
{
    MetricRegistry &reg = MetricRegistry::global();
    reg.counter("staticdep.static_included").add(result.includedSites);
    reg.counter("staticdep.data_edges").add(result.dataEdges);
    reg.counter("staticdep.control_edges").add(result.controlEdges);
    reg.counter("staticdep.call_edges").add(result.callEdges);
    reg.counter("staticdep.rd_queries").add(result.rdQueries);
    reg.counter("staticdep.entry_propagations")
        .add(result.entryPropagations);
    reg.counter("staticdep.exit_queries").add(result.exitQueries);
    reg.gauge("staticdep.needed_pages").setMax(result.neededPages);
    if (result.neededWidened)
        reg.counter("staticdep.needed_widenings").add();
}

} // namespace staticdep
} // namespace webslice
