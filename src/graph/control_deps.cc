#include "graph/control_deps.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "graph/postdom.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace webslice {
namespace graph {

using trace::FuncId;
using trace::Pc;

std::span<const Pc>
ControlDepMap::depsOf(FuncId func, Pc pc) const
{
    panic_if(!sealed_, "control-dependence map queried after add() "
                       "without a seal()");
    // peek(), not find(): find() counts its probes, and a sealed map is
    // read by many threads at once, so a lookup must write nothing.
    const uint64_t *entry = index_.peek(key(func, pc));
    if (!entry)
        return {};
    return {pool_.data() + (*entry >> 20),
            static_cast<size_t>(*entry & 0xFFFFF)};
}

void
ControlDepMap::seal()
{
    index_.clear();
    index_.reserve(deps_.size());
    pool_.clear();
    for (const auto &kv : deps_) {
        const uint64_t offset = pool_.size();
        pool_.insert(pool_.end(), kv.second.begin(), kv.second.end());
        panic_if(kv.second.size() >= (1u << 20),
                 "control-dependence list too long for the index");
        index_.findOrInsert(kv.first) =
            (offset << 20) | kv.second.size();
    }
    sealed_ = true;
}

void
ControlDepMap::add(FuncId func, Pc pc, Pc branch_pc)
{
    auto &list = deps_[key(func, pc)];
    if (std::find(list.begin(), list.end(), branch_pc) == list.end()) {
        list.push_back(branch_pc);
        sealed_ = false;
    }
}

size_t
ControlDepMap::pairCount() const
{
    size_t total = 0;
    for (const auto &kv : deps_)
        total += kv.second.size();
    return total;
}

std::vector<std::tuple<FuncId, Pc, Pc>>
ControlDepMap::allPairs() const
{
    std::vector<std::tuple<FuncId, Pc, Pc>> out;
    out.reserve(pairCount());
    for (const auto &kv : deps_) {
        const auto func = static_cast<FuncId>(kv.first >> 32);
        const auto pc = static_cast<Pc>(kv.first & 0xFFFFFFFFull);
        for (const Pc branch : kv.second)
            out.emplace_back(func, pc, branch);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
ControlDepMap::save(const std::string &path) const
{
    std::ofstream out(path);
    fatal_if(!out, "cannot write control-dependence map to ", path);
    out << "webcdg 1\n";
    for (const auto &kv : deps_) {
        out << (kv.first >> 32) << ' '
            << (kv.first & 0xFFFFFFFFull) << ' ' << kv.second.size();
        for (const Pc branch : kv.second)
            out << ' ' << branch;
        out << '\n';
    }
    fatal_if(!out, "short write saving control-dependence map to ", path);
}

void
ControlDepMap::load(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read control-dependence map from ", path);

    // Line-based parsing so a malformed entry mid-file fails loudly with
    // its line number instead of silently truncating the map — slicing
    // with a partial CDG drops control dependences and shrinks the slice
    // without any other symptom.
    std::string line;
    size_t lineno = 0;
    fatal_if(!std::getline(in, line),
             "empty control-dependence map ", path);
    ++lineno;
    {
        std::istringstream fields(line);
        std::string magic;
        int version = 0;
        fields >> magic >> version;
        fatal_if(magic != "webcdg" || version != 1,
                 "bad control-dependence map header in ", path,
                 " line 1: '", line, "'");
    }

    deps_.clear();
    while (std::getline(in, line)) {
        ++lineno;
        std::istringstream fields(line);
        uint64_t func = 0, pc = 0;
        size_t count = 0;
        fields >> func >> pc >> count;
        fatal_if(fields.fail(), "malformed control-dependence entry in ",
                 path, " line ", lineno, ": '", line, "'");
        auto &list = deps_[key(static_cast<FuncId>(func),
                               static_cast<Pc>(pc))];
        list.resize(count);
        for (size_t i = 0; i < count; ++i) {
            fatal_if(!(fields >> list[i]),
                     "truncated branch list in ", path, " line ", lineno,
                     ": '", line, "'");
        }
        std::string extra;
        fatal_if(static_cast<bool>(fields >> extra),
                 "trailing garbage in ", path, " line ", lineno, ": '",
                 line, "'");
    }
    fatal_if(!in.eof(), "read error in control-dependence map ", path,
             " after line ", lineno);
    seal();
}

namespace {

/**
 * Per-function FOW computation: postdominators plus the dependence walk,
 * delivering (pc, branch pc) pairs to sink in discovery order. Shared by
 * the serial and the parallel driver so both produce the same pairs.
 */
template <typename Sink>
void
collectDeps(const Cfg &cfg, Sink &&sink)
{
    if (cfg.nodeCount() <= 2)
        return;

    const std::vector<NodeId> ipdom = computePostdoms(cfg);

    for (size_t a = 0; a < cfg.nodeCount(); ++a) {
        // Only executed Branch records can control other instructions;
        // multi-successor shapes from merged call paths are noise.
        if (!cfg.isBranch[a] || cfg.succs[a].size() < 2)
            continue;
        const NodeId node_a = static_cast<NodeId>(a);
        const Pc branch_pc = cfg.nodePc[a];

        for (const NodeId succ : cfg.succs[node_a]) {
            // Walk the postdominator tree from succ up to (exclusive)
            // ipdom(a); every node on the way is control-dependent
            // on a.
            NodeId t = succ;
            size_t guard = 0;
            while (t != kNoNode && t != ipdom[node_a] &&
                   t != Cfg::kExit) {
                if (cfg.nodePc[t] != trace::kNoPc) {
                    sink(cfg.nodePc[t], branch_pc);
                }
                t = ipdom[t];
                panic_if(++guard > cfg.nodeCount(),
                         "postdominator walk did not terminate");
            }
        }
    }
}

} // namespace

ControlDepMap
buildControlDeps(const CfgSet &cfgs, int jobs)
{
    ControlDepMap out;
    const unsigned threads = ThreadPool::resolveJobs(jobs);

    if (threads <= 1 || cfgs.byFunc.size() <= 1) {
        for (const auto &kv : cfgs.byFunc) {
            const Cfg &cfg = kv.second;
            collectDeps(cfg, [&out, &cfg](Pc pc, Pc branch_pc) {
                out.add(cfg.func, pc, branch_pc);
            });
        }
        out.seal();
        return out;
    }

    // One work item per function, largest CFGs first so the pool is not
    // left waiting on one big function scheduled last.
    std::vector<const Cfg *> work;
    work.reserve(cfgs.byFunc.size());
    for (const auto &kv : cfgs.byFunc)
        work.push_back(&kv.second);
    std::sort(work.begin(), work.end(),
              [](const Cfg *a, const Cfg *b) {
                  if (a->nodeCount() != b->nodeCount())
                      return a->nodeCount() > b->nodeCount();
                  return a->func < b->func;
              });

    std::vector<std::vector<std::pair<Pc, Pc>>> results(work.size());
    ThreadPool pool(threads - 1);
    pool.parallelFor(0, work.size(), [&](size_t i) {
        collectDeps(*work[i], [&results, i](Pc pc, Pc branch_pc) {
            results[i].emplace_back(pc, branch_pc);
        });
    });

    // Merge serially. Each (func, pc) key belongs to exactly one
    // function, and within a function the pairs arrive in the same order
    // the serial path adds them, so the map contents are identical.
    for (size_t i = 0; i < work.size(); ++i) {
        const FuncId func = work[i]->func;
        for (const auto &[pc, branch_pc] : results[i])
            out.add(func, pc, branch_pc);
    }
    out.seal();
    return out;
}

} // namespace graph
} // namespace webslice
