#include "analysis/function_stats.hh"

#include <algorithm>
#include <unordered_map>

#include "support/logging.hh"

namespace webslice {
namespace analysis {

namespace {

/** One function id's counts, and the index of its earliest record. */
struct Tally
{
    uint64_t total = 0;
    uint64_t slice = 0;
    size_t first = 0;
};

} // namespace

std::vector<FunctionSliceStats>
computeFunctionStats(std::span<const trace::Record> records,
                     std::span<const uint8_t> in_slice,
                     const graph::CfgSet &cfgs,
                     const trace::SymbolTable &symtab)
{
    panic_if(records.size() != in_slice.size(),
             "records and slice verdicts must be parallel arrays");

    // Tally per id in a dense array. Id f lives in slot f + 1, so kNoFunc
    // wraps to slot 0 instead of sizing the array to 2^32.
    std::vector<Tally> tallies(1 + symtab.functionCount() +
                               cfgs.syntheticNames.size());
    for (size_t i = 0; i < records.size(); ++i) {
        if (records[i].isPseudo())
            continue;
        const uint32_t slot = cfgs.funcOf[i] + 1u;
        if (slot >= tallies.size())
            tallies.resize(size_t{slot} + 1);
        Tally &t = tallies[slot];
        if (t.total++ == 0)
            t.first = i;
        t.slice += in_slice[i] != 0;
    }

    // Merge ids by name: one functionName() call per id seen. A merged
    // row keeps the id whose first record came earliest.
    std::vector<FunctionSliceStats> out;
    std::vector<size_t> first_of_row;
    std::unordered_map<std::string, size_t> row_of;
    for (size_t slot = 0; slot < tallies.size(); ++slot) {
        const Tally &t = tallies[slot];
        if (t.total == 0)
            continue;
        const trace::FuncId func =
            slot == 0 ? trace::kNoFunc : static_cast<trace::FuncId>(slot - 1);
        std::string name = cfgs.functionName(func, symtab);
        const auto [it, fresh] = row_of.try_emplace(name, out.size());
        if (fresh) {
            out.push_back({func, std::move(name), t.total, t.slice});
            first_of_row.push_back(t.first);
            continue;
        }
        FunctionSliceStats &row = out[it->second];
        row.totalInstructions += t.total;
        row.sliceInstructions += t.slice;
        if (t.first < first_of_row[it->second]) {
            row.func = func;
            first_of_row[it->second] = t.first;
        }
    }

    std::sort(out.begin(), out.end(),
              [](const FunctionSliceStats &a, const FunctionSliceStats &b) {
                  if (a.totalInstructions != b.totalInstructions)
                      return a.totalInstructions > b.totalInstructions;
                  return a.name < b.name;
              });
    return out;
}

} // namespace analysis
} // namespace webslice
