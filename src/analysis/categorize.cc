#include "analysis/categorize.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/strings.hh"

namespace webslice {
namespace analysis {

Categorizer
Categorizer::chromiumDefault()
{
    Categorizer c;
    c.addRule("v8", "JavaScript");
    c.addRule("debug", "Debugging");
    c.addRule("ipc", "IPC");
    c.addRule("base::threading", "Multi-threading");
    c.addRule("cc", "Compositing");
    c.addRule("gfx", "Graphics");
    c.addRule("css", "CSS");
    c.addRule("style", "CSS");
    c.addRule("scheduler", "Other");
    c.addRule("net", "Other");
    return c;
}

void
Categorizer::addRule(std::string namespace_path, std::string category)
{
    rules_[std::move(namespace_path)] = std::move(category);
}

std::string
Categorizer::categoryOf(std::string_view qualified_name) const
{
    // Try progressively shallower namespace paths: "a::b::c::f" checks
    // "a::b::c", then "a::b", then "a".
    const size_t last_sep = qualified_name.rfind("::");
    if (last_sep == std::string_view::npos)
        return {};
    std::string_view path = qualified_name.substr(0, last_sep);
    while (!path.empty()) {
        auto it = rules_.find(std::string(path));
        if (it != rules_.end())
            return it->second;
        const size_t sep = path.rfind("::");
        if (sep == std::string_view::npos)
            break;
        path = path.substr(0, sep);
    }
    return {};
}

const std::vector<std::string> &
Categorizer::reportOrder()
{
    static const std::vector<std::string> order = {
        "JavaScript",     "Debugging", "IPC", "Multi-threading",
        "Compositing",    "Graphics",  "CSS", "Other",
    };
    return order;
}

double
CategoryDistribution::sharePercent(const std::string &category) const
{
    const uint64_t categorized = totalUnnecessary - uncategorized;
    if (categorized == 0)
        return 0.0;
    auto it = counts.find(category);
    const uint64_t n = it == counts.end() ? 0 : it->second;
    return 100.0 * static_cast<double>(n) /
           static_cast<double>(categorized);
}

namespace {

/**
 * Function id -> category slot, filled lazily from the function's
 * qualified name (ids are dense enough to make a flat cache worthwhile).
 * Slot 0 is the empty category: functions with no mapped namespace.
 * Slots from 1 number the other category names in first-seen order.
 */
class CategoryTable
{
  public:
    CategoryTable(const graph::CfgSet &cfgs,
                  const trace::SymbolTable &symtab,
                  const Categorizer &categorizer)
        : cfgs_(cfgs), symtab_(symtab), categorizer_(categorizer)
    {}

    size_t
    slotOf(trace::FuncId func)
    {
        if (func < cached_.size() && cached_[func] != kUnresolved)
            return cached_[func];
        return resolve(func);
    }

    const std::string &name(size_t slot) const { return names_[slot]; }

  private:
    static constexpr uint8_t kUnresolved = 0xFF;

    size_t resolve(trace::FuncId func);

    const graph::CfgSet &cfgs_;
    const trace::SymbolTable &symtab_;
    const Categorizer &categorizer_;
    std::vector<uint8_t> cached_;
    std::vector<std::string> names_{std::string()};
};

size_t
CategoryTable::resolve(trace::FuncId func)
{
    if (func == trace::kNoFunc)
        return 0;
    if (func >= cached_.size())
        cached_.resize(func + 1, kUnresolved);

    const std::string category =
        categorizer_.categoryOf(cfgs_.functionName(func, symtab_));
    const auto it = std::find(names_.begin(), names_.end(), category);
    const size_t slot = it - names_.begin();
    if (it == names_.end())
        names_.push_back(category);
    panic_if(slot >= kUnresolved, "too many categories for the u8 cache");
    cached_[func] = static_cast<uint8_t>(slot);
    return slot;
}

} // namespace

CategoryDistribution
categorizeUnnecessary(std::span<const trace::Record> records,
                      std::span<const uint8_t> in_slice,
                      const graph::CfgSet &cfgs,
                      const trace::SymbolTable &symtab,
                      const Categorizer &categorizer,
                      size_t end_index)
{
    panic_if(records.size() != in_slice.size(),
             "records and slice verdicts must be parallel arrays");

    CategoryDistribution out;
    CategoryTable table(cfgs, symtab, categorizer);
    std::vector<uint64_t> counts; // by slot
    const size_t end = std::min(end_index, records.size());
    for (size_t i = 0; i < end; ++i) {
        if (records[i].isPseudo() || in_slice[i])
            continue;
        ++out.totalUnnecessary;
        const size_t slot = table.slotOf(cfgs.funcOf[i]);
        if (slot >= counts.size())
            counts.resize(slot + 1, 0);
        ++counts[slot];
    }

    if (!counts.empty())
        out.uncategorized = counts[0];
    for (size_t slot = 1; slot < counts.size(); ++slot)
        out.counts[table.name(slot)] = counts[slot];
    return out;
}

ContrastBreakdown
contrastSlices(std::span<const trace::Record> records,
               std::span<const uint8_t> in_slice,
               const staticdep::StaticSliceResult &static_slice,
               const graph::CfgSet &cfgs, const trace::SymbolTable &symtab,
               const Categorizer &categorizer, size_t end_index)
{
    panic_if(records.size() != in_slice.size(),
             "records and slice verdicts must be parallel arrays");

    ContrastBreakdown out;
    CategoryTable table(cfgs, symtab, categorizer);
    std::vector<ContrastBreakdown::CategorySplit> splits; // by slot
    auto splitOf =
        [&](trace::FuncId func) -> ContrastBreakdown::CategorySplit & {
        const size_t slot = table.slotOf(func);
        if (slot >= splits.size())
            splits.resize(slot + 1);
        return splits[slot];
    };

    const size_t end = std::min(end_index, records.size());
    for (size_t i = 0; i < end; ++i) {
        const trace::Record &rec = records[i];
        if (rec.isPseudo())
            continue;
        ++out.analyzed;
        const trace::FuncId func = cfgs.funcOf[i];
        const uint8_t reason = static_slice.reasonOf(func, rec.pc);

        if (in_slice[i]) {
            ++out.necessary;
            if (reason == 0)
                ++out.containmentViolations;
            else if (reason & staticdep::kReachControl)
                ++out.necessaryViaControl;
            else
                ++out.necessaryDataOnly;
            continue;
        }

        if (reason != 0) {
            // In the static slice but not the dynamic one: a dependence
            // path exists in the program, but this run never exercised
            // it — only a dynamic analysis can call this unnecessary.
            ++out.dynamicOnly;
            if (reason & staticdep::kReachControl)
                ++out.dynamicOnlyViaControl;
            else
                ++out.dynamicOnlyDataOnly;
            ++splitOf(func).dynamicOnly;
        } else {
            // Outside even the static over-approximation: removable
            // without running the page.
            ++out.staticallyRemovable;
            if (rec.isControl())
                ++out.removableControlKind;
            else
                ++out.removableDataKind;
            ++splitOf(func).removable;
        }
    }

    // Slot 0 exists as soon as any later slot does; report only the
    // categories some record reached.
    for (size_t slot = 0; slot < splits.size(); ++slot) {
        const auto &split = splits[slot];
        if (split.removable != 0 || split.dynamicOnly != 0)
            out.categories[table.name(slot)] = split;
    }
    return out;
}

} // namespace analysis
} // namespace webslice
