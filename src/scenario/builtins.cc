#include "scenario/builtins.hh"

#include <algorithm>

#include "support/logging.hh"

namespace webslice {
namespace scenario {

namespace {

/** One embedded file, as the generated table lists it. */
struct EmbeddedScenario
{
    const char *stem; ///< File name without ".scn".
    const char *text;
    size_t size;
};

// kEmbeddedScenarios[], generated at configure time (CMakeLists.txt).
#include "embedded_scenarios.inc"

} // namespace

const std::vector<Builtin> &
builtins()
{
    static const std::vector<Builtin> all = [] {
        std::vector<Builtin> list;
        for (const EmbeddedScenario &embedded : kEmbeddedScenarios) {
            Builtin builtin;
            builtin.id = embedded.stem;
            std::replace(builtin.id.begin(), builtin.id.end(), '_', '-');
            builtin.file = std::string("scenarios/") + embedded.stem +
                           ".scn";
            builtin.text = std::string_view(embedded.text, embedded.size);
            builtin.name = parseScenarioText(std::string(builtin.text),
                                             builtin.file)
                               .name;
            list.push_back(std::move(builtin));
        }
        return list;
    }();
    return all;
}

const Builtin *
findBuiltin(const std::string &id)
{
    for (const Builtin &builtin : builtins()) {
        if (builtin.id == id)
            return &builtin;
    }
    return nullptr;
}

Scenario
builtinScenario(const std::string &id)
{
    const Builtin *builtin = findBuiltin(id);
    fatal_if(!builtin, "unknown built-in scenario '", id, "'");
    return parseScenarioText(std::string(builtin->text), builtin->file);
}

} // namespace scenario
} // namespace webslice
