/**
 * @file
 * The built-in scenarios: every .scn file under scenarios/, embedded in
 * the library at build time (src/scenario/CMakeLists.txt), so the
 * checked-in files are the only definition of a named session and no
 * binary depends on the working directory.
 *
 * A built-in's id is its file stem with '_' turned into '-'
 * (scenarios/amazon_desktop_browse.scn is "amazon-desktop-browse").
 * webslice-record, webslice-scenario, the bench harnesses and the tests
 * all resolve ids through this one registry.
 */

#ifndef WEBSLICE_SCENARIO_BUILTINS_HH
#define WEBSLICE_SCENARIO_BUILTINS_HH

#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.hh"

namespace webslice {
namespace scenario {

/** One named built-in scenario. */
struct Builtin
{
    std::string id;        ///< File stem with '_' turned into '-'.
    std::string file;      ///< "scenarios/<stem>.scn", for diagnostics.
    std::string_view text; ///< The file's bytes.
    std::string name;      ///< The scenario's name line.
};

/** Every built-in, in file-name order. */
const std::vector<Builtin> &builtins();

/** The built-in with this id, or nullptr. */
const Builtin *findBuiltin(const std::string &id);

/** Parse built-in `id`; fatal, naming the id, when there is none. */
Scenario builtinScenario(const std::string &id);

/** The paper's four Table II benchmarks, in the paper's order. */
inline constexpr const char *kPaperBuiltins[] = {
    "amazon-desktop", "amazon-mobile", "maps", "bing"};

} // namespace scenario
} // namespace webslice

#endif // WEBSLICE_SCENARIO_BUILTINS_HH
