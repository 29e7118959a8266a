/**
 * @file
 * One recording on disk: publishing a scenario's run, and re-executing
 * a published recording's scenario to recover its concrete values.
 *
 * recordScenario writes every recording as
 *
 *   <prefix>.trc   the trace, published atomically with its block index
 *   <prefix>.sym   the symbol table
 *   <prefix>.crit  the pixel criteria
 *   <prefix>.meta  benchmark name, load-complete index, loadOnly flag,
 *                  thread names (trace/run_meta.hh)
 *   <prefix>.scn   the scenario as canonical serializeScenario text
 *
 * The engine is deterministic, so the .scn pins every byte of the other
 * four files. That is why the concrete values the verification layer
 * compares are never stored: reexecuteRecording runs the .scn again with
 * value capture ("Dynamic Slicing by On-demand Re-execution") and proves
 * the re-run is the recorded session by comparing it with the .trc
 * record for record. The .scn is not part of a recording's identity
 * (trace/artifacts.hh), so session-cache keys and fleet routing do not
 * see it.
 */

#ifndef WEBSLICE_SCENARIO_RECORDING_HH
#define WEBSLICE_SCENARIO_RECORDING_HH

#include <optional>
#include <span>
#include <string>

#include "scenario/scenario.hh"
#include "trace/record.hh"
#include "trace/trace_file.hh"
#include "trace/value_log.hh"

namespace webslice {
namespace scenario {

/** What a recordScenario call recorded. */
struct RecordingSummary
{
    size_t records = 0;
    size_t markers = 0;
    size_t loadCompleteIndex = 0;
    double runSeconds = 0.0; ///< runScenario alone, publishing excluded.
};

/**
 * Run `scenario` and publish its five artifacts under `prefix`.
 * `source` is the .scn file the scenario was parsed from, if any: when
 * <prefix>.scn is that same file, the call is fatal (exit 1, naming both
 * paths) before anything runs or is written, because publishing would
 * replace the file with its canonical text.
 */
RecordingSummary recordScenario(const Scenario &scenario,
                                const std::string &prefix,
                                trace::TraceFormat format,
                                const std::string &source = {});

/**
 * Re-execute <prefix>.scn with value capture and return the values,
 * or nullopt when the recording has no .scn. `records` is the decoded
 * <prefix>.trc. The re-run must reproduce it record for record: a
 * parse error (<prefix>.scn:<line>), the first differing record, or a
 * different record count is fatal, naming both files and the index.
 */
std::optional<trace::ValueLog>
reexecuteRecording(const std::string &prefix,
                   std::span<const trace::Record> records);

} // namespace scenario
} // namespace webslice

#endif // WEBSLICE_SCENARIO_RECORDING_HH
