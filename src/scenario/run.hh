/**
 * @file
 * The one scenario execution engine.
 *
 * Every recorded session — built-in, .scn file, or generated sweep
 * member — runs through runScenario, which compiles the scenario into
 * browser::Tab scheduling calls on a fresh sim::Machine. The machine
 * assigns trace PCs in first-use execution order, so the same scenario
 * always records the same trace, byte for byte (recording.hh relies on
 * it).
 */

#ifndef WEBSLICE_SCENARIO_RUN_HH
#define WEBSLICE_SCENARIO_RUN_HH

#include "scenario/scenario.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace scenario {

/**
 * Record one scenario end to end; fatal if any tab never loads. With
 * scenario.site.captureValues the machine also captures the value log.
 */
workloads::RunResult runScenario(const Scenario &scenario,
                                 browser::JsEngineConfig js_config = {});

} // namespace scenario
} // namespace webslice

#endif // WEBSLICE_SCENARIO_RUN_HH
