/**
 * @file
 * The site specification a session is built from, the synthesized
 * content it yields, and the result of running it end to end.
 *
 * The paper's four benchmarks (Section IV-B) and the other named
 * sessions are not compiled in: they are the .scn files checked in
 * under scenarios/, embedded by the scenario library
 * (scenario/builtins.hh). Their byte volumes are the paper's Table I
 * values scaled by kContentScale (1/8) so that traces stay
 * benchmark-sized; all reported percentages are scale-invariant.
 */

#ifndef WEBSLICE_WORKLOADS_SITES_HH
#define WEBSLICE_WORKLOADS_SITES_HH

#include <memory>
#include <string>
#include <vector>

#include "browser/js.hh"
#include "browser/tab.hh"
#include "browser/user_action.hh"
#include "sim/machine.hh"
#include "workloads/content.hh"

namespace webslice {
namespace workloads {

/**
 * The one scripted-action representation, shared with the scenario DSL
 * and browser::Tab::scheduleAction (historically workloads had its own
 * three-verb copy of this enum).
 */
using UserAction = browser::UserAction;

/** Everything needed to run one benchmark. */
struct SiteSpec
{
    std::string name;
    std::string url;
    uint64_t seed = 1;

    browser::BrowserConfig browser;
    PageSpec page;
    CssSpec css;
    JsSpec js;

    /** Session length (drives vsync ticks and idle tail). */
    uint64_t sessionMs = 2500;

    /** Scripted interactions (empty for load-only benchmarks). */
    std::vector<UserAction> actions;

    /** Extra script fetched mid-session (Bing/Maps grow while browsed). */
    uint64_t lazyJsBytes = 0;
    uint64_t lazyJsAtMs = 0;
    double lazyJsLoadFraction = 0.95; ///< Share of the lazy bytes used.

    /** Bytes of each image payload. */
    size_t imageBytes = 3072;

    /**
     * Capture the value log while running (one written value per record
     * plus criterion snapshots) so the verification layer can compare
     * slice replays bit-for-bit. Not part of the .scn text: only the
     * re-execution of a recording (scenario/recording.hh) sets it.
     */
    bool captureValues = false;
};

/** Content-volume scale relative to the paper's Table I byte counts. */
constexpr double kContentScale = 0.125;

/** Result of one end-to-end benchmark run. */
struct RunResult
{
    SiteSpec spec;
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<browser::Tab> tab;

    /** Secondary tabs of a multi-tab scenario (scenario engine only). */
    std::vector<std::unique_ptr<browser::Tab>> extraTabs;

    size_t loadCompleteIndex = 0;
    uint64_t jsTotalBytes = 0;
    uint64_t jsUsedBytes = 0;
    uint64_t cssTotalBytes = 0;
    uint64_t cssUsedBytes = 0;

    const std::vector<trace::Record> &records() const
    {
        return machine->records();
    }

    /**
     * Every simulated thread by id — derived from the machine rather
     * than the tab's browser thread set so dedicated workers (and any
     * other threads a scenario adds) are included.
     */
    std::vector<std::string>
    threadNames() const
    {
        std::vector<std::string> names;
        names.reserve(machine->threadCount());
        for (size_t t = 0; t < machine->threadCount(); ++t)
            names.push_back(
                machine->threadName(static_cast<trace::ThreadId>(t)));
        return names;
    }

    uint64_t
    unusedBytes() const
    {
        return (jsTotalBytes - jsUsedBytes) +
               (cssTotalBytes - cssUsedBytes);
    }

    uint64_t totalBytes() const { return jsTotalBytes + cssTotalBytes; }
};

/** Build the SiteContent payloads for a spec (deterministic). */
browser::SiteContent buildSiteContent(const SiteSpec &spec);

// The end-to-end runner is scenario::runScenario (scenario/run.hh).

} // namespace workloads
} // namespace webslice

#endif // WEBSLICE_WORKLOADS_SITES_HH
