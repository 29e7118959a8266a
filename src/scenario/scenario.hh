/**
 * @file
 * The scenario model and its deterministic text format (.scn).
 *
 * A Scenario is everything needed to reproduce one recorded browsing
 * session: the primary tab's synthesized site (workloads::SiteSpec),
 * optional secondary tabs sharing the same browser thread set, a count
 * of dedicated workers, and the scripted interaction sequence. The
 * legacy verbs (scroll/click/key plus the single mid-session lazy
 * fetch) live inside the SiteSpec, scheduled first. New verbs (typing
 * bursts, SPA partial navigation, raf loops, worker bursts,
 * secondary-tab input) ride in extraActions, scheduled after the
 * legacy block in file order. The built-in sessions are checked-in
 * .scn files (scenario/builtins.hh), and every recording carries its
 * .scn beside the trace (scenario/recording.hh).
 *
 * The text format is line oriented:
 *
 *   # comment                       blank lines and #-comments ignored
 *   scenario "Name"                 display name (quoted, optional)
 *   site { <key> <value> ... }      primary tab site block (every key
 *                                   incl. a per-tab `session <ms>`)
 *   tab { ... }                     secondary tab (repeatable)
 *   session <ms>                    primary session length (sugar for
 *                                   the site block's `session` key)
 *   workers <n>                     dedicated workers on the primary tab
 *   wait <ms>                       advance the time cursor
 *   scroll <at> <dy>                compositor scroll
 *   click <at> <id>                 click on element id
 *   key <at> <id>                   one keystroke into element id
 *   type <at> <id> <count> <gap>    keystroke burst, <gap> ms apart
 *   fetch <at> <bytes> <fraction>   the mid-session lazy script (once)
 *   partialnav <at> <id> <sections> <items> [<jsbytes> [<fraction>]]
 *   raf <at> <duration> <fn>        requestAnimationFrame loop
 *   worker <at> <index> <units>     traced burst on worker <index>
 *
 * <at> is an absolute session ms, or +N relative to the running time
 * cursor (which `wait` advances and every action updates). Action
 * lines accept a trailing `tab=N` to address a secondary tab. Parse
 * errors are fatal with "<path>:<line>: ..." context, like every other
 * loader in this codebase.
 */

#ifndef WEBSLICE_SCENARIO_SCENARIO_HH
#define WEBSLICE_SCENARIO_SCENARIO_HH

#include <string>
#include <vector>

#include "browser/user_action.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace scenario {

/** One reproducible browsing session: site(s) + interaction script. */
struct Scenario
{
    std::string name;

    /** Primary tab: site knobs, legacy actions, lazy fetch, session. */
    workloads::SiteSpec site;

    /** Secondary tabs sharing the primary tab's browser threads. */
    std::vector<workloads::SiteSpec> extraTabs;

    /** Dedicated workers created on the primary tab before the run. */
    int workers = 0;

    /**
     * Post-legacy actions (new verbs, secondary-tab input) in file
     * order; payload fields are resolved by the engine at run time.
     */
    std::vector<browser::UserAction> extraActions;
};

/** Parse a .scn file; fatal with path:line context on any error. */
Scenario parseScenarioFile(const std::string &path);

/** Parse .scn text; `path` is used for error context only. */
Scenario parseScenarioText(const std::string &text,
                           const std::string &path);

/**
 * Render a Scenario back into canonical .scn text. Deterministic and
 * parseable: parse(serialize(s)) reproduces s (times absolute, every
 * site knob explicit), which the round-trip tests assert per verb.
 */
std::string serializeScenario(const Scenario &scenario);

/**
 * True when the scenario schedules no interaction at all — no legacy
 * actions, no extra-verb actions, no lazy fetch, no workers, and no
 * secondary tabs — so analysis tools may window the recording at the
 * primary tab's loadCompleteIndex without dropping scripted post-load
 * work (the .meta `loadOnly` flag).
 */
bool isLoadOnly(const Scenario &scenario);

} // namespace scenario
} // namespace webslice

#endif // WEBSLICE_SCENARIO_SCENARIO_HH
