#include "scenario/run.hh"

#include "support/logging.hh"
#include "support/strings.hh"

namespace webslice {
namespace scenario {

using browser::Tab;
using browser::UserAction;
using workloads::JsSpec;
using workloads::PageContent;
using workloads::RunResult;
using workloads::SiteSpec;
using workloads::generateJs;
using workloads::generatePage;

namespace {

/** Small word pool for partial-navigation fragment paragraphs. */
std::string
fragmentWords(Rng &rng, int count)
{
    static const char *const kWords[] = {
        "deal",  "offer",  "fresh",  "route",  "story",
        "panel", "result", "detail", "review", "update",
    };
    std::string text;
    for (int w = 0; w < count; ++w) {
        if (w)
            text += ' ';
        text += kWords[rng.below(10)];
    }
    return text;
}

/**
 * Build the DOM fragment a partial navigation swaps in. Ids carry the
 * per-action prefix pn<k>- so they never collide with the main page's
 * indexById entries; classes reuse the main stylesheet's sec/card rules
 * so resolveSubtree matches real selectors. No <img> tags: fragment
 * parsing does not trigger fetches.
 */
std::string
fragmentHtml(Rng &rng, size_t k, const UserAction &action,
             std::vector<std::string> &ids)
{
    std::string html;
    for (int s = 0; s < action.fragSections; ++s) {
        html += format("<section class=sec id=pn%zu-sec-%d>", k, s);
        ids.push_back(format("pn%zu-sec-%d", k, s));
        html += "<h1>";
        html += fragmentWords(rng, 3);
        html += "</h1>";
        for (int i = 0; i < action.fragItems; ++i) {
            const std::string card = format("pn%zu-c-%d-%d", k, s, i);
            html += format("<div class=card id=%s>", card.c_str());
            html += "<p>";
            html += fragmentWords(rng, 8 + static_cast<int>(rng.below(8)));
            html += "</p></div>";
            ids.push_back(card);
        }
        html += "</section>";
    }
    return html;
}

/** Generate the script bundle riding along with extra action k. */
std::string
extraScript(const SiteSpec &site, size_t k, uint64_t bytes,
            double load_fraction, const std::string &prefix,
            const std::vector<std::string> &target_ids)
{
    Rng rng(site.seed ^ (0x9A0 + k));
    JsSpec js;
    js.targetBytes = bytes;
    js.loadFraction = load_fraction;
    js.handlerFraction = 0.0;
    js.namePrefix = prefix;
    PageContent targets;
    targets.visibleTargetIds = target_ids;
    return generateJs(rng, js, targets);
}

/**
 * Fill the payload fields the DSL leaves symbolic. k is the action's
 * position in extraActions, which seeds the payload generators so every
 * fragment/script is deterministic per scenario.
 */
UserAction
resolveAction(const SiteSpec &site, size_t k, UserAction action)
{
    switch (action.kind) {
      case UserAction::Kind::PartialNav: {
        Rng rng(site.seed ^ (0x5F0 + k));
        std::vector<std::string> ids;
        action.payload = fragmentHtml(rng, k, action, ids);
        if (action.bytes > 0) {
            action.scriptPayload =
                extraScript(site, k, action.bytes, action.loadFraction,
                            format("pn%zu_", k), ids);
        }
        break;
      }
      case UserAction::Kind::ScriptFetch: {
        if (action.url.empty())
            action.url = format("extra-%zu.js", k);
        if (action.payload.empty()) {
            action.payload =
                extraScript(site, k, action.bytes, action.loadFraction,
                            format("xf%zu_", k), {});
        }
        break;
      }
      default:
        break;
    }
    return action;
}

} // namespace

RunResult
runScenario(const Scenario &sc, browser::JsEngineConfig js_config)
{
    RunResult result;
    result.spec = sc.site;

    result.machine = std::make_unique<sim::Machine>();
    if (sc.site.captureValues)
        result.machine->enableValueLog();
    result.tab = std::make_unique<Tab>(*result.machine, sc.site.browser,
                                       js_config);

    // Secondary tabs share the primary tab's browser thread set (one
    // compositor/raster pool serving several documents, like one
    // renderer process hosting several frames).
    for (const auto &tab_spec : sc.extraTabs) {
        result.extraTabs.push_back(std::make_unique<Tab>(
            *result.machine, tab_spec.browser, js_config,
            &result.tab->threads()));
    }
    for (int w = 0; w < sc.workers; ++w)
        result.tab->addWorker();

    result.tab->setSessionMs(sc.site.sessionMs);
    result.tab->navigate(workloads::buildSiteContent(sc.site));
    for (size_t t = 0; t < sc.extraTabs.size(); ++t) {
        result.extraTabs[t]->setSessionMs(sc.extraTabs[t].sessionMs);
        result.extraTabs[t]->navigate(
            workloads::buildSiteContent(sc.extraTabs[t]));
    }

    for (const auto &action : sc.site.actions)
        result.tab->scheduleAction(action);

    if (sc.site.lazyJsBytes > 0) {
        // Mid-session script download (all of it used: it is fetched on
        // demand, the paper's deferred-processing ideal).
        Rng lazy_rng(sc.site.seed ^ 0x1A2);
        const PageContent page =
            generatePage(lazy_rng, sc.site.page); // ids only; HTML unused
        JsSpec lazy_spec;
        lazy_spec.targetBytes = sc.site.lazyJsBytes;
        lazy_spec.loadFraction = sc.site.lazyJsLoadFraction;
        lazy_spec.handlerFraction = 0.0;
        lazy_spec.namePrefix = "lz_"; // separate bundle namespace
        result.tab->scheduleScriptFetch(
            sc.site.lazyJsAtMs, "lazy.js",
            generateJs(lazy_rng, lazy_spec, page));
    }

    for (size_t k = 0; k < sc.extraActions.size(); ++k) {
        const UserAction &raw = sc.extraActions[k];
        fatal_if(raw.tab < 0 ||
                     static_cast<size_t>(raw.tab) > sc.extraTabs.size(),
                 "scenario '", sc.name, "': action ", k, " targets tab ",
                 raw.tab, " but only ", sc.extraTabs.size(),
                 " extra tab(s) exist");
        fatal_if(raw.kind == UserAction::Kind::WorkerTask &&
                     raw.workerIndex >= sc.workers,
                 "scenario '", sc.name, "': action ", k,
                 " targets worker ", raw.workerIndex, " but only ",
                 sc.workers, " worker(s) exist");
        Tab &tab = raw.tab == 0 ? *result.tab
                                : *result.extraTabs[raw.tab - 1];
        tab.scheduleAction(resolveAction(sc.site, k, raw));
    }

    result.machine->run();

    fatal_if(!result.tab->loadComplete(),
             "benchmark '", sc.site.name, "' never finished loading");
    for (size_t t = 0; t < result.extraTabs.size(); ++t) {
        fatal_if(!result.extraTabs[t]->loadComplete(), "scenario '",
                 sc.name, "': tab ", t + 1, " never finished loading");
    }

    result.loadCompleteIndex = result.tab->loadCompleteIndex();
    result.jsTotalBytes = result.tab->js().totalBytes();
    result.jsUsedBytes = result.tab->js().usedBytes();
    result.cssTotalBytes = result.tab->cssTotalBytes();
    result.cssUsedBytes = result.tab->cssUsedBytes();
    return result;
}

} // namespace scenario
} // namespace webslice
