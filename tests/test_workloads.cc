/**
 * @file
 * Tests of the workload generators and the benchmark runner: determinism,
 * content-volume contracts, parse-ability of generated content by the
 * browser substrate, and end-to-end invariants for every paper benchmark
 * (the built-in scenarios, parameterized).
 */

#include <gtest/gtest.h>

#include "browser/css.hh"
#include "browser/html_parser.hh"
#include "browser/js.hh"
#include "scenario/builtins.hh"
#include "scenario/run.hh"
#include "workloads/content.hh"
#include "workloads/sites.hh"

namespace webslice {
namespace workloads {
namespace {

browser::Resource
toResource(sim::Machine &machine, std::string content,
           browser::ResourceType type)
{
    browser::Resource res;
    res.type = type;
    res.content = std::move(content);
    res.size = res.content.size();
    res.addr = machine.alloc((res.size + 15) & ~7ull, "res");
    machine.mem().writeBytes(res.addr, res.content.data(), res.size);
    res.loaded = true;
    return res;
}

// ---- generators --------------------------------------------------------------

TEST(Content, PageGenerationIsDeterministic)
{
    PageSpec spec;
    Rng a(42), b(42), c(43);
    const auto page_a = generatePage(a, spec);
    const auto page_b = generatePage(b, spec);
    const auto page_c = generatePage(c, spec);
    EXPECT_EQ(page_a.html, page_b.html);
    EXPECT_NE(page_a.html, page_c.html);
}

TEST(Content, PageExposesInteractionTargets)
{
    PageSpec spec;
    spec.hiddenMenus = 2;
    spec.carousel = true;
    spec.newsPane = true;
    spec.searchBox = true;
    Rng rng(7);
    const auto page = generatePage(rng, spec);
    EXPECT_EQ(page.menuButtonId, "btn-menu");
    EXPECT_EQ(page.firstMenuId, "menu-0");
    EXPECT_EQ(page.rollButtonId, "btn-roll");
    EXPECT_EQ(page.searchBoxId, "searchbox");
    EXPECT_FALSE(page.visibleTargetIds.empty());
    EXPECT_FALSE(page.hiddenTargetIds.empty());
    EXPECT_FALSE(page.imageUrls.empty());
}

TEST(Content, CssHitsByteTargetAndSplitsUsage)
{
    PageSpec page_spec;
    Rng rng(9);
    const auto page = generatePage(rng, page_spec);
    CssSpec spec;
    spec.targetBytes = 30000;
    spec.usedFraction = 0.5;
    const std::string css = generateCss(rng, spec, page);
    EXPECT_GE(css.size(), spec.targetBytes);
    EXPECT_LT(css.size(), spec.targetBytes + 2048);
    EXPECT_NE(css.find(".card{"), std::string::npos);
    EXPECT_NE(css.find("#nope-"), std::string::npos);
}

TEST(Content, JsHitsByteTarget)
{
    PageSpec page_spec;
    Rng rng(10);
    const auto page = generatePage(rng, page_spec);
    JsSpec spec;
    spec.targetBytes = 40000;
    const std::string js = generateJs(rng, spec, page);
    EXPECT_GE(js.size(), spec.targetBytes);
    EXPECT_LT(js.size(), spec.targetBytes + 4096);
    EXPECT_NE(js.find("dom.listen("), std::string::npos);
}

TEST(Content, NamePrefixKeepsBundlesDisjoint)
{
    PageSpec page_spec;
    Rng rng(11);
    const auto page = generatePage(rng, page_spec);
    JsSpec spec;
    spec.targetBytes = 5000;
    spec.namePrefix = "lz_";
    const std::string js = generateJs(rng, spec, page);
    EXPECT_NE(js.find("function lz_init"), std::string::npos);
    EXPECT_EQ(js.find("function init"), std::string::npos);
}

TEST(Content, IdHashLiteralMatchesRuntimeHash)
{
    EXPECT_EQ(idHashLiteral("btn-menu"),
              std::to_string(browser::hashString("btn-menu")));
}

TEST(Content, GeneratedCssParsesCleanly)
{
    sim::Machine machine;
    const auto tid = machine.addThread("main");
    sim::Ctx ctx(machine, tid);
    browser::TraceLog log(machine);

    PageSpec page_spec;
    Rng rng(12);
    const auto page = generatePage(rng, page_spec);
    CssSpec spec;
    spec.targetBytes = 12000;
    const auto res = toResource(machine, generateCss(rng, spec, page),
                                browser::ResourceType::Css);
    browser::CssParser parser(machine, log);
    const auto sheet = parser.parse(ctx, res);
    EXPECT_GT(sheet->rules.size(), 20u);
    EXPECT_EQ(sheet->totalBytes, res.size);
}

TEST(Content, GeneratedJsParsesAndRuns)
{
    sim::Machine machine;
    const auto tid = machine.addThread("main");
    browser::TraceLog log(machine);

    PageSpec page_spec;
    Rng rng(13);
    const auto page = generatePage(rng, page_spec);

    // Parse the page first so dom.* targets exist.
    const auto html_res =
        toResource(machine, page.html, browser::ResourceType::Html);
    JsSpec spec;
    spec.targetBytes = 15000;
    const auto js_res = toResource(machine, generateJs(rng, spec, page),
                                   browser::ResourceType::Js);

    machine.post(tid, [&](sim::Ctx &ctx) {
        browser::HtmlParser html_parser(machine, log);
        auto doc = html_parser.parse(ctx, html_res);
        browser::JsEngine engine(machine, log);
        engine.setDocument(doc.get());
        engine.runScript(ctx, js_res);
        EXPECT_GT(engine.functionCount(), 5u);
        EXPECT_GT(engine.executedFunctionCount(), 1u);
        EXPECT_LT(engine.usedBytes(), engine.totalBytes());
    });
    machine.run();
}

// ---- specs --------------------------------------------------------------------

class PaperSpecSweep
    : public ::testing::TestWithParam<int>
{
  protected:
    SiteSpec
    spec() const
    {
        return scenario::builtinScenario(
                   scenario::kPaperBuiltins[GetParam()])
            .site;
    }
};

TEST_P(PaperSpecSweep, SiteContentIsSelfConsistent)
{
    const auto site = buildSiteContent(spec());
    EXPECT_NE(site.html.find("<link href=main.css>"), std::string::npos);
    EXPECT_NE(site.html.find("<script src=app.js>"), std::string::npos);
    EXPECT_TRUE(site.resources.count("main.css"));
    EXPECT_TRUE(site.resources.count("app.js"));
    // Every referenced image has a payload.
    size_t pos = 0;
    while ((pos = site.html.find("src=", pos)) != std::string::npos) {
        pos += 4;
        const size_t end = site.html.find_first_of(" >", pos);
        const std::string url = site.html.substr(pos, end - pos);
        if (url != "app.js") {
            EXPECT_TRUE(site.resources.count(url)) << url;
        }
    }
}

TEST_P(PaperSpecSweep, ContentGenerationIsDeterministic)
{
    const auto a = buildSiteContent(spec());
    const auto b = buildSiteContent(spec());
    EXPECT_EQ(a.html, b.html);
    EXPECT_EQ(a.resources.at("app.js").second,
              b.resources.at("app.js").second);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PaperSpecSweep,
                         ::testing::Values(0, 1, 2, 3));

SiteSpec
builtinSite(const char *id)
{
    return scenario::builtinScenario(id).site;
}

TEST(Specs, BrowseVariantsDeriveCorrectly)
{
    // The Table I "Load and Browse" variants are the load-only site
    // with a browse session added.
    const auto amazon = builtinSite("amazon-desktop");
    const auto browse = builtinSite("amazon-desktop-browse");
    EXPECT_TRUE(amazon.actions.empty());
    EXPECT_FALSE(browse.actions.empty());
    EXPECT_GT(browse.sessionMs, amazon.sessionMs);
    EXPECT_EQ(browse.seed, amazon.seed);
    EXPECT_EQ(browse.js.targetBytes, amazon.js.targetBytes);

    const auto maps = builtinSite("maps");
    const auto maps_browse = builtinSite("maps-browse");
    EXPECT_GT(maps_browse.lazyJsBytes, 0u); // Maps grows while browsed
    EXPECT_EQ(maps_browse.seed, maps.seed);

    // Bing is the paper's browse benchmark; its "Only Load" variant
    // drops the session.
    const auto bing = builtinSite("bing");
    const auto bing_load = builtinSite("bing-load");
    EXPECT_FALSE(bing.actions.empty());
    EXPECT_TRUE(bing_load.actions.empty());
    EXPECT_EQ(bing_load.lazyJsBytes, 0u);
    EXPECT_EQ(bing_load.seed, bing.seed);
}

TEST(Specs, PaperBenchmarkShapes)
{
    std::vector<SiteSpec> specs;
    for (const char *id : scenario::kPaperBuiltins)
        specs.push_back(builtinSite(id));
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].browser.rasterThreads, 3); // paper: 3 for desktop
    EXPECT_EQ(specs[1].browser.rasterThreads, 2);
    EXPECT_TRUE(specs[1].browser.mobile);
    EXPECT_EQ(specs[1].browser.viewportWidth, 360);
    EXPECT_TRUE(specs[2].page.mapCanvas);
    EXPECT_TRUE(specs[3].page.searchBox);
    EXPECT_FALSE(specs[3].actions.empty()); // Bing browses
}

// ---- runner (one small end-to-end run) -----------------------------------------

TEST(Runner, TinySpecRunsEndToEnd)
{
    scenario::Scenario sc;
    sc.name = "tiny";
    SiteSpec &spec = sc.site;
    spec.name = "tiny";
    spec.url = "https://tiny.example/";
    spec.seed = 123;
    spec.browser.viewportWidth = 512;
    spec.browser.viewportHeight = 384;
    spec.page.sections = 1;
    spec.page.itemsPerSection = 1;
    spec.page.hiddenMenus = 1;
    spec.js.targetBytes = 3000;
    spec.css.targetBytes = 1500;
    spec.sessionMs = 300;

    const auto run = scenario::runScenario(sc);
    EXPECT_TRUE(run.tab->loadComplete());
    EXPECT_GT(run.records().size(), 1000u);
    EXPECT_GT(run.machine->pixelCriteria().markerCount(), 0u);
    EXPECT_GT(run.jsTotalBytes, 0u);
    EXPECT_LT(run.jsUsedBytes, run.jsTotalBytes);
    EXPECT_LT(run.cssUsedBytes, run.cssTotalBytes);
    EXPECT_EQ(run.threadNames().size(),
              2u + spec.browser.rasterThreads + 1u);
    EXPECT_LE(run.loadCompleteIndex, run.records().size());
}

TEST(Runner, ActionsFireDuringTheSession)
{
    scenario::Scenario sc;
    sc.name = "tiny-browse";
    SiteSpec &spec = sc.site;
    spec.name = "tiny-browse";
    spec.url = "https://tiny.example/";
    spec.seed = 124;
    spec.browser.viewportWidth = 512;
    spec.browser.viewportHeight = 384;
    spec.page.sections = 1;
    spec.page.itemsPerSection = 1;
    spec.page.hiddenMenus = 1;
    spec.js.targetBytes = 3000;
    spec.css.targetBytes = 1500;
    spec.sessionMs = 2500;
    spec.actions = {{UserAction::Kind::Click, 1200, 0, "btn-menu"}};

    const auto run = scenario::runScenario(sc);
    // The menu toggle ran: the handler flipped g_menu and the menu became
    // visible, which forces extra pipeline updates after load.
    EXPECT_GT(run.records().size(), run.loadCompleteIndex);
    EXPECT_GT(run.jsUsedBytes, 0u);
}

} // namespace
} // namespace workloads
} // namespace webslice
