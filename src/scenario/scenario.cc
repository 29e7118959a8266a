#include "scenario/scenario.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/logging.hh"
#include "support/strings.hh"

namespace webslice {
namespace scenario {

using browser::UserAction;
using workloads::SiteSpec;

namespace {

/** Shortest round-trip decimal rendering of a double. */
std::string
doubleText(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
boolText(bool v)
{
    return v ? "1" : "0";
}

/** Split one line into whitespace tokens, dropping #-comments. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string token;
    while (in >> token) {
        if (token[0] == '#')
            break;
        tokens.push_back(token);
    }
    return tokens;
}

} // namespace

Scenario
parseScenarioText(const std::string &text, const std::string &path)
{
    Scenario sc;
    bool have_fetch = false;
    uint64_t cursor = 0;
    int lineno = 0;

    auto fail = [&](const std::string &msg) {
        fatal(path, ":", lineno, ": ", msg);
    };

    auto parseU64 = [&](const std::string &t) -> uint64_t {
        char *end = nullptr;
        const unsigned long long v = std::strtoull(t.c_str(), &end, 0);
        if (end == t.c_str() || *end != '\0' || t[0] == '-')
            fail("expected an unsigned number, got '" + t + "'");
        return v;
    };
    auto parseInt = [&](const std::string &t) -> int {
        char *end = nullptr;
        const long v = std::strtol(t.c_str(), &end, 0);
        if (end == t.c_str() || *end != '\0')
            fail("expected an integer, got '" + t + "'");
        return static_cast<int>(v);
    };
    auto parseDouble = [&](const std::string &t) -> double {
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (end == t.c_str() || *end != '\0')
            fail("expected a number, got '" + t + "'");
        return v;
    };
    auto parseBool = [&](const std::string &t) -> bool {
        if (t == "1" || t == "true")
            return true;
        if (t == "0" || t == "false")
            return false;
        fail("expected a boolean (0/1/true/false), got '" + t + "'");
        return false; // unreachable
    };
    auto parseAt = [&](const std::string &t) -> uint64_t {
        if (!t.empty() && t[0] == '+')
            return cursor + parseU64(t.substr(1));
        return parseU64(t);
    };

    // Block state: non-null while inside a `site {` / `tab {` block.
    SiteSpec *block = nullptr;

    auto applySiteKey = [&](SiteSpec &spec,
                            const std::vector<std::string> &tok) {
        const std::string &key = tok[0];
        auto args = [&](size_t n) {
            if (tok.size() != n + 1)
                fail(format("'%s' takes %zu value(s), got %zu",
                            key.c_str(), n, tok.size() - 1));
        };
        if (key == "url") {
            args(1);
            spec.url = tok[1];
        } else if (key == "seed") {
            args(1);
            spec.seed = parseU64(tok[1]);
        } else if (key == "session") {
            args(1);
            spec.sessionMs = parseU64(tok[1]);
        } else if (key == "viewport") {
            args(2);
            spec.browser.viewportWidth = parseInt(tok[1]);
            spec.browser.viewportHeight = parseInt(tok[2]);
        } else if (key == "raster_threads") {
            args(1);
            spec.browser.rasterThreads = parseInt(tok[1]);
        } else if (key == "mobile") {
            args(1);
            spec.browser.mobile = parseBool(tok[1]);
        } else if (key == "cell_px") {
            args(1);
            spec.browser.cellPx = parseInt(tok[1]);
        } else if (key == "sections") {
            args(1);
            spec.page.sections = parseInt(tok[1]);
        } else if (key == "items_per_section") {
            args(1);
            spec.page.itemsPerSection = parseInt(tok[1]);
        } else if (key == "hidden_menus") {
            args(1);
            spec.page.hiddenMenus = parseInt(tok[1]);
        } else if (key == "menu_entries") {
            args(1);
            spec.page.menuEntries = parseInt(tok[1]);
        } else if (key == "fixed_header") {
            args(1);
            spec.page.fixedHeader = parseBool(tok[1]);
        } else if (key == "carousel") {
            args(1);
            spec.page.carousel = parseBool(tok[1]);
        } else if (key == "carousel_photos") {
            args(1);
            spec.page.carouselPhotos = parseInt(tok[1]);
        } else if (key == "spinner") {
            args(1);
            spec.page.spinner = parseBool(tok[1]);
        } else if (key == "ad_banner") {
            args(1);
            spec.page.adBanner = parseBool(tok[1]);
        } else if (key == "big_map_image") {
            args(1);
            spec.page.bigMapImage = parseBool(tok[1]);
        } else if (key == "news_pane") {
            args(1);
            spec.page.newsPane = parseBool(tok[1]);
        } else if (key == "search_box") {
            args(1);
            spec.page.searchBox = parseBool(tok[1]);
        } else if (key == "map_canvas") {
            args(1);
            spec.page.mapCanvas = parseBool(tok[1]);
        } else if (key == "map_tiles") {
            args(1);
            spec.page.mapTiles = parseInt(tok[1]);
        } else if (key == "words_per_paragraph") {
            args(1);
            spec.page.wordsPerParagraph = parseInt(tok[1]);
        } else if (key == "nesting_depth") {
            args(1);
            spec.page.nestingDepth = parseInt(tok[1]);
        } else if (key == "js_bytes") {
            args(1);
            spec.js.targetBytes = parseU64(tok[1]);
        } else if (key == "js_load_fraction") {
            args(1);
            spec.js.loadFraction = parseDouble(tok[1]);
        } else if (key == "js_handler_fraction") {
            args(1);
            spec.js.handlerFraction = parseDouble(tok[1]);
        } else if (key == "js_timers") {
            args(1);
            spec.js.timerCount = parseInt(tok[1]);
        } else if (key == "js_timer_ms") {
            args(1);
            spec.js.timerMs = parseU64(tok[1]);
        } else if (key == "js_extra_handlers") {
            args(1);
            spec.js.extraHandlers = parseInt(tok[1]);
        } else if (key == "css_bytes") {
            args(1);
            spec.css.targetBytes = parseU64(tok[1]);
        } else if (key == "css_used_fraction") {
            args(1);
            spec.css.usedFraction = parseDouble(tok[1]);
        } else if (key == "image_bytes") {
            args(1);
            spec.imageBytes = parseU64(tok[1]);
        } else {
            fail("unknown site key '" + key + "'");
        }
    };

    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        ++lineno;
        std::vector<std::string> tok = tokenize(line);
        if (tok.empty())
            continue;

        if (block) {
            if (tok[0] == "}") {
                if (tok.size() != 1)
                    fail("'}' must stand alone");
                block = nullptr;
                continue;
            }
            applySiteKey(*block, tok);
            continue;
        }

        const std::string &verb = tok[0];

        if (verb == "scenario") {
            // The rest of the line, quotes stripped, is the name.
            const size_t open = line.find('"');
            const size_t close = line.rfind('"');
            if (open == std::string::npos || close <= open)
                fail("scenario name must be quoted: scenario \"Name\"");
            sc.name = line.substr(open + 1, close - open - 1);
            sc.site.name = sc.name;
            continue;
        }
        if (verb == "site" || verb == "tab") {
            if (tok.size() != 2 || tok[1] != "{")
                fail("expected '" + verb + " {'");
            if (verb == "site") {
                block = &sc.site;
            } else {
                sc.extraTabs.emplace_back();
                sc.extraTabs.back().name =
                    format("%s [tab %zu]", sc.name.c_str(),
                           sc.extraTabs.size());
                block = &sc.extraTabs.back();
            }
            continue;
        }
        if (verb == "session") {
            if (tok.size() != 2)
                fail("'session' takes one value");
            sc.site.sessionMs = parseU64(tok[1]);
            continue;
        }
        if (verb == "workers") {
            if (tok.size() != 2)
                fail("'workers' takes one value");
            sc.workers = parseInt(tok[1]);
            continue;
        }
        if (verb == "wait") {
            if (tok.size() != 2)
                fail("'wait' takes one value");
            cursor += parseU64(tok[1]);
            continue;
        }

        // ---- action verbs --------------------------------------------------
        int tab_index = 0;
        if (tok.size() > 1 && tok.back().rfind("tab=", 0) == 0) {
            tab_index = parseInt(tok.back().substr(4));
            if (tab_index < 0 ||
                static_cast<size_t>(tab_index) > sc.extraTabs.size())
                fail(format("tab=%d does not name a declared tab "
                            "(%zu declared; tab blocks must precede "
                            "their actions)",
                            tab_index, sc.extraTabs.size()));
            tok.pop_back();
        }
        auto argc = [&](size_t lo, size_t hi = 0) {
            const size_t n = tok.size() - 1;
            if (n < lo || n > (hi ? hi : lo))
                fail(format("'%s' takes %zu%s operand(s), got %zu",
                            verb.c_str(), lo, hi ? "+" : "", n));
        };
        auto addAction = [&](UserAction action, bool legacy) {
            cursor = action.atMs;
            if (legacy && tab_index == 0) {
                sc.site.actions.push_back(std::move(action));
            } else {
                action.tab = tab_index;
                sc.extraActions.push_back(std::move(action));
            }
        };

        if (verb == "scroll") {
            argc(2);
            UserAction a;
            a.kind = UserAction::Kind::Scroll;
            a.atMs = parseAt(tok[1]);
            a.scrollDy = parseInt(tok[2]);
            addAction(std::move(a), /*legacy=*/true);
        } else if (verb == "click" || verb == "key") {
            argc(2);
            UserAction a;
            a.kind = verb == "click" ? UserAction::Kind::Click
                                     : UserAction::Kind::Key;
            a.atMs = parseAt(tok[1]);
            a.targetId = tok[2];
            addAction(std::move(a), /*legacy=*/true);
        } else if (verb == "type") {
            argc(4);
            UserAction a;
            a.kind = UserAction::Kind::Type;
            a.atMs = parseAt(tok[1]);
            a.targetId = tok[2];
            a.count = parseInt(tok[3]);
            a.intervalMs = parseU64(tok[4]);
            if (a.count <= 0)
                fail("'type' needs a positive keystroke count");
            addAction(std::move(a), /*legacy=*/false);
        } else if (verb == "fetch") {
            argc(3);
            if (tab_index != 0)
                fail("'fetch' applies to the primary tab only");
            if (have_fetch)
                fail("only one 'fetch' per scenario (it is the "
                     "mid-session lazy script)");
            have_fetch = true;
            sc.site.lazyJsAtMs = parseAt(tok[1]);
            sc.site.lazyJsBytes = parseU64(tok[2]);
            sc.site.lazyJsLoadFraction = parseDouble(tok[3]);
            cursor = sc.site.lazyJsAtMs;
        } else if (verb == "partialnav") {
            argc(4, 6);
            UserAction a;
            a.kind = UserAction::Kind::PartialNav;
            a.atMs = parseAt(tok[1]);
            a.targetId = tok[2];
            a.fragSections = parseInt(tok[3]);
            a.fragItems = parseInt(tok[4]);
            if (tok.size() >= 6)
                a.bytes = parseU64(tok[5]);
            if (tok.size() == 7)
                a.loadFraction = parseDouble(tok[6]);
            if (a.fragSections <= 0 || a.fragItems <= 0)
                fail("'partialnav' needs positive section/item counts");
            addAction(std::move(a), /*legacy=*/false);
        } else if (verb == "raf") {
            argc(3);
            UserAction a;
            a.kind = UserAction::Kind::RafLoop;
            a.atMs = parseAt(tok[1]);
            a.durationMs = parseU64(tok[2]);
            a.fnName = tok[3];
            addAction(std::move(a), /*legacy=*/false);
        } else if (verb == "worker") {
            argc(3);
            UserAction a;
            a.kind = UserAction::Kind::WorkerTask;
            a.atMs = parseAt(tok[1]);
            a.workerIndex = parseInt(tok[2]);
            a.units = parseU64(tok[3]);
            if (tab_index != 0)
                fail("'worker' applies to the primary tab only");
            if (a.workerIndex < 0 || a.workerIndex >= sc.workers)
                fail(format("worker %d not declared (workers %d; the "
                            "'workers' line must precede worker "
                            "actions)",
                            a.workerIndex, sc.workers));
            addAction(std::move(a), /*legacy=*/false);
        } else {
            fail("unknown directive '" + verb + "'");
        }
    }

    if (block)
        fail("unterminated '{' block at end of file");
    if (sc.name.empty()) {
        sc.name = "unnamed scenario";
        if (sc.site.name.empty())
            sc.site.name = sc.name;
    }
    return sc;
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open scenario file '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenarioText(text.str(), path);
}

namespace {

void
serializeSiteBlock(std::string &out, const char *head, const SiteSpec &s)
{
    out += head;
    out += " {\n";
    out += "  url " + s.url + "\n";
    out += format("  seed 0x%llx\n",
                  static_cast<unsigned long long>(s.seed));
    out += format("  session %llu\n",
                  static_cast<unsigned long long>(s.sessionMs));
    out += format("  viewport %d %d\n", s.browser.viewportWidth,
                  s.browser.viewportHeight);
    out += format("  raster_threads %d\n", s.browser.rasterThreads);
    out += "  mobile " + boolText(s.browser.mobile) + "\n";
    out += format("  cell_px %d\n", s.browser.cellPx);
    out += format("  sections %d\n", s.page.sections);
    out += format("  items_per_section %d\n", s.page.itemsPerSection);
    out += format("  hidden_menus %d\n", s.page.hiddenMenus);
    out += format("  menu_entries %d\n", s.page.menuEntries);
    out += "  fixed_header " + boolText(s.page.fixedHeader) + "\n";
    out += "  carousel " + boolText(s.page.carousel) + "\n";
    out += format("  carousel_photos %d\n", s.page.carouselPhotos);
    out += "  spinner " + boolText(s.page.spinner) + "\n";
    out += "  ad_banner " + boolText(s.page.adBanner) + "\n";
    out += "  big_map_image " + boolText(s.page.bigMapImage) + "\n";
    out += "  news_pane " + boolText(s.page.newsPane) + "\n";
    out += "  search_box " + boolText(s.page.searchBox) + "\n";
    out += "  map_canvas " + boolText(s.page.mapCanvas) + "\n";
    out += format("  map_tiles %d\n", s.page.mapTiles);
    out += format("  words_per_paragraph %d\n",
                  s.page.wordsPerParagraph);
    out += format("  nesting_depth %d\n", s.page.nestingDepth);
    out += format("  js_bytes %llu\n",
                  static_cast<unsigned long long>(s.js.targetBytes));
    out += "  js_load_fraction " + doubleText(s.js.loadFraction) + "\n";
    out += "  js_handler_fraction " + doubleText(s.js.handlerFraction) +
           "\n";
    out += format("  js_timers %d\n", s.js.timerCount);
    out += format("  js_timer_ms %llu\n",
                  static_cast<unsigned long long>(s.js.timerMs));
    out += format("  js_extra_handlers %d\n", s.js.extraHandlers);
    out += format("  css_bytes %llu\n",
                  static_cast<unsigned long long>(s.css.targetBytes));
    out += "  css_used_fraction " + doubleText(s.css.usedFraction) +
           "\n";
    out += format("  image_bytes %zu\n", s.imageBytes);
    out += "}\n";
}

void
serializeAction(std::string &out, const UserAction &a)
{
    const unsigned long long at = a.atMs;
    switch (a.kind) {
      case UserAction::Kind::Scroll:
        out += format("scroll %llu %d", at, a.scrollDy);
        break;
      case UserAction::Kind::Click:
        out += format("click %llu %s", at, a.targetId.c_str());
        break;
      case UserAction::Kind::Key:
        out += format("key %llu %s", at, a.targetId.c_str());
        break;
      case UserAction::Kind::Type:
        out += format("type %llu %s %d %llu", at, a.targetId.c_str(),
                      a.count,
                      static_cast<unsigned long long>(a.intervalMs));
        break;
      case UserAction::Kind::PartialNav:
        out += format("partialnav %llu %s %d %d", at,
                      a.targetId.c_str(), a.fragSections, a.fragItems);
        if (a.bytes) {
            out += format(" %llu ",
                          static_cast<unsigned long long>(a.bytes));
            out += doubleText(a.loadFraction);
        }
        break;
      case UserAction::Kind::RafLoop:
        out += format("raf %llu %llu %s", at,
                      static_cast<unsigned long long>(a.durationMs),
                      a.fnName.c_str());
        break;
      case UserAction::Kind::WorkerTask:
        out += format("worker %llu %d %llu", at, a.workerIndex,
                      static_cast<unsigned long long>(a.units));
        break;
      case UserAction::Kind::ScriptFetch:
        // The DSL's one lazy fetch is serialized from the site spec;
        // a resolved ScriptFetch action has no surface syntax.
        out += format("# scriptfetch %llu %s", at, a.url.c_str());
        break;
    }
    if (a.tab)
        out += format(" tab=%d", a.tab);
    out += "\n";
}

} // namespace

std::string
serializeScenario(const Scenario &sc)
{
    std::string out;
    out += "scenario \"" + sc.name + "\"\n";
    serializeSiteBlock(out, "site", sc.site);
    for (const auto &tab : sc.extraTabs)
        serializeSiteBlock(out, "tab", tab);
    if (sc.workers)
        out += format("workers %d\n", sc.workers);
    for (const auto &action : sc.site.actions)
        serializeAction(out, action);
    if (sc.site.lazyJsBytes) {
        out += format("fetch %llu %llu ",
                      static_cast<unsigned long long>(sc.site.lazyJsAtMs),
                      static_cast<unsigned long long>(
                          sc.site.lazyJsBytes));
        out += doubleText(sc.site.lazyJsLoadFraction) + "\n";
    }
    for (const auto &action : sc.extraActions)
        serializeAction(out, action);
    return out;
}

bool
isLoadOnly(const Scenario &sc)
{
    return sc.site.actions.empty() && sc.extraActions.empty() &&
           sc.site.lazyJsBytes == 0 && sc.workers == 0 &&
           sc.extraTabs.empty();
}

} // namespace scenario
} // namespace webslice
