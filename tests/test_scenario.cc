/**
 * @file
 * Scenario subsystem tests.
 *
 * The contracts under test, in order of importance:
 *  - A recording is defined by its .scn alone: re-executing a published
 *    recording's .scn reproduces its trace record for record and its
 *    concrete values bit for bit, and any disagreement with the .trc is
 *    fatal with the record index.
 *  - The built-ins are the checked-in scenarios/ files, embedded byte
 *    for byte, canonical, and named by their file stems.
 *  - The DSL round-trips: serialize -> parse -> serialize is a fixed
 *    point, for every verb.
 *  - Malformed scenarios die loudly with path:line context.
 *  - The generator is deterministic: same (seed, knobs) gives the same
 *    scenario text and the same trace digest; and its scenarios
 *    actually exercise the new verbs end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "scenario/builtins.hh"
#include "scenario/generator.hh"
#include "scenario/recording.hh"
#include "scenario/run.hh"
#include "scenario/scenario.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"
#include "workloads/sites.hh"

#ifndef WEBSLICE_SOURCE_DIR
#error "tests/CMakeLists.txt must define WEBSLICE_SOURCE_DIR"
#endif

namespace webslice {
namespace {

using browser::UserAction;
using scenario::Knobs;
using scenario::Scenario;

std::string
scnPath(const std::string &stem)
{
    return std::string(WEBSLICE_SOURCE_DIR) + "/scenarios/" + stem;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Record-for-record equality with a useful first-mismatch message. */
void
expectSameTrace(const std::vector<trace::Record> &a,
                const std::vector<trace::Record> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i] == b[i])
            << "first mismatch at record " << i << ": pc " << a[i].pc
            << " vs " << b[i].pc << ", kind "
            << static_cast<int>(a[i].kind) << " vs "
            << static_cast<int>(b[i].kind);
    }
}

/** A lo-knob generated scenario: every verb family, quick to record. */
Scenario
smallGenerated(uint64_t seed, int workers)
{
    Knobs knobs;
    knobs.domDepth = scenario::Level::Lo;
    knobs.cssVolume = scenario::Level::Lo;
    knobs.jsHotness = scenario::Level::Lo;
    knobs.images = scenario::Level::Lo;
    knobs.workers = workers;
    return scenario::generateScenario(seed, knobs);
}

std::string
tempPrefix(const std::string &stem)
{
    return std::string(::testing::TempDir()) + stem;
}

/** Delete the five artifacts recordScenario writes under `prefix`. */
void
removeRecording(const std::string &prefix)
{
    for (const char *ext : {".trc", ".sym", ".crit", ".meta", ".scn"})
        std::filesystem::remove(prefix + ext);
}

// ---- built-in scenarios --------------------------------------------------

TEST(Builtins, EveryCheckedInFileIsEmbeddedVerbatim)
{
    size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(scnPath(""))) {
        if (entry.path().extension() != ".scn")
            continue;
        ++files;
        const std::string stem = entry.path().stem().string();
        SCOPED_TRACE(stem);
        std::string id = stem;
        std::replace(id.begin(), id.end(), '_', '-');
        const scenario::Builtin *builtin = scenario::findBuiltin(id);
        ASSERT_NE(builtin, nullptr);
        EXPECT_EQ(builtin->file, "scenarios/" + stem + ".scn");

        const std::string text = readFile(entry.path().string());
        EXPECT_EQ(builtin->text, text);
        // Canonical: serializing the parse reproduces the file.
        const Scenario parsed = scenario::builtinScenario(id);
        EXPECT_EQ(scenario::serializeScenario(parsed), text);
        EXPECT_EQ(builtin->name, parsed.name);
    }
    EXPECT_EQ(scenario::builtins().size(), files);
    for (const char *id : scenario::kPaperBuiltins)
        EXPECT_NE(scenario::findBuiltin(id), nullptr) << id;
    EXPECT_EQ(scenario::findBuiltin("no-such-site"), nullptr);
}

TEST(BuiltinsDeath, UnknownIdIsFatal)
{
    EXPECT_EXIT(scenario::builtinScenario("no-such-site"),
                ::testing::ExitedWithCode(1),
                "unknown built-in scenario 'no-such-site'");
}

// ---- re-executing a recording --------------------------------------------

/** Values captured while recording `sc` directly, as a reference. */
trace::ValueLog
capturedValues(Scenario sc)
{
    sc.site.captureValues = true;
    const auto run = scenario::runScenario(sc);
    return *run.machine->valueLog();
}

TEST(Reexecution, ReproducesTheRecordedValuesBitForBit)
{
    // The property that lets a recording store no values: re-running
    // its published .scn yields exactly what capturing during the
    // recording would have stored.
    std::vector<std::pair<std::string, Scenario>> cases;
    for (const uint64_t seed : {3, 11}) {
        for (const int workers : {0, 2}) {
            cases.emplace_back(format("gen-%llu-w%d",
                                      static_cast<unsigned long long>(seed),
                                      workers),
                               smallGenerated(seed, workers));
        }
    }
    cases.emplace_back("amazon-mobile",
                       scenario::builtinScenario("amazon-mobile"));

    for (const auto &[name, sc] : cases) {
        SCOPED_TRACE(name);
        const std::string prefix = tempPrefix("reexec-" + name);
        scenario::recordScenario(sc, prefix, trace::TraceFormat::V1);
        const auto records = trace::loadTrace(prefix + ".trc");

        const auto values = scenario::reexecuteRecording(prefix, records);
        ASSERT_TRUE(values.has_value());
        const trace::ValueLog reference = capturedValues(sc);
        EXPECT_EQ(values->values.size(), records.size());
        EXPECT_EQ(values->values, reference.values);
        EXPECT_EQ(values->blobs, reference.blobs);
        EXPECT_FALSE(values->blobs.empty());
        removeRecording(prefix);
    }
}

TEST(Reexecution, NoScenarioMeansNoValues)
{
    const std::string prefix = tempPrefix("reexec-bare");
    scenario::recordScenario(smallGenerated(5, 0), prefix,
                             trace::TraceFormat::V1);
    std::filesystem::remove(prefix + ".scn");
    EXPECT_FALSE(scenario::reexecuteRecording(
                     prefix, trace::loadTrace(prefix + ".trc"))
                     .has_value());
    removeRecording(prefix);
}

/** Rewrite <prefix>.trc with `records`, then re-execute against it. */
void
reexecuteAgainst(const std::string &prefix,
                 const std::vector<trace::Record> &records)
{
    {
        trace::TraceWriter writer(prefix + ".trc");
        for (const auto &rec : records)
            writer.append(rec);
    }
    scenario::reexecuteRecording(prefix, trace::loadTrace(prefix + ".trc"));
}

TEST(ReexecutionDeath, FlippedRecordFieldNamesTheRecord)
{
    const std::string prefix = tempPrefix("reexec-flip");
    scenario::recordScenario(smallGenerated(5, 0), prefix,
                             trace::TraceFormat::V1);
    auto records = trace::loadTrace(prefix + ".trc");
    const size_t victim = records.size() / 2;
    records[victim].aux ^= 1;
    EXPECT_EXIT(reexecuteAgainst(prefix, records),
                ::testing::ExitedWithCode(1),
                prefix + ".scn does not reproduce " + prefix +
                    ".trc: record " + std::to_string(victim) + " differs");
    removeRecording(prefix);
}

TEST(ReexecutionDeath, ShortTraceNamesTheMissingRecord)
{
    const std::string prefix = tempPrefix("reexec-short");
    scenario::recordScenario(smallGenerated(5, 0), prefix,
                             trace::TraceFormat::V1);
    auto records = trace::loadTrace(prefix + ".trc");
    records.pop_back();
    EXPECT_EXIT(reexecuteAgainst(prefix, records),
                ::testing::ExitedWithCode(1),
                prefix + ".scn does not reproduce " + prefix +
                    ".trc: record " + std::to_string(records.size()) +
                    " is missing from " + prefix + ".trc");
    removeRecording(prefix);
}

TEST(ReexecutionDeath, UnparsableScenarioNamesFileAndLine)
{
    const std::string prefix = tempPrefix("reexec-garbled");
    scenario::recordScenario(smallGenerated(5, 0), prefix,
                             trace::TraceFormat::V1);
    std::ofstream(prefix + ".scn") << "scenario \"garbled\"\n"
                                   << "site {\n"
                                   << "  volume 11\n"
                                   << "}\n";
    EXPECT_EXIT(scenario::reexecuteRecording(
                    prefix, trace::loadTrace(prefix + ".trc")),
                ::testing::ExitedWithCode(1),
                prefix + ".scn:3: .*volume");
    removeRecording(prefix);
}

TEST(RecordingDeath, RefusesToOverwriteItsOwnScenarioFile)
{
    // `webslice-scenario run X.scn X`: the recording's canonical .scn
    // would replace the (commented) input.
    const std::string prefix = tempPrefix("self");
    removeRecording(prefix);
    const std::string scn = prefix + ".scn";
    const std::string text =
        "# hand-written, with comments\n" +
        scenario::serializeScenario(smallGenerated(5, 0));
    std::ofstream(scn) << text;
    const Scenario sc = scenario::parseScenarioFile(scn);

    // The same file under another spelling is refused too.
    const std::string dir = std::string(::testing::TempDir());
    const std::string respelled = dir + "./self.scn";
    for (const std::string &source : {scn, respelled}) {
        EXPECT_EXIT(scenario::recordScenario(sc, prefix,
                                             trace::TraceFormat::V1,
                                             source),
                    ::testing::ExitedWithCode(1),
                    "self.scn is the scenario file .*self.scn");
    }
    EXPECT_EQ(readFile(scn), text);
    EXPECT_FALSE(std::filesystem::exists(prefix + ".trc"));

    // A different prefix publishes the canonical text beside the trace.
    const std::string other = tempPrefix("self-copy");
    scenario::recordScenario(sc, other, trace::TraceFormat::V1, scn);
    EXPECT_EQ(readFile(other + ".scn"), scenario::serializeScenario(sc));
    EXPECT_EQ(readFile(scn), text);
    removeRecording(prefix);
    removeRecording(other);
}

TEST(Recording, PublishesAllFiveArtifacts)
{
    // webslice-record and webslice-scenario both publish through
    // recordScenario; .meta's loadOnly comes from isLoadOnly.
    const std::string prefix = tempPrefix("publish");
    const Scenario sc = smallGenerated(7, 2);
    const auto summary =
        scenario::recordScenario(sc, prefix, trace::TraceFormat::V2);
    EXPECT_EQ(trace::sniffTraceFormat(prefix + ".trc"),
              trace::TraceFormat::V2);
    EXPECT_EQ(trace::loadTrace(prefix + ".trc").size(), summary.records);
    for (const char *ext : {".sym", ".crit", ".meta", ".scn"})
        EXPECT_TRUE(std::filesystem::exists(prefix + ext)) << ext;
    const std::string meta = readFile(prefix + ".meta");
    EXPECT_NE(meta.find("benchmark " + sc.site.name + "\n"),
              std::string::npos);
    // Two workers make the session more than its load.
    EXPECT_NE(meta.find("loadOnly 0\n"), std::string::npos);
    removeRecording(prefix);
}

// ---- DSL round-trip ----------------------------------------------------

TEST(ScenarioDsl, EveryVerbRoundTrips)
{
    const std::string text = "scenario \"all verbs\"\n"
                             "site {\n"
                             "  url https://v.example/\n"
                             "  seed 0x9\n"
                             "  search_box 1\n"
                             "}\n"
                             "tab {\n"
                             "  url https://t.example/\n"
                             "  seed 0xa\n"
                             "  session 3000\n"
                             "}\n"
                             "session 5000\n"
                             "workers 2\n"
                             "scroll 1000 250\n"
                             "click 1500 btn-menu\n"
                             "key 1800 searchbox\n"
                             "fetch 2000 4096 0.75\n"
                             "type 2200 searchbox 3 120\n"
                             "partialnav 2600 sec-0 2 3 1500 0.8\n"
                             "raf 3000 800 util0\n"
                             "worker 3300 1 64\n"
                             "click 3500 btn-menu tab=1\n";
    const Scenario parsed = scenario::parseScenarioText(text, "inline");
    const std::string canon = scenario::serializeScenario(parsed);
    // Parsing the canonical form back is a fixed point.
    EXPECT_EQ(canon, scenario::serializeScenario(
                         scenario::parseScenarioText(canon, "canon")));

    EXPECT_EQ(parsed.name, "all verbs");
    EXPECT_EQ(parsed.site.seed, 0x9u);
    ASSERT_EQ(parsed.extraTabs.size(), 1u);
    EXPECT_EQ(parsed.extraTabs[0].seed, 0xAu);
    EXPECT_EQ(parsed.extraTabs[0].sessionMs, 3000u);
    EXPECT_EQ(parsed.workers, 2);
    EXPECT_EQ(parsed.site.sessionMs, 5000u);
    // Legacy verbs stay in site.actions, new verbs in extraActions.
    ASSERT_EQ(parsed.site.actions.size(), 3u);
    EXPECT_EQ(parsed.site.actions[0].kind, UserAction::Kind::Scroll);
    EXPECT_EQ(parsed.site.lazyJsBytes, 4096u);
    EXPECT_EQ(parsed.site.lazyJsAtMs, 2000u);
    EXPECT_DOUBLE_EQ(parsed.site.lazyJsLoadFraction, 0.75);
    ASSERT_EQ(parsed.extraActions.size(), 5u);
    EXPECT_EQ(parsed.extraActions[0].kind, UserAction::Kind::Type);
    EXPECT_EQ(parsed.extraActions[0].count, 3);
    EXPECT_EQ(parsed.extraActions[0].intervalMs, 120u);
    EXPECT_EQ(parsed.extraActions[1].kind, UserAction::Kind::PartialNav);
    EXPECT_EQ(parsed.extraActions[1].fragSections, 2);
    EXPECT_EQ(parsed.extraActions[1].bytes, 1500u);
    EXPECT_DOUBLE_EQ(parsed.extraActions[1].loadFraction, 0.8);
    EXPECT_EQ(parsed.extraActions[2].kind, UserAction::Kind::RafLoop);
    EXPECT_EQ(parsed.extraActions[2].fnName, "util0");
    EXPECT_EQ(parsed.extraActions[3].kind, UserAction::Kind::WorkerTask);
    EXPECT_EQ(parsed.extraActions[3].workerIndex, 1);
    EXPECT_EQ(parsed.extraActions[4].kind, UserAction::Kind::Click);
    EXPECT_EQ(parsed.extraActions[4].tab, 1);
}

TEST(ScenarioDsl, LoadOnlyConsidersTheWholeScenario)
{
    // The .meta loadOnly flag windows every downstream analysis at
    // loadCompleteIndex, so it must only be set when *nothing* is
    // scheduled after the load — including the new-verb actions that
    // live outside site.actions.
    Scenario bare;
    EXPECT_TRUE(scenario::isLoadOnly(bare));

    Scenario with_extra = bare;
    UserAction raf;
    raf.kind = UserAction::Kind::RafLoop;
    with_extra.extraActions.push_back(raf);
    EXPECT_FALSE(scenario::isLoadOnly(with_extra));

    Scenario with_legacy = bare;
    with_legacy.site.actions.emplace_back();
    EXPECT_FALSE(scenario::isLoadOnly(with_legacy));

    Scenario with_lazy = bare;
    with_lazy.site.lazyJsBytes = 512;
    EXPECT_FALSE(scenario::isLoadOnly(with_lazy));

    Scenario with_workers = bare;
    with_workers.workers = 1;
    EXPECT_FALSE(scenario::isLoadOnly(with_workers));

    Scenario with_tab = bare;
    with_tab.extraTabs.emplace_back();
    EXPECT_FALSE(scenario::isLoadOnly(with_tab));
}

TEST(ScenarioDsl, RelativeTimesFollowTheCursor)
{
    const Scenario sc = scenario::parseScenarioText(
        "site {\n  seed 1\n}\n"
        "click 1000 a\n"
        "wait 500\n"
        "click +0 b\n"    // 1500
        "scroll +250 10\n" // 1750
        "click 4000 c\n"
        "click +100 d\n", // 4100
        "inline");
    ASSERT_EQ(sc.site.actions.size(), 5u);
    EXPECT_EQ(sc.site.actions[1].atMs, 1500u);
    EXPECT_EQ(sc.site.actions[2].atMs, 1750u);
    EXPECT_EQ(sc.site.actions[4].atMs, 4100u);
}

// ---- malformed scenarios die with path:line context --------------------

using ScenarioDeath = ::testing::Test;

void
expectParseDeath(const std::string &text, const std::string &pattern)
{
    EXPECT_EXIT(scenario::parseScenarioText(text, "bad.scn"),
                ::testing::ExitedWithCode(1), pattern);
}

TEST(ScenarioDeath, UnknownDirectiveNamesFileAndLine)
{
    expectParseDeath("frobnicate 100\n", "bad.scn:1:.*frobnicate");
}

TEST(ScenarioDeath, UnknownSiteKeyNamesFileAndLine)
{
    expectParseDeath("site {\n  volume 11\n}\n", "bad.scn:2:.*volume");
}

TEST(ScenarioDeath, MalformedNumberNamesFileAndLine)
{
    expectParseDeath("click 12x4 btn-menu\n", "bad.scn:1:.*12x4");
}

TEST(ScenarioDeath, SecondFetchIsRejected)
{
    expectParseDeath("fetch 100 10 0.5\nfetch 200 10 0.5\n",
                     "bad.scn:2:.*one 'fetch'");
}

TEST(ScenarioDeath, UndeclaredWorkerIsRejected)
{
    expectParseDeath("worker 100 0 16\n",
                     "bad.scn:1:.*worker 0 not declared");
}

TEST(ScenarioDeath, UndeclaredTabIsRejected)
{
    expectParseDeath("click 100 a tab=2\n", "bad.scn:1:.*tab=2");
}

TEST(ScenarioDeath, UnterminatedBlockIsRejected)
{
    expectParseDeath("site {\n  seed 1\n", "bad.scn:.*unterminated");
}

TEST(ScenarioDeath, MissingFileNamesPath)
{
    EXPECT_EXIT(scenario::parseScenarioFile("/no/such/file.scn"),
                ::testing::ExitedWithCode(1), "/no/such/file.scn");
}

// ---- generator determinism ---------------------------------------------

TEST(ScenarioGenerator, SameSeedAndKnobsAreByteIdentical)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Knobs knobs;
        knobs.jsHotness = seed % 2 ? scenario::Level::Hi
                                   : scenario::Level::Lo;
        knobs.domDepth = seed % 3 ? scenario::Level::Mid
                                  : scenario::Level::Hi;
        const auto a = scenario::generateScenario(seed, knobs);
        const auto b = scenario::generateScenario(seed, knobs);
        EXPECT_EQ(scenario::serializeScenario(a),
                  scenario::serializeScenario(b))
            << "seed " << seed;
    }
}

TEST(ScenarioGenerator, DifferentSeedsDiffer)
{
    const Knobs knobs;
    EXPECT_NE(
        scenario::serializeScenario(scenario::generateScenario(1, knobs)),
        scenario::serializeScenario(scenario::generateScenario(2, knobs)));
}

TEST(ScenarioGenerator, GeneratedSceneryRunsDeterministically)
{
    // Small/lo so the test stays fast: run the same generated scenario
    // twice (via its serialized text, like the CLI does) and demand the
    // identical trace; the in-memory records are what the trace file
    // serializes, so equal records == equal .trc bytes.
    Knobs knobs;
    knobs.domDepth = scenario::Level::Lo;
    knobs.cssVolume = scenario::Level::Lo;
    knobs.jsHotness = scenario::Level::Lo;
    knobs.images = scenario::Level::Lo;
    const auto sc = scenario::generateScenario(7, knobs);
    const std::string text = scenario::serializeScenario(sc);
    const auto run1 = scenario::runScenario(
        scenario::parseScenarioText(text, "gen7"));
    const auto run2 = scenario::runScenario(
        scenario::parseScenarioText(text, "gen7"));
    expectSameTrace(run1.records(), run2.records());
    EXPECT_GT(run1.records().size(), 10000u);
}

TEST(ScenarioGenerator, ReparsedScnReproducesTheInMemoryTrace)
{
    // `webslice-scenario sweep` records the in-memory scenario and
    // writes its .scn beside the artifacts, so the .scn must describe
    // the *same* session. Pick a lo-knob seed whose partialnav carries
    // a fragment script (generator loadFraction 0.8, not the parser
    // default 0.95): a serializer that dropped the fraction would make
    // the reparsed run execute a different script.
    Knobs knobs;
    knobs.domDepth = scenario::Level::Lo;
    knobs.cssVolume = scenario::Level::Lo;
    knobs.jsHotness = scenario::Level::Lo;
    knobs.images = scenario::Level::Lo;
    Scenario sc;
    bool has_frag_script = false;
    for (uint64_t seed = 1; seed <= 16 && !has_frag_script; ++seed) {
        sc = scenario::generateScenario(seed, knobs);
        for (const auto &action : sc.extraActions) {
            has_frag_script |=
                action.kind == UserAction::Kind::PartialNav &&
                action.bytes > 0;
        }
    }
    ASSERT_TRUE(has_frag_script)
        << "no seed in 1..16 attaches a fragment script";

    const auto direct = scenario::runScenario(sc);
    const auto reparsed = scenario::runScenario(
        scenario::parseScenarioText(scenario::serializeScenario(sc),
                                    "reparsed"));
    expectSameTrace(direct.records(), reparsed.records());
}

TEST(ScenarioGenerator, KnobParsingRejectsJunk)
{
    Knobs knobs;
    EXPECT_EXIT(scenario::applyKnob(knobs, "js_hotness", "max"),
                ::testing::ExitedWithCode(1), "lo, mid, or hi");
    EXPECT_EXIT(scenario::applyKnob(knobs, "bogus", "hi"),
                ::testing::ExitedWithCode(1), "unknown knob 'bogus'");
    EXPECT_EXIT(scenario::applyKnob(knobs, "workers", "99"),
                ::testing::ExitedWithCode(1), "0\\.\\.8");
}

// ---- new verbs actually execute ----------------------------------------

/** A one-tab, no-worker scenario around a tiny site. */
Scenario
tinyScenario()
{
    Scenario sc;
    sc.name = "tiny";
    workloads::SiteSpec &spec = sc.site;
    spec.name = "tiny";
    spec.url = "https://tiny.example/";
    spec.seed = 0x5;
    spec.page.sections = 1;
    spec.page.itemsPerSection = 1;
    spec.page.hiddenMenus = 1;
    spec.js.targetBytes = 3000;
    spec.css.targetBytes = 1500;
    spec.sessionMs = 2500;
    return sc;
}

TEST(ScenarioVerbs, PartialNavSwapsTheSubtreeAndRunsItsScript)
{
    Scenario sc = tinyScenario();
    UserAction nav;
    nav.kind = UserAction::Kind::PartialNav;
    nav.atMs = 1200;
    nav.targetId = "sec-0";
    nav.fragSections = 2;
    nav.fragItems = 2;
    nav.bytes = 1200;
    sc.extraActions.push_back(nav);

    const auto base = scenario::runScenario(tinyScenario());
    const auto run = scenario::runScenario(sc);
    EXPECT_EQ(run.tab->partialNavsCompleted(), 1u);
    // The swap re-parses, restyles, and re-lays-out the subtree, and
    // the fragment script runs: strictly more work than the bare spec.
    EXPECT_GT(run.records().size(), base.records().size());
    EXPECT_GT(run.jsTotalBytes, base.jsTotalBytes);
}

TEST(ScenarioVerbs, RafLoopTicksAtVsyncCadence)
{
    Scenario sc = tinyScenario();
    UserAction raf;
    raf.kind = UserAction::Kind::RafLoop;
    raf.atMs = 1000;
    raf.durationMs = 160; // 10 ticks at the 16 ms default vsync
    raf.fnName = "util0";
    sc.extraActions.push_back(raf);

    const auto run = scenario::runScenario(sc);
    EXPECT_EQ(run.tab->rafTicksFired(), 10u);
}

TEST(ScenarioVerbs, WorkerBurstsCompleteAndAddThreads)
{
    Scenario sc = tinyScenario();
    sc.workers = 2;
    for (int w = 0; w < 2; ++w) {
        UserAction task;
        task.kind = UserAction::Kind::WorkerTask;
        task.atMs = 1000 + 200 * w;
        task.workerIndex = w;
        task.units = 32;
        sc.extraActions.push_back(task);
    }

    const auto run = scenario::runScenario(sc);
    EXPECT_EQ(run.tab->workerCount(), 2u);
    EXPECT_EQ(run.tab->workerTasksCompleted(), 2u);
    // Worker threads are visible in the run's thread table.
    const auto names = run.threadNames();
    EXPECT_NE(std::find(names.begin(), names.end(),
                        "DedicatedWorker thread 0"),
              names.end());
}

TEST(ScenarioVerbs, TypeBurstFiresEveryKeystroke)
{
    Scenario sc = tinyScenario();
    sc.site.page.searchBox = true;
    Scenario manual = sc;
    UserAction burst;
    burst.kind = UserAction::Kind::Type;
    burst.atMs = 1000;
    burst.targetId = "searchbox";
    burst.count = 4;
    burst.intervalMs = 100;
    sc.extraActions.push_back(burst);

    for (int k = 0; k < 4; ++k) {
        manual.site.actions.push_back(
            {UserAction::Kind::Key, 1000 + 100 * static_cast<uint64_t>(k),
             0, "searchbox"});
    }

    // A type burst is sugar for count spaced keystrokes.
    const auto burst_run = scenario::runScenario(sc);
    const auto manual_run = scenario::runScenario(manual);
    expectSameTrace(burst_run.records(), manual_run.records());
}

TEST(ScenarioVerbs, ExtraTabsShareTheMachine)
{
    Scenario sc = tinyScenario();
    workloads::SiteSpec second = tinyScenario().site;
    second.name = "tiny [tab 1]";
    second.seed = 0x6;
    sc.extraTabs.push_back(second);

    const auto run = scenario::runScenario(sc);
    ASSERT_EQ(run.extraTabs.size(), 1u);
    EXPECT_TRUE(run.extraTabs[0]->loadComplete());
    // Both documents were parsed on the one shared machine.
    EXPECT_GT(run.extraTabs[0]->pipelineUpdates(), 0u);
    const auto solo = scenario::runScenario(tinyScenario());
    EXPECT_GT(run.records().size(), solo.records().size());
}

} // namespace
} // namespace webslice
