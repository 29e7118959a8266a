/**
 * @file
 * Workload profile-cli: what a researcher runs after recording.
 *
 * Set-up records the four paper scenarios to v1 artifacts, one child
 * process per recording as webslice-record would. The timed phase then
 * profiles every (recording, criteria mode) pair in a fresh child
 * process with forward and backward jobs at all cores, in a seeded
 * order per iteration, so every iteration pays the process-lifetime
 * costs a CLI run pays. Correctness is the pinned slice digest of each
 * profile, checked by run.py.
 */

#include "workloads.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "spans.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

namespace perfbench {

using namespace webslice;

namespace {

/** key=value child arguments. */
std::map<std::string, std::string>
childArgs(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int a = 2; a < argc; ++a) {
        const char *eq = std::strchr(argv[a], '=');
        fatal_if(!eq, "perfbench: child argument '", argv[a],
                 "' is not key=value");
        args[std::string(argv[a], static_cast<size_t>(eq - argv[a]))] = eq + 1;
    }
    return args;
}

const std::string &
need(const std::map<std::string, std::string> &args, const char *key)
{
    auto it = args.find(key);
    fatal_if(it == args.end(), "perfbench: child argument ", key,
             " missing");
    return it->second;
}

uint64_t
number(const std::map<std::string, std::string> &args, const char *key)
{
    return std::strtoull(need(args, key).c_str(), nullptr, 10);
}

/** Shared child preamble: tracing, phase, and the parent span. */
void
childTracing(const std::map<std::string, std::string> &args)
{
    tracer::enable(number(args, "trace") != 0);
    tracer::setPhase(need(args, "phase"));
    tracer::setRoot(number(args, "parent"), number(args, "rid"));
}

struct Pair
{
    size_t recording;
    slicer::CriteriaMode mode;
};

} // namespace

int
recordOneChild(int argc, char **argv)
{
    const auto args = childArgs(argc, argv);
    childTracing(args);
    const auto sc = scenario::parseScenarioFile(need(args, "scn"));
    const auto outcome =
        recordAndPublish(sc, need(args, "prefix"), trace::TraceFormat::V1);
    JsonOut out;
    out.beginObject()
        .field("records", outcome.records)
        .field("trace_bytes", outcome.traceBytes)
        .field("record_ns", outcome.recordNs);
    out.key("spans").raw(tracer::toJson(tracer::take()));
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}

int
profileOneChild(int argc, char **argv)
{
    const auto args = childArgs(argc, argv);
    childTracing(args);
    const auto mode = need(args, "mode") == "syscalls"
                          ? slicer::CriteriaMode::Syscalls
                          : slicer::CriteriaMode::PixelBuffer;
    const auto before = readCounters();
    const auto outcome = profileRecording(
        need(args, "prefix"), mode, static_cast<int>(number(args, "jobs")),
        number(args, "recall") != 0);
    const auto after = readCounters();

    JsonOut out;
    out.beginObject()
        .field("records", outcome.records)
        .field("window", outcome.window)
        .field("digest", hex64(outcome.digest))
        .field("peak_live_mem", outcome.peakLiveMem)
        .field("slice_cold_ns", outcome.sliceColdNs)
        .field("slice_recall_ns", outcome.sliceWarmNs)
        .field("peak_rss_mb", peakRssMb());
    out.key("counters");
    writeCounterDelta(out, before, after);
    out.key("spans").raw(tracer::toJson(tracer::take()));
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}

void
recordPaper(const Options &opt, const std::vector<PaperScenario> &paper,
            const std::string &dir, int rep, JsonOut &children)
{
    for (const auto &p : paper) {
        const auto child = runChild(
            {opt.self, "record-one", "scn=" + p.path,
             "prefix=" + dir + "/" + p.id,
             std::string("trace=") + (opt.trace ? "1" : "0"), "phase=setup",
             "parent=0", "rid=0"});
        fatal_if(child.exitCode != 0, "perfbench: recording ", p.id,
                 " failed (exit ", child.exitCode, ")");
        children.beginObject()
            .field("kind", "record")
            .field("rep", rep)
            .field("recording", p.id);
        children.key("report").raw(child.out);
        children.endObject();
    }
}

void
runProfileCli(const Options &opt, JsonOut &out)
{
    const auto paper = loadPaperScenarios(opt.repo);
    const std::string dir = opt.work + "/paper";
    makeDirs(dir);
    uint64_t rid = 0;

    // Set-up, three times: record each paper scenario in its own child
    // process, as webslice-record would. Every repetition overwrites
    // the same prefixes.
    out.key("children").beginArray();
    std::vector<double> setup_s;
    for (int rep = 0; rep < 3; ++rep) {
        const int64_t t0 = monoNs();
        recordPaper(opt, paper, dir, rep, out);
        setup_s.push_back(static_cast<double>(monoNs() - t0) / 1e9);
    }

    // Discarded warm-up: one profile of the smallest recording brings
    // the binary and the artifacts into the page cache.
    const auto warm = runChild({opt.self, "profile-one",
                                "prefix=" + dir + "/bing", "mode=pixel",
                                "jobs=0", "trace=0", "recall=0",
                                "phase=warmup", "parent=0", "rid=0"});
    fatal_if(warm.exitCode != 0, "perfbench: warm-up profile failed");

    std::vector<Pair> pairs;
    for (size_t r = 0; r < paper.size(); ++r)
        for (auto mode : {slicer::CriteriaMode::PixelBuffer,
                          slicer::CriteriaMode::Syscalls})
            pairs.push_back({r, mode});

    Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
    std::string phases;
    for (const auto &[traced, seconds] : Phase::phases(opt)) {
        const Phase phase(traced, seconds);
        const std::string trace_flag = traced ? "1" : "0";
        int64_t last_iteration_ns = 0;
        int iteration = 0;
        while (phase.another(iteration, last_iteration_ns)) {
            const int64_t i0 = monoNs();
            // Seeded Fisher-Yates order for this iteration.
            std::vector<Pair> order = pairs;
            for (size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.below(i)]);
            for (const auto &pr : order) {
                const std::string &id = paper[pr.recording].id;
                RequestScope request(++rid);
                Span span("cli.profile");
                span.arg("iteration", iteration);
                const auto child = runChild(
                    {opt.self, "profile-one", "prefix=" + dir + "/" + id,
                     std::string("mode=") + modeName(pr.mode), "jobs=0",
                     "trace=" + trace_flag, "recall=" + trace_flag,
                     "phase=" + phase.name(),
                     "parent=" + std::to_string(span.id()),
                     "rid=" + std::to_string(rid)});
                span.end();
                out.beginObject()
                    .field("kind", "profile")
                    .field("phase", phase.name())
                    .field("iteration", iteration)
                    .field("recording", id)
                    .field("mode", modeName(pr.mode))
                    .field("wall_ns", child.wallNs)
                    .field("exit", child.exitCode);
                const bool one_line = !child.out.empty() &&
                                      child.out.front() == '{' &&
                                      child.out.find('\n') ==
                                          child.out.size() - 1;
                if (child.exitCode == 0 && one_line)
                    out.key("report").raw(child.out);
                out.endObject();
            }
            last_iteration_ns = monoNs() - i0;
            ++iteration;
        }
        phase.finish(phases, monoNs(), iteration);
    }
    out.endArray();

    out.key("setup_s").beginArray();
    for (double s : setup_s)
        out.value(s);
    out.endArray();
    out.key("phases").raw("[" + phases + "]");
}

} // namespace perfbench
