#include "common.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/categorize.hh"
#include "analysis/function_stats.hh"
#include "analysis/thread_stats.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/run.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "trace/artifacts.hh"

namespace perfbench {

using namespace webslice;

void
JsonOut::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!first_.empty()) {
        if (!first_.back())
            out_ += ',';
        first_.back() = false;
    }
}

JsonOut &
JsonOut::beginObject()
{
    separate();
    out_ += '{';
    first_.push_back(true);
    return *this;
}

JsonOut &
JsonOut::endObject()
{
    out_ += '}';
    first_.pop_back();
    return *this;
}

JsonOut &
JsonOut::beginArray()
{
    separate();
    out_ += '[';
    first_.push_back(true);
    return *this;
}

JsonOut &
JsonOut::endArray()
{
    out_ += ']';
    first_.pop_back();
    return *this;
}

JsonOut &
JsonOut::key(std::string_view name)
{
    separate();
    writeString(name);
    out_ += ':';
    afterKey_ = true;
    return *this;
}

JsonOut &
JsonOut::value(double v)
{
    separate();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonOut &
JsonOut::value(uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonOut &
JsonOut::value(int64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonOut &
JsonOut::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonOut &
JsonOut::value(std::string_view v)
{
    separate();
    writeString(v);
    return *this;
}

void
JsonOut::writeString(std::string_view v)
{
    out_ += '"';
    for (char c : v) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
}

JsonOut &
JsonOut::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

const char *
modeName(slicer::CriteriaMode mode)
{
    return mode == slicer::CriteriaMode::PixelBuffer ? "pixel" : "syscalls";
}

namespace {
volatile uint64_t g_probeSink;
} // namespace

double
hostProbeMs()
{
    // 4 MiB of xorshift words, then dependent loads through it: both
    // the ALUs and the cache hierarchy the program leans on.
    constexpr size_t kWords = 1u << 19;
    std::vector<uint64_t> buf(kWords);
    const int64_t t0 = monoNs();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &w : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = x;
    }
    uint64_t acc = 0, idx = 0;
    for (int pass = 0; pass < 24; ++pass) {
        for (size_t i = 0; i < kWords / 8; ++i) {
            idx = (buf[idx] ^ acc) & (kWords - 1);
            acc = acc * 0x100000001b3ull + buf[idx];
        }
    }
    const int64_t t1 = monoNs();
    g_probeSink = acc;
    return static_cast<double>(t1 - t0) / 1e6;
}

double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        ::getrusage(who, &ru);
        total += ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                 ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    }
    return total;
}

double
peakRssMb()
{
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

ChildRun
runChild(const std::vector<std::string> &argv)
{
    ChildRun result;
    int fds[2];
    fatal_if(::pipe2(fds, O_CLOEXEC) != 0, "perfbench: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char *> args;
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    const int64_t t0 = monoNs();
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr,
                                 args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        return result;
    }
    char buf[65536];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            result.out.append(buf, static_cast<size_t>(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    result.wallNs = monoNs() - t0;
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

const std::vector<std::string> &
trackedCounters()
{
    static const std::vector<std::string> names = {
        "trace.prefetch_hits",     "trace.prefetch_misses",
        "trace.block_cache_hits",  "trace.block_cache_misses",
        "trace.bytes_decoded",     "trace.blocks_decoded",
        "slicer.flat_probes",      "slicer.records_fed",
        "slicer.epoch_fallbacks",  "slicer.epochs_planned",
        "slicer.epochs_skipped",   "slicer.memo_hits",
        "slicer.plan_hits",        "slicer.plan_misses",
        "slicer.plan_builds",
    };
    return names;
}

std::vector<uint64_t>
readCounters()
{
    std::vector<uint64_t> values;
    for (const auto &name : trackedCounters())
        values.push_back(MetricRegistry::global().counter(name).value());
    return values;
}

void
writeCounterDelta(JsonOut &out, const std::vector<uint64_t> &before,
                  const std::vector<uint64_t> &after)
{
    out.beginObject();
    for (size_t i = 0; i < trackedCounters().size(); ++i)
        out.field(trackedCounters()[i], after[i] - before[i]);
    out.endObject();
}

std::vector<std::pair<bool, double>>
Phase::phases(const Options &opt)
{
    if (opt.trace)
        return {{false, opt.seconds / 2}, {true, opt.seconds / 2}};
    return {{false, opt.seconds}};
}

Phase::Phase(bool traced, double seconds)
    : name_(traced ? "timed" : "untraced"),
      lengthNs_(static_cast<int64_t>(seconds * 1e9))
{
    tracer::enable(traced);
    tracer::setPhase(name_);
    counters_ = readCounters();
    cpuS_ = cpuSeconds();
    startNs_ = monoNs();
}

bool
Phase::another(int done, int64_t last_iteration_ns) const
{
    return done < 2 || monoNs() + last_iteration_ns <= deadlineNs();
}

void
Phase::finish(std::string &list, int64_t end_ns, int iterations,
              const std::string &extra) const
{
    JsonOut p;
    p.beginObject()
        .field("name", name_)
        .field("wall_s", static_cast<double>(end_ns - startNs_) / 1e9)
        .field("cpu_s", cpuSeconds() - cpuS_)
        .field("iterations", iterations)
        .field("process_peak_rss_mb", peakRssMb());
    p.key("counters");
    writeCounterDelta(p, counters_, readCounters());
    // The summary object stays open in `p` so the extra members can
    // follow the counters.
    std::string json = p.str();
    if (!extra.empty())
        json += "," + extra;
    json += '}';
    list += (list.empty() ? "" : ",") + json;
}

std::vector<PaperScenario>
loadPaperScenarios(const std::string &repo)
{
    static const std::pair<const char *, const char *> kPaper[] = {
        {"amazon-desktop", "amazon_desktop.scn"},
        {"amazon-mobile", "amazon_mobile.scn"},
        {"maps", "maps.scn"},
        {"bing", "bing.scn"},
    };
    std::vector<PaperScenario> all;
    for (const auto &[id, file] : kPaper) {
        const std::string path = repo + "/scenarios/" + file;
        fatal_if(!std::filesystem::exists(path), "perfbench: missing ",
                 path);
        all.push_back({id, path});
    }
    return all;
}

RecordOutcome
recordAndPublish(const scenario::Scenario &sc, const std::string &prefix,
                 trace::TraceFormat format)
{
    RecordOutcome outcome;
    const int64_t t0 = monoNs();

    Span run_span("scenario.runScenario");
    const auto run = scenario::runScenario(sc);
    outcome.records = run.records().size();
    run_span.arg("records", static_cast<double>(outcome.records));
    run_span.end();

    {
        Span append_span("trace.TraceWriter.append");
        append_span.arg("records", static_cast<double>(outcome.records));
        trace::TraceWriter writer(prefix + ".trc", /*block_index=*/true,
                                  format, /*atomic=*/true);
        for (const auto &rec : run.records())
            writer.append(rec);
        append_span.end();
        Span close_span("trace.TraceWriter.close");
        writer.close();
    }
    {
        Span save_span("trace.saveSidecars");
        run.machine->symtab().save(prefix + ".sym");
        run.machine->pixelCriteria().save(prefix + ".crit");
        std::ofstream meta(prefix + ".meta");
        fatal_if(!meta, "cannot write ", prefix, ".meta");
        meta << "benchmark " << run.spec.name << '\n';
        meta << "loadCompleteIndex " << run.loadCompleteIndex << '\n';
        meta << "loadOnly " << (scenario::isLoadOnly(sc) ? 1 : 0) << '\n';
        const auto thread_names = run.threadNames();
        for (size_t t = 0; t < thread_names.size(); ++t)
            meta << "thread " << t << ' ' << thread_names[t] << '\n';
        meta.close();
        fatal_if(!meta, "cannot write ", prefix, ".meta");
    }
    outcome.recordNs = monoNs() - t0;
    outcome.traceBytes = std::filesystem::file_size(prefix + ".trc");
    return outcome;
}

ProfileOutcome
profileRecording(const std::string &prefix, slicer::CriteriaMode mode,
                 int jobs, bool warm_recall)
{
    ProfileOutcome outcome;
    const std::string trc = prefix + ".trc";

    trace::ArtifactSidecars sidecars;
    {
        Span span("trace.loadArtifactSidecars");
        sidecars = trace::loadArtifactSidecars(prefix);
    }

    graph::CfgSet cfgs;
    {
        Span span("graph.buildCfgsFromFile");
        cfgs = graph::buildCfgsFromFile(trc, sidecars.symtab, jobs);
        span.arg("records", static_cast<double>(cfgs.funcOf.size()));
    }
    graph::ControlDepMap deps;
    {
        Span span("graph.buildControlDeps");
        deps = graph::buildControlDeps(cfgs, jobs);
    }

    slicer::SlicerOptions options;
    options.mode = mode;
    options.jobs = jobs;
    options.backwardJobs = jobs;
    const trace::RunMeta &meta = sidecars.meta;
    if (meta.loadOnly && meta.loadCompleteIndex != SIZE_MAX)
        options.endIndex = meta.loadCompleteIndex;

    slicer::SliceResult slice;
    {
        Span span("slicer.computeSliceFromFile");
        const int64_t t0 = monoNs();
        slice = slicer::computeSliceFromFile(trc, cfgs, deps,
                                             sidecars.criteria, options);
        outcome.sliceColdNs = monoNs() - t0;
        span.arg("window", static_cast<double>(slice.analyzedWindowEnd));
    }
    if (warm_recall) {
        Span span("slicer.computeSliceFromFile.recall");
        const int64_t t0 = monoNs();
        const auto again = slicer::computeSliceFromFile(
            trc, cfgs, deps, sidecars.criteria, options);
        outcome.sliceWarmNs = monoNs() - t0;
        span.arg("window", static_cast<double>(again.analyzedWindowEnd));
        fatal_if(again.inSlice != slice.inSlice,
                 "perfbench: second backward pass over ", trc,
                 " disagrees with the first");
    }

    {
        Span attribution("profile.attribution");
        std::unique_ptr<trace::MappedTrace> mapped;
        {
            Span span("trace.MappedTrace");
            mapped = std::make_unique<trace::MappedTrace>(trc);
            span.arg("records", static_cast<double>(mapped->count()));
        }
        const auto records = mapped->records();
        const size_t window = std::min(options.endIndex, records.size());
        {
            Span span("analysis.computeThreadStats");
            span.arg("window", static_cast<double>(window));
            const auto stats = analysis::computeThreadStats(
                records, slice.inSlice, meta.threadNames, window);
            (void)stats;
        }
        {
            Span span("analysis.categorizeUnnecessary");
            span.arg("window", static_cast<double>(window));
            const auto dist = analysis::categorizeUnnecessary(
                records, slice.inSlice, cfgs, sidecars.symtab,
                analysis::Categorizer::chromiumDefault(), window);
            (void)dist;
        }
        {
            Span span("analysis.computeFunctionStats");
            span.arg("window", static_cast<double>(window));
            const auto functions = analysis::computeFunctionStats(
                {records.data(), window}, {slice.inSlice.data(), window},
                cfgs, sidecars.symtab);
            (void)functions;
        }
        outcome.records = records.size();
    }

    outcome.window = slice.analyzedWindowEnd;
    outcome.digest = fnv1a64(slice.inSlice.data(), slice.inSlice.size());
    outcome.peakLiveMem = slice.peakLiveMemBytes;
    return outcome;
}

void
makeDirs(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    fatal_if(ec, "perfbench: cannot create ", path, ": ", ec.message());
}

} // namespace perfbench
