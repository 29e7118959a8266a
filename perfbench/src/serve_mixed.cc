/**
 * @file
 * Workload serve-mixed: the slicing daemon under a closed loop.
 *
 * Set-up records the four paper scenarios (one child process each) and
 * starts an in-process service::Server on a Unix socket with its
 * sessions preloaded. The timed phase runs two client connections
 * against two workers, each sending its next single-query batch only
 * after the previous reply, over one seeded stationary stream of three
 * query kinds: repeats of a full window (answered from the memo), mode
 * switches on a recently built window (a plan-cache hit that still
 * walks), and window ends never asked before (a plan build). The cache
 * budget holds every session but only a few plans, so plans are
 * evicted at steady state.
 *
 * After the timed phase: the traced run replays a sample of the stream
 * single-threaded against a fresh SessionCache, calling the layers one
 * by one to split run_ms; then every distinct (recording, mode,
 * window) answered is recomputed with the in-memory sequential slicer
 * from an independently built forward pass, as the oracle.
 */

#include "workloads.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "analysis/categorize.hh"
#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "slicer/epoch.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "trace/artifacts.hh"

namespace perfbench {

using namespace webslice;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;

/**
 * Query mix per recording, in loadPaperScenarios order (amazon-desktop,
 * amazon-mobile, maps, bing), in permille. Latency is mostly set by
 * recording size and then by query kind, so the classes sort roughly
 * as bing and amazon-mobile (all kinds) < amazon-desktop < maps. The
 * weights centre the median in the amazon-desktop repeat class (about
 * 0.36..0.66 of the samples) and put every tail percentile inside the
 * maps class (the top 0.28); maps is asked repeats only, so no faster
 * or slower maps kind splits the top of the distribution. run.py
 * checks the margins on every run.
 */
constexpr int kRecordingWeight[] = {360, 180, 280, 180};

/** Permille of a recording's queries that ask a never-seen window end. */
constexpr int kFreshPermille[] = {100, 100, 0, 100};
/** Permille that switch mode on a recently built window. */
constexpr int kSwitchPermille[] = {80, 80, 0, 80};
/** A fresh window becomes switchable this many queries later, so the
 *  switch does not join the in-flight plan build. */
constexpr size_t kSwitchLag = 4;
/** Queries replayed single-threaded in the traced run. */
constexpr size_t kReplayQueries = 40;

/**
 * Session-cache budget: the four sessions and their full-window plans
 * take about 550 MiB, leaving room for about four more plans, so plan
 * eviction runs at steady state.
 */
constexpr uint64_t kCacheBytes = 700ull << 20;

enum class Kind { Repeat, Switch, Fresh };

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Repeat: return "repeat";
      case Kind::Switch: return "switch";
      case Kind::Fresh: return "fresh";
    }
    return "?";
}

struct Query
{
    size_t recording = 0;
    slicer::CriteriaMode mode = slicer::CriteriaMode::PixelBuffer;
    uint64_t endIndex = UINT64_MAX; ///< UINT64_MAX = full window.
    Kind kind = Kind::Repeat;
};

/** The seeded, stationary query stream. */
std::vector<Query>
makeStream(uint64_t seed, const std::vector<uint64_t> &full_windows,
           size_t count)
{
    Rng rng(seed * 0xd1342543de82ef95ull + 7);
    struct Pending
    {
        size_t position;
        uint64_t end;
        slicer::CriteriaMode mode;
    };
    std::vector<std::vector<Pending>> pending(full_windows.size());
    std::vector<std::set<uint64_t>> used(full_windows.size());
    std::vector<Query> stream;
    const int total_weight = kRecordingWeight[0] + kRecordingWeight[1] +
                             kRecordingWeight[2] + kRecordingWeight[3];
    for (size_t i = 0; i < count; ++i) {
        Query q;
        int pick = static_cast<int>(rng.below(total_weight));
        while (pick >= kRecordingWeight[q.recording])
            pick -= kRecordingWeight[q.recording++];
        const uint64_t full = full_windows[q.recording];
        q.mode = rng.below(2) ? slicer::CriteriaMode::Syscalls
                              : slicer::CriteriaMode::PixelBuffer;
        const int u = static_cast<int>(rng.below(1000));
        auto &queue = pending[q.recording];
        if (u < kFreshPermille[q.recording]) {
            uint64_t end;
            do {
                end = full * 6 / 10 + rng.below(full * 35 / 100);
            } while (!used[q.recording].insert(end).second);
            q.endIndex = end;
            q.kind = Kind::Fresh;
            queue.push_back({i, end,
                             q.mode == slicer::CriteriaMode::PixelBuffer
                                 ? slicer::CriteriaMode::Syscalls
                                 : slicer::CriteriaMode::PixelBuffer});
        } else if (u < kFreshPermille[q.recording] +
                           kSwitchPermille[q.recording]) {
            // Newest window old enough to have been built already.
            for (size_t k = queue.size(); k-- > 0;) {
                if (queue[k].position + kSwitchLag <= i) {
                    q.endIndex = queue[k].end;
                    q.mode = queue[k].mode;
                    q.kind = Kind::Switch;
                    queue.erase(queue.begin() + static_cast<long>(k));
                    break;
                }
            }
        }
        stream.push_back(q);
    }
    return stream;
}

struct Sample
{
    size_t index = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    bool transportOk = false;
    service::QueryResult result;
};

/** The stats op's reply, as raw JSON (empty object on failure). */
std::string
statsJson(const std::string &socket)
{
    service::ServiceClient client;
    std::string error;
    service::Json response;
    if (!client.connectUnix(socket, error))
        return "{}";
    service::Json request = service::Json::object();
    request.set("op", service::Json::string("stats"));
    if (!client.call(request, response, error))
        return "{}";
    return response.dump();
}

/** A running daemon and the thread its accept loop runs on. */
struct Daemon
{
    std::unique_ptr<service::Server> server;
    std::thread thread;

    void
    stop()
    {
        if (!server)
            return;
        server->requestShutdown();
        thread.join();
        server.reset();
    }
};

Daemon
startDaemon(const std::string &socket)
{
    service::ServerOptions options;
    options.socketPath = socket;
    options.workers = kWorkers;
    options.cacheBytes = kCacheBytes;
    options.forwardJobs = 0;
    Daemon d;
    d.server = std::make_unique<service::Server>(options);
    d.thread = std::thread([srv = d.server.get()] { srv->run(); });
    return d;
}

/** One single-query round trip; the sample records what came back. */
Sample
roundTrip(service::ServiceClient &client, const std::string &prefix,
          const Query &q, size_t index)
{
    service::SliceQuery query;
    query.mode = q.mode;
    query.endIndex = q.endIndex;
    query.backwardJobs = 1;
    Sample s;
    s.index = index;
    service::ServiceClient::BatchOutcome outcome;
    std::string error;
    RequestScope request(index);
    Span span("service.client.batch");
    s.startNs = monoNs();
    s.transportOk = client.batch(prefix, {query}, outcome, error);
    s.endNs = monoNs();
    if (s.transportOk && outcome.results.size() == 1) {
        s.result = outcome.results[0];
    } else {
        s.transportOk = false;
        s.result.error = error;
    }
    span.arg("queue_ms", s.result.queueMs);
    span.arg("run_ms", s.result.runMs);
    span.arg("slice_ms", s.result.sliceMs);
    span.arg("plan_hit", s.result.planHit ? 1 : 0);
    return s;
}

void
writeSample(JsonOut &out, const Sample &s, const Query &q,
            const std::string &phase, const std::vector<std::string> &ids)
{
    const auto &r = s.result;
    out.beginObject()
        .field("phase", phase)
        .field("recording", ids[q.recording])
        .field("mode", modeName(q.mode))
        .field("end_index", q.endIndex == UINT64_MAX
                                ? int64_t{-1}
                                : static_cast<int64_t>(q.endIndex))
        .field("kind", kindName(q.kind))
        .field("start_ns", s.startNs)
        .field("end_ns", s.endNs)
        .field("transport_ok", s.transportOk)
        .field("status", service::QueryResult::statusName(r.status))
        .field("error", r.error)
        .field("queue_ms", r.queueMs)
        .field("run_ms", r.runMs)
        .field("slice_ms", r.sliceMs)
        .field("plan_hit", r.planHit)
        .field("window", r.windowEnd)
        .field("digest", hex64(r.inSliceFnv1a))
        .endObject();
}

} // namespace

void
runServeMixed(const Options &opt, JsonOut &out)
{
    const auto paper = loadPaperScenarios(opt.repo);
    std::vector<std::string> ids, prefixes;
    for (const auto &p : paper) {
        ids.push_back(p.id);
        prefixes.push_back(opt.work + "/paper/" + p.id);
    }
    makeDirs(opt.work + "/paper");
    const std::string socket = opt.work + "/serve.sock";

    // Set-up, three times: record the paper scenarios (a child process
    // each, overwriting the same prefixes) and start a daemon with
    // every session built. The last daemon serves the timed phase.
    Daemon daemon;
    std::vector<double> setup_s;
    out.key("children").beginArray();
    std::vector<uint64_t> full_windows(paper.size());
    for (int rep = 0; rep < 3; ++rep) {
        daemon.stop();
        const int64_t t0 = monoNs();
        recordPaper(opt, paper, opt.work + "/paper", rep, out);
        daemon = startDaemon(socket);
        for (size_t r = 0; r < paper.size(); ++r) {
            Span span("service.SessionCache.acquire");
            bool hit = false;
            const auto session = daemon.server->cache().acquire(prefixes[r],
                                                                &hit);
            span.arg("hit", hit ? 1 : 0);
            span.arg("records",
                     static_cast<double>(session->trace->records().size()));
            full_windows[r] = session->windowEnd(false, UINT64_MAX);
        }
        setup_s.push_back(static_cast<double>(monoNs() - t0) / 1e9);
    }
    out.endArray();
    const auto sessions = daemon.server->cache().stats();
    std::fprintf(stderr,
                 "perfbench: serve-mixed sessions hold %.1f MiB of a "
                 "%.1f MiB budget\n",
                 sessions.bytes / 1048576.0, kCacheBytes / 1048576.0);

    // Far more queries than any run can send; runs consume a prefix.
    const auto stream = makeStream(opt.seed, full_windows, 20000);

    // Discarded warm-up: both modes on every full window build the four
    // full-window plans and fill their memos.
    {
        service::ServiceClient client;
        std::string error;
        fatal_if(!client.connectUnix(socket, error), "perfbench: ", error);
        for (size_t r = 0; r < paper.size(); ++r) {
            for (auto mode : {slicer::CriteriaMode::PixelBuffer,
                              slicer::CriteriaMode::Syscalls}) {
                Query q;
                q.recording = r;
                q.mode = mode;
                const auto s = roundTrip(client, prefixes[r], q, 0);
                fatal_if(!s.transportOk ||
                             s.result.status !=
                                 service::QueryResult::Status::Ok,
                         "perfbench: warm-up query failed: ",
                         s.result.error);
            }
        }
    }

    std::atomic<size_t> next{0};
    out.key("queries").beginArray();
    std::string phases;
    for (const auto &[traced, seconds] : Phase::phases(opt)) {
        const std::string stats_before = statsJson(socket);
        const Phase phase(traced, seconds);
        std::vector<std::vector<Sample>> per_client(kClients);
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                service::ServiceClient client;
                std::string error;
                if (!client.connectUnix(socket, error))
                    return;
                while (monoNs() < phase.deadlineNs()) {
                    const size_t i = next.fetch_add(1);
                    if (i >= stream.size())
                        break;
                    const Query &q = stream[i];
                    per_client[c].push_back(roundTrip(
                        client, prefixes[q.recording], q, i));
                }
            });
        }
        for (auto &t : clients)
            t.join();
        // The phase ends when its last reply arrives.
        int64_t end_ns = 0;
        size_t sent = 0;
        for (const auto &samples : per_client) {
            for (const auto &s : samples) {
                writeSample(out, s, stream[s.index], phase.name(), ids);
                end_ns = std::max(end_ns, s.endNs);
                ++sent;
            }
        }
        fatal_if(sent == 0, "perfbench: no query completed (is the "
                            "daemon up?)");
        phase.finish(phases, end_ns, 0,
                     "\"stats_before\":" + stats_before +
                         ",\"stats_after\":" + statsJson(socket));
    }
    out.endArray();
    daemon.stop();
    tracer::enable(opt.trace);

    // Traced run only: replay the head of the stream single-threaded,
    // calling each layer the daemon's query path calls, against a fresh
    // cache with the daemon's budget (warmed the same way).
    if (opt.trace) {
        tracer::setPhase("replay");
        service::SessionCache cache(kCacheBytes, 0);
        std::vector<Query> replay;
        for (size_t r = 0; r < paper.size(); ++r)
            for (auto mode : {slicer::CriteriaMode::PixelBuffer,
                              slicer::CriteriaMode::Syscalls})
                replay.push_back({r, mode, UINT64_MAX, Kind::Repeat});
        const size_t warm = replay.size();
        for (size_t i = 0; i < kReplayQueries && i < stream.size(); ++i)
            replay.push_back(stream[i]);

        for (size_t k = 0; k < replay.size(); ++k) {
            const Query &q = replay[k];
            RequestScope request(k < warm ? 0 : k - warm);
            Span root("replay.query");
            std::shared_ptr<const service::Session> session;
            {
                Span span("service.SessionCache.acquire");
                bool hit = false;
                session = cache.acquire(prefixes[q.recording], &hit);
                span.arg("hit", hit ? 1 : 0);
                span.arg("records",
                         static_cast<double>(session->trace->records().size()));
            }
            slicer::SlicerOptions options;
            options.mode = q.mode;
            options.backwardJobs = 1;
            options.endIndex = session->windowEnd(false, q.endIndex);
            std::shared_ptr<const slicer::EpochPlan> plan;
            {
                Span span("service.SessionCache.acquirePlan");
                bool hit = false;
                plan = cache.acquirePlan(session, options.endIndex, &hit);
                span.arg("hit", hit ? 1 : 0);
            }
            options.reusePlan = plan.get();
            const auto records_span = session->trace->records();
            auto &registry = MetricRegistry::global();
            const uint64_t memo0 = registry.counter("slicer.memo_hits").value();
            const uint64_t skip0 =
                registry.counter("slicer.epochs_skipped").value();
            slicer::SliceResult slice;
            {
                Span span("slicer.computeSlice");
                slice = slicer::computeSlice(records_span, session->cfgs,
                                             session->deps,
                                             session->sidecars.criteria,
                                             options);
                const uint64_t memo =
                    registry.counter("slicer.memo_hits").value() - memo0;
                span.arg("memo_hit", memo ? 1 : 0);
                span.arg("epochs",
                         plan ? static_cast<double>(plan->epochCount()) : 0);
                span.arg("epochs_skipped",
                         static_cast<double>(
                             registry.counter("slicer.epochs_skipped")
                                 .value() -
                             skip0));
            }
            {
                Span span("analysis.categorizeUnnecessary");
                span.arg("window", static_cast<double>(slice.analyzedWindowEnd));
                const auto dist = analysis::categorizeUnnecessary(
                    records_span, slice.inSlice, session->cfgs,
                    session->sidecars.symtab,
                    analysis::Categorizer::chromiumDefault(),
                    slice.analyzedWindowEnd);
                (void)dist;
            }
        }
    }

    // Oracle: every distinct (recording, mode, window) the daemon
    // answered, recomputed from a forward pass of our own by the
    // sequential in-memory walk.
    tracer::setPhase("verify");
    std::vector<std::set<std::pair<int, uint64_t>>> asked(paper.size());
    const size_t sent = std::min(next.load(), stream.size());
    for (size_t i = 0; i < sent; ++i) {
        const Query &q = stream[i];
        asked[q.recording].insert(
            {q.mode == slicer::CriteriaMode::Syscalls ? 1 : 0,
             std::min<uint64_t>(q.endIndex, full_windows[q.recording])});
    }
    out.key("oracle").beginArray();
    for (size_t r = 0; r < paper.size(); ++r) {
        if (asked[r].empty())
            continue;
        const std::string trc = prefixes[r] + ".trc";
        trace::ArtifactSidecars sidecars;
        {
            Span span("trace.loadArtifactSidecars");
            sidecars = trace::loadArtifactSidecars(prefixes[r]);
        }
        std::unique_ptr<trace::MappedTrace> mapped;
        {
            Span span("trace.MappedTrace");
            mapped = std::make_unique<trace::MappedTrace>(trc);
            span.arg("records", static_cast<double>(mapped->count()));
        }
        graph::CfgSet cfgs;
        {
            Span span("graph.buildCfgsFromFile");
            cfgs = graph::buildCfgsFromFile(trc, sidecars.symtab, 1);
            span.arg("records", static_cast<double>(cfgs.funcOf.size()));
        }
        graph::ControlDepMap deps;
        {
            Span span("graph.buildControlDeps");
            deps = graph::buildControlDeps(cfgs, 1);
        }
        for (const auto &[mode, window] : asked[r]) {
            slicer::SlicerOptions options;
            options.mode = mode ? slicer::CriteriaMode::Syscalls
                                : slicer::CriteriaMode::PixelBuffer;
            options.backwardJobs = 1;
            options.endIndex = window;
            Span span("slicer.computeSlice.sequential");
            const auto slice = slicer::computeSlice(
                mapped->records(), cfgs, deps, sidecars.criteria, options);
            span.arg("window", static_cast<double>(slice.analyzedWindowEnd));
            span.end();
            out.beginObject()
                .field("recording", ids[r])
                .field("mode", modeName(options.mode))
                .field("window", slice.analyzedWindowEnd)
                .field("digest", hex64(fnv1a64(slice.inSlice.data(),
                                               slice.inSlice.size())))
                .endObject();
        }
    }
    out.endArray();

    out.key("full_windows").beginObject();
    for (size_t r = 0; r < paper.size(); ++r)
        out.field(ids[r], full_windows[r]);
    out.endObject();
    out.key("setup_s").beginArray();
    for (double s : setup_s)
        out.value(s);
    out.endArray();
    out.key("phases").raw("[" + phases + "]");
}

} // namespace perfbench
