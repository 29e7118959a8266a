/**
 * @file
 * webslice-client: command-line front end for webslice-served.
 *
 *   webslice-client [--socket PATH | --tcp PORT | --fleet LIST] ping
 *   webslice-client [--socket PATH | --tcp PORT | --fleet LIST] stats
 *   webslice-client [--socket PATH | --tcp PORT | --fleet LIST] shutdown
 *   webslice-client --fleet LIST route <prefix>
 *   webslice-client [... connection flags ...] batch <prefix>
 *                   --query SPEC [--query SPEC]... [--timeout-ms N]
 *                   [--metrics-json FILE]
 *
 * `--fleet LIST` is a comma-separated list of shard endpoints — Unix
 * socket paths, or host:port for TCP — and switches every command to
 * fleet mode: batches are routed to the shard owning the recording's
 * artifact digest (consistent hashing, see service/router.hh) with
 * automatic failover to the next replica when a shard is dead or
 * draining; ping/stats/shutdown fan out to every endpoint, printing one
 * JSON line per shard; `route` prints the digest and owner ordering for
 * a prefix without running anything.
 *
 * A query SPEC is `pixel` or `syscalls`, optionally extended with
 * colon-separated modifiers:
 *
 *   pixel                       pixel-buffer criteria, metadata window
 *   syscalls:no-window          syscall criteria, whole trace
 *   pixel:end=100000            window capped at record 100000
 *   pixel:backward-jobs=4       accepted for compatibility; the value
 *                               no longer changes how the query runs
 *   pixel:sleep=250             hold the query 250 ms at run start (a
 *                               failover-testing hook; maps to the
 *                               protocol's debug_sleep_ms)
 *
 * Counts are plain decimal (no sign, blank or '+'): end= and sleep= at
 * most INT64_MAX, backward-jobs= at most 65536. Anything else is a
 * usage error.
 *
 * `--query @criteria.txt` expands a spec file: one SPEC per line, blank
 * lines and `#` comments ignored. This is the convenient way to run
 * many criteria against one session (the daemon builds the session
 * once, walks each new criterion, and answers repeats from its memo).
 *
 * Result frames are printed as JSON lines as they stream in, so a batch
 * behaves well in a pipeline; a fleet batch closes the stream with one
 * {"op":"fleet_done",...} summary carrying failover counters.
 * --metrics-json (a file path or '-') additionally writes a
 * webslice-metrics-v1 report whose `batch` (and, in fleet mode,
 * `fleet`) sections summarize the round trip.
 *
 * Exit status: 0 when every query succeeded, 1 for usage errors or a
 * connection that dropped before batch_done (the unanswered criteria
 * are named on stderr), 2 when the round trip completed but any query
 * reported an error, rejection, or timeout (each is named on stderr),
 * or a single-op response carried status != "ok".
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/router.hh"
#include "support/metrics.hh"
#include "support/strings.hh"

using namespace webslice;

namespace {

constexpr char kUsage[] =
    "usage: %s [--socket PATH | --tcp PORT | --fleet LIST] <command>\n"
    "\n"
    "commands:\n"
    "  ping                  round-trip check; prints the daemon's reply\n"
    "                        (fleet mode: one line per endpoint)\n"
    "  stats                 print cache, scheduler, and metric counters\n"
    "                        (fleet mode: one line per endpoint)\n"
    "  shutdown              ask the daemon(s) to drain and exit\n"
    "  route <prefix>        fleet mode only: print the recording's\n"
    "                        artifact digest and owning shards\n"
    "  batch <prefix> --query SPEC [--query SPEC]... [--timeout-ms N]\n"
    "                        [--metrics-json FILE]\n"
    "                        run slicing queries against one recording\n"
    "\n"
    "query SPEC grammar: (pixel|syscalls)[:no-window][:end=N]\n"
    "                    [:backward-jobs=N][:sleep=MS]\n"
    "                    or @FILE with one SPEC per line ('#' comments\n"
    "                    and blank lines ignored)\n"
    "\n"
    "--fleet LIST is comma-separated shard endpoints (Unix socket paths\n"
    "or host:port); batches route by artifact digest and fail over to\n"
    "the next replica when the owning shard is dead or draining.\n";

/**
 * Parse one --query SPEC; false with a diagnostic on bad grammar. Counts
 * take the bounds the daemon's SliceQuery::fromJson enforces.
 */
bool
parseQuerySpec(const std::string &spec, service::SliceQuery &query,
               std::string &error)
{
    query = service::SliceQuery();
    // Parse the value of a `key=N` modifier into `value`.
    const auto count = [&](const std::string &part, const char *key,
                           uint64_t max_value, uint64_t &value) {
        std::string why;
        if (tryParseCount(key, part.c_str() + std::strlen(key), max_value,
                          value, why))
            return true;
        error = format("bad %s value in '%s': %s", key, spec.c_str(),
                       why.c_str());
        return false;
    };
    std::stringstream parts(spec);
    std::string part;
    bool first = true;
    while (std::getline(parts, part, ':')) {
        if (first) {
            first = false;
            if (part == "pixel" || part == "pixel-buffer") {
                query.mode = slicer::CriteriaMode::PixelBuffer;
            } else if (part == "syscalls") {
                query.mode = slicer::CriteriaMode::Syscalls;
            } else {
                error = format("query must start with 'pixel' or "
                               "'syscalls', got '%s'",
                               part.c_str());
                return false;
            }
            continue;
        }
        if (part == "no-window") {
            query.noWindow = true;
        } else if (part.rfind("end=", 0) == 0) {
            if (!count(part, "end=", INT64_MAX, query.endIndex))
                return false;
        } else if (part.rfind("backward-jobs=", 0) == 0) {
            uint64_t jobs = 0;
            if (!count(part, "backward-jobs=", 1 << 16, jobs))
                return false;
            query.backwardJobs = static_cast<int>(jobs);
        } else if (part.rfind("sleep=", 0) == 0) {
            if (!count(part, "sleep=", INT64_MAX, query.debugSleepMs))
                return false;
        } else {
            error = format("unknown query modifier '%s' in '%s'",
                           part.c_str(), spec.c_str());
            return false;
        }
    }
    if (first) {
        error = "empty query spec";
        return false;
    }
    return true;
}

/**
 * Expand one --query argument into specs: `@FILE` reads one spec per
 * line (blank lines and lines whose first non-space byte is '#' are
 * skipped); anything else is a single spec passed through verbatim.
 */
bool
expandQueryArg(const std::string &arg, std::vector<std::string> &specs,
               std::string &error)
{
    if (arg.empty() || arg[0] != '@') {
        specs.push_back(arg);
        return true;
    }
    const std::string path = arg.substr(1);
    std::FILE *file = std::fopen(path.c_str(), "r");
    if (!file) {
        error = format("cannot open query file '%s': %s", path.c_str(),
                       std::strerror(errno));
        return false;
    }
    char line[4096];
    const size_t before = specs.size();
    while (std::fgets(line, sizeof(line), file)) {
        std::string spec(line);
        const size_t begin = spec.find_first_not_of(" \t\r\n");
        if (begin == std::string::npos || spec[begin] == '#')
            continue;
        const size_t end = spec.find_last_not_of(" \t\r\n");
        specs.push_back(spec.substr(begin, end - begin + 1));
    }
    std::fclose(file);
    if (specs.size() == before) {
        error = format("query file '%s' contains no specs", path.c_str());
        return false;
    }
    return true;
}

int
usageError(const char *argv0, const char *message)
{
    std::fprintf(stderr, "%s: %s\n", argv0, message);
    std::fprintf(stderr, kUsage, argv0);
    return 1;
}

std::vector<std::string>
splitFleetList(const std::string &list)
{
    std::vector<std::string> endpoints;
    std::stringstream parts(list);
    std::string part;
    while (std::getline(parts, part, ','))
        if (!part.empty())
            endpoints.push_back(part);
    return endpoints;
}

/**
 * Report every non-Ok result on stderr, naming the criterion by its
 * spec string, and every criterion that never got an answer at all.
 * Returns the exit code: 0 all ok, 1 unanswered criteria, 2 answered
 * failures only.
 */
int
reportBatchFailures(const char *argv0,
                    const std::vector<std::string> &specs,
                    const service::ServiceClient::BatchOutcome &outcome,
                    const std::vector<bool> &answered)
{
    int code = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        if (!answered[i]) {
            std::fprintf(stderr,
                         "%s: query %zu (%s): no result (connection "
                         "lost before batch_done)\n",
                         argv0, i, specs[i].c_str());
            code = 1;
            continue;
        }
        const service::QueryResult &result = outcome.results[i];
        if (result.status == service::QueryResult::Status::Ok)
            continue;
        std::fprintf(
            stderr, "%s: query %zu (%s) %s: %s\n", argv0, i,
            specs[i].c_str(),
            service::QueryResult::statusName(result.status),
            result.error.empty() ? "(no detail)" : result.error.c_str());
        if (code == 0)
            code = 2;
    }
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "/tmp/webslice-served.sock";
    int tcp_port = -1;
    std::vector<std::string> fleet;
    int a = 1;
    for (; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--socket")) {
            if (a + 1 >= argc)
                return usageError(argv[0], "--socket requires a value");
            socket_path = argv[++a];
        } else if (!std::strcmp(argv[a], "--tcp")) {
            if (a + 1 >= argc)
                return usageError(argv[0], "--tcp requires a value");
            tcp_port = static_cast<int>(
                parseCount("--tcp", argv[++a], 65535));
        } else if (!std::strcmp(argv[a], "--fleet")) {
            if (a + 1 >= argc)
                return usageError(argv[0], "--fleet requires a value");
            fleet = splitFleetList(argv[++a]);
            if (fleet.empty())
                return usageError(argv[0],
                                  "--fleet needs at least one endpoint");
        } else {
            break;
        }
    }
    if (a >= argc)
        return usageError(argv[0], "missing command");
    const std::string command = argv[a++];

    std::string error;

    // ---- Fleet mode ----------------------------------------------
    if (!fleet.empty()) {
        service::FleetClient fleet_client(fleet);

        if (command == "ping" || command == "stats" ||
            command == "shutdown") {
            // Fan out to every endpoint; one JSON line per shard with
            // the endpoint annotated, unreachable ones reported
            // in-band so a partially-dead fleet still prints.
            service::Json request = service::Json::object();
            request.set("op", service::Json::string(command));
            int code = 0;
            for (const auto &endpoint : fleet_client.router()
                                            .endpoints()) {
                service::Json response;
                if (!fleet_client.callOn(endpoint, request, response,
                                         error)) {
                    response = service::Json::object();
                    response.set("status",
                                 service::Json::string("unreachable"));
                    response.set("error",
                                 service::Json::string(error));
                    code = 2;
                }
                response.set("endpoint",
                             service::Json::string(endpoint));
                std::printf("%s\n", response.dump().c_str());
            }
            return code;
        }

        if (command == "route") {
            if (a >= argc)
                return usageError(argv[0],
                                  "route requires an artifact prefix");
            const std::string prefix = argv[a++];
            const uint64_t digest = fleet_client.digestFor(prefix);
            service::Json j = service::Json::object();
            j.set("op", service::Json::string("route"));
            j.set("prefix", service::Json::string(prefix));
            j.set("digest",
                  service::Json::string(format(
                      "0x%016llx",
                      static_cast<unsigned long long>(digest))));
            service::Json owners = service::Json::array();
            for (const auto &owner : fleet_client.ownersFor(prefix))
                owners.push(service::Json::string(owner));
            j.set("owners", std::move(owners));
            std::printf("%s\n", j.dump().c_str());
            return 0;
        }

        if (command != "batch")
            return usageError(
                argv[0],
                format("unknown command '%s'", command.c_str())
                    .c_str());
    } else if (command != "ping" && command != "stats" &&
               command != "shutdown" && command != "batch") {
        if (command == "route")
            return usageError(argv[0], "route requires --fleet");
        return usageError(
            argv[0],
            format("unknown command '%s'", command.c_str()).c_str());
    }

    // ---- Single-daemon simple ops --------------------------------
    if (fleet.empty() && command != "batch") {
        service::ServiceClient client;
        const bool connected =
            tcp_port >= 0
                ? client.connectTcp("127.0.0.1", tcp_port, error)
                : client.connectUnix(socket_path, error);
        if (!connected) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 1;
        }
        service::Json request = service::Json::object();
        request.set("op", service::Json::string(command));
        service::Json response;
        if (!client.call(request, response, error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 1;
        }
        std::printf("%s\n", response.dump().c_str());
        const service::Json *status = response.find("status");
        if (status == nullptr || status->asString() != "ok") {
            std::fprintf(stderr, "%s: %s returned status '%s'\n",
                         argv[0], command.c_str(),
                         status != nullptr
                             ? status->asString().c_str()
                             : "(missing)");
            return 2;
        }
        return 0;
    }

    // ---- batch (single daemon or fleet) --------------------------
    if (a >= argc)
        return usageError(argv[0], "batch requires an artifact prefix");
    const std::string prefix = argv[a++];

    std::vector<service::SliceQuery> queries;
    std::vector<std::string> specs;
    uint64_t timeout_ms = 0;
    std::string metrics_json;
    for (; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--query")) {
            if (a + 1 >= argc)
                return usageError(argv[0], "--query requires a value");
            std::vector<std::string> expanded;
            if (!expandQueryArg(argv[++a], expanded, error))
                return usageError(argv[0], error.c_str());
            for (const std::string &spec : expanded) {
                service::SliceQuery query;
                if (!parseQuerySpec(spec, query, error))
                    return usageError(argv[0], error.c_str());
                queries.push_back(query);
                specs.push_back(spec);
            }
        } else if (!std::strcmp(argv[a], "--timeout-ms")) {
            if (a + 1 >= argc)
                return usageError(argv[0],
                                  "--timeout-ms requires a value");
            timeout_ms = parseCount("--timeout-ms", argv[++a], UINT64_MAX);
        } else if (!std::strcmp(argv[a], "--metrics-json")) {
            if (a + 1 >= argc)
                return usageError(argv[0],
                                  "--metrics-json requires a value");
            metrics_json = argv[++a];
        } else {
            return usageError(
                argv[0],
                format("unknown batch flag '%s'", argv[a]).c_str());
        }
    }
    if (queries.empty())
        return usageError(argv[0], "batch requires at least one --query");
    for (auto &query : queries)
        query.timeoutMs = timeout_ms;

    // Track which caller ids actually produced a result frame, so a
    // dropped connection names exactly the criteria left hanging.
    std::vector<bool> answered(queries.size(), false);
    const auto print_frame = [&](const service::Json &frame) {
        const service::Json *op = frame.find("op");
        const service::Json *id = frame.find("id");
        if (op != nullptr && op->asString() == "result" &&
            id != nullptr && id->isInt()) {
            const size_t i = static_cast<size_t>(id->asInt());
            if (i < answered.size())
                answered[i] = true;
        }
        std::printf("%s\n", frame.dump().c_str());
        std::fflush(stdout);
    };

    service::ServiceClient::BatchOutcome outcome;
    bool transport_ok = false;
    service::FleetClient::Stats fleet_stats;

    if (!fleet.empty()) {
        service::FleetClient fleet_client(fleet);
        transport_ok = fleet_client.batch(prefix, queries, outcome,
                                          error, print_frame);
        fleet_stats = fleet_client.stats();

        // Close the jsonl stream with the fleet-level summary a
        // single daemon's batch_done would otherwise carry.
        service::Json done = service::Json::object();
        done.set("schema", service::Json::string(service::kServeSchema));
        done.set("op", service::Json::string("fleet_done"));
        done.set("status",
                 service::Json::string(transport_ok ? "ok" : "error"));
        done.set("results", service::Json::integer(
                                static_cast<int64_t>(queries.size())));
        done.set("ok", service::Json::integer(
                           static_cast<int64_t>(outcome.ok)));
        done.set("errors", service::Json::integer(
                               static_cast<int64_t>(outcome.errors)));
        done.set("rejected",
                 service::Json::integer(
                     static_cast<int64_t>(outcome.rejected)));
        done.set("timeouts",
                 service::Json::integer(
                     static_cast<int64_t>(outcome.timeouts)));
        done.set("failovers",
                 service::Json::integer(
                     static_cast<int64_t>(fleet_stats.failovers)));
        done.set("duplicates",
                 service::Json::integer(
                     static_cast<int64_t>(fleet_stats.duplicates)));
        done.set("live_shards",
                 service::Json::integer(static_cast<int64_t>(
                     fleet_client.router().liveCount())));
        std::printf("%s\n", done.dump().c_str());
        std::fflush(stdout);
        if (!transport_ok)
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    } else {
        service::ServiceClient client;
        const bool connected =
            tcp_port >= 0
                ? client.connectTcp("127.0.0.1", tcp_port, error)
                : client.connectUnix(socket_path, error);
        if (!connected) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 1;
        }
        transport_ok = client.batch(prefix, queries, outcome, error,
                                    print_frame);
        if (!transport_ok)
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    }

    if (!metrics_json.empty()) {
        std::ostringstream batch;
        batch << "{\n"
              << "    \"prefix\": \"" << jsonEscape(prefix) << "\",\n"
              << "    \"queries\": " << queries.size() << ",\n"
              << "    \"ok\": " << outcome.ok << ",\n"
              << "    \"errors\": " << outcome.errors << ",\n"
              << "    \"rejected\": " << outcome.rejected << ",\n"
              << "    \"timeouts\": " << outcome.timeouts << "\n  }";
        std::vector<std::pair<std::string, std::string>> extra = {
            {"batch", batch.str()}};
        if (!fleet.empty()) {
            std::ostringstream fj;
            fj << "{\n"
               << "    \"endpoints\": " << fleet.size() << ",\n"
               << "    \"batches\": " << fleet_stats.batches << ",\n"
               << "    \"failovers\": " << fleet_stats.failovers
               << ",\n"
               << "    \"duplicates\": " << fleet_stats.duplicates
               << ",\n"
               << "    \"warms_sent\": " << fleet_stats.warmsSent
               << "\n  }";
            extra.emplace_back("fleet", fj.str());
        }
        writeMetricsReport(metrics_json, MetricRegistry::global(),
                           "webslice-client", extra);
    }

    const int code =
        reportBatchFailures(argv[0], specs, outcome, answered);
    if (!transport_ok && code == 0)
        return 1; // Transport failed even though results all landed.
    return code;
}
