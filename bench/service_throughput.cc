/**
 * @file
 * Slicing-service throughput and latency benchmark.
 *
 *   service_throughput [--site <builtin-id>|synth-workers] [--queries N]
 *                      [--out FILE] [--quick] [--fleet N]
 *                      [--fleet-clients N]
 *
 * --site takes a built-in scenario id (default bing). `synth-workers`
 * is not a hand-modeled site: it is a generated
 * worker-heavy scenario (scenario::generateScenario, workers=2), so the
 * service fleet gets exercised against a multi-threaded recording whose
 * trace interleaves two dedicated workers with the main thread.
 *
 * Records one scenario to a temporary artifact prefix, then
 * measures the service from a client's point of view in three parts:
 *
 *  - session build: the one-time forward pass a fresh daemon pays for
 *    a recording, reported separately from any per-criterion cost;
 *  - per-criterion latency, cold vs warm: one daemon answers each
 *    criterion (mode x backward-jobs) on its own window, so every cold
 *    query walks the trace and categorizes the slice; a second daemon,
 *    warmed with one query per mode, answers the same criteria over
 *    the shared window from its result memo. The ratio of the median
 *    run_ms is `warm_backward_speedup` (a memo answer runs no slice, so
 *    it has no slice_ms to compare);
 *  - warm throughput: single-query batches at 1, 4, and 8 concurrent
 *    client connections — queries/sec plus p50/p99 round trip latency.
 *
 * Throughput queries use distinct window ends so no two requests ever
 * dedup into one job: those numbers measure the scheduler, not the
 * dedup table. All results stream to stdout as a table and to
 * BENCH_service.json (webslice-metrics-v1) for tracking across commits.
 *
 * --fleet N (N >= 2) adds a fleet phase: N in-process shards, each on
 * its own socket with its own session cache, serving --fleet-clients
 * concurrent FleetClients (default 32) that route 2N distinct
 * recordings (hardlinked artifact sets with distinct .meta, hence
 * distinct digests) by consistent hashing. Reported: aggregate
 * queries/sec, p50/p99 across all shards, and the fleet-wide session
 * cache hit rate, in a `fleet` section of the JSON report.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.hh"
#include "service/client.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"
#include "scenario/generator.hh"
#include "scenario/recording.hh"

using namespace webslice;

namespace {

/**
 * Copy `from` (a .meta sidecar) to `to` with the benchmark line renamed:
 * a different .meta makes a different recording identity.
 */
void
copyMetaRenamed(const std::string &from, const std::string &to,
                const std::string &name)
{
    std::ifstream in(from);
    std::string benchmark_line;
    std::getline(in, benchmark_line);
    std::ofstream out(to);
    out << "benchmark " << name << '\n' << in.rdbuf();
}

/** Hardlink (or copy) one artifact file to a new prefix. */
void
linkOrCopy(const std::string &from, const std::string &to)
{
    std::remove(to.c_str());
    if (::link(from.c_str(), to.c_str()) == 0)
        return;
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary);
    out << in.rdbuf();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * (sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - lo;
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/**
 * The per-criterion workload: `count` distinct criteria over the one
 * shared (default) window. Distinctness comes from mode x backward-jobs
 * so none of them dedup, yet they are only two answers (one per mode)
 * — exactly the "many criteria, one session" pattern the result memo
 * exists for.
 */
std::vector<service::SliceQuery>
criterionSet(size_t count)
{
    std::vector<service::SliceQuery> queries(count);
    for (size_t i = 0; i < count; ++i) {
        queries[i].mode = i % 2 ? slicer::CriteriaMode::Syscalls
                                : slicer::CriteriaMode::PixelBuffer;
        queries[i].backwardJobs = 1 + static_cast<int>(i / 2);
    }
    return queries;
}

struct CriterionSample
{
    std::vector<double> runMs;   ///< Whole run on the worker.
    size_t memoHits = 0;

    double median() const { return percentile(runMs, 50.0); }
    double p99() const { return percentile(runMs, 99.0); }
};

/**
 * Run each criterion as its own single-query batch on one connection,
 * sequentially, so the reported latencies are undisturbed by sibling
 * queries contending for cores.
 */
CriterionSample
runCriteria(const std::string &socket_path, const std::string &prefix,
            const std::vector<service::SliceQuery> &queries)
{
    service::ServiceClient client;
    std::string error;
    if (!client.connectUnix(socket_path, error)) {
        std::fprintf(stderr, "connect: %s\n", error.c_str());
        std::exit(1);
    }
    CriterionSample sample;
    for (const auto &query : queries) {
        service::ServiceClient::BatchOutcome outcome;
        if (!client.batch(prefix, {query}, outcome, error) ||
            outcome.ok != 1) {
            std::fprintf(stderr, "criterion batch failed: %s\n",
                         error.c_str());
            std::exit(1);
        }
        const service::QueryResult &result = outcome.results[0];
        sample.runMs.push_back(result.runMs);
        sample.memoHits += result.memoHit ? 1 : 0;
    }
    return sample;
}

struct WarmSample
{
    int clients = 0;
    size_t queries = 0;
    double wallSeconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;

    double queriesPerSecond() const
    {
        return wallSeconds > 0.0 ? queries / wallSeconds : 0.0;
    }
};

/**
 * `clients` concurrent connections each issue `per_client` single-query
 * batches; every query carries a unique window end (derived from the
 * client and iteration indices) so none dedup.
 */
WarmSample
runWarm(const std::string &socket_path, const std::string &prefix,
        int clients, size_t per_client, size_t window_base)
{
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    std::atomic<size_t> failures{0};

    const double t0 = bench::nowSeconds();
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            service::ServiceClient client;
            std::string error;
            if (!client.connectUnix(socket_path, error)) {
                ++failures;
                return;
            }
            for (size_t i = 0; i < per_client; ++i) {
                service::SliceQuery query;
                query.endIndex =
                    window_base - (static_cast<size_t>(c) * per_client + i);
                service::ServiceClient::BatchOutcome outcome;
                const double q0 = bench::nowSeconds();
                if (!client.batch(prefix, {query}, outcome, error) ||
                    outcome.ok != 1) {
                    ++failures;
                    return;
                }
                latencies[c].push_back(
                    (bench::nowSeconds() - q0) * 1e3);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    WarmSample sample;
    sample.clients = clients;
    sample.wallSeconds = bench::nowSeconds() - t0;
    std::vector<double> all;
    for (const auto &per : latencies) {
        sample.queries += per.size();
        all.insert(all.end(), per.begin(), per.end());
    }
    if (failures.load() != 0) {
        std::fprintf(stderr,
                     "service_throughput: %zu client failures at "
                     "%d clients\n",
                     failures.load(), clients);
        std::exit(1);
    }
    sample.p50Ms = percentile(all, 50.0);
    sample.p99Ms = percentile(all, 99.0);
    return sample;
}

struct FleetSample
{
    int shards = 0;
    int clients = 0;
    size_t queries = 0;
    double wallSeconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t sessionsBuilt = 0;
    uint64_t failovers = 0;
    uint64_t duplicates = 0;
    uint64_t warmsSent = 0;

    double queriesPerSecond() const
    {
        return wallSeconds > 0.0 ? queries / wallSeconds : 0.0;
    }

    double cacheHitRate() const
    {
        const uint64_t total = cacheHits + cacheMisses;
        return total != 0 ? static_cast<double>(cacheHits) / total : 0.0;
    }
};

/**
 * The fleet phase: `shards` in-process servers, `clients` concurrent
 * FleetClients routing 2*shards distinct recordings (hardlinks of
 * `prefix` with distinct .meta) by digest. Every query carries a
 * unique window end so nothing dedups; latency is aggregated over all
 * clients, cache stats over all shards.
 */
FleetSample
runFleet(const std::string &name, size_t records,
         const std::string &prefix,
         const std::string &tmp_dir, int shards, int clients,
         size_t per_client)
{
    // Distinct recordings: same trace/symtab/criteria bytes, different
    // .meta, therefore different combined digests that spread over the
    // ring.
    std::vector<std::string> prefixes;
    for (int p = 0; p < 2 * shards; ++p) {
        const std::string fp =
            format("%s_fleet%d", prefix.c_str(), p);
        for (const char *ext : {".trc", ".sym", ".crit"})
            linkOrCopy(prefix + ext, fp + ext);
        copyMetaRenamed(prefix + ".meta", fp + ".meta",
                        format("%s-fleet-%d", name.c_str(), p));
        prefixes.push_back(fp);
    }

    std::vector<std::unique_ptr<service::Server>> servers;
    std::vector<std::thread> serving;
    std::vector<std::string> endpoints;
    for (int s = 0; s < shards; ++s) {
        service::ServerOptions options;
        options.socketPath =
            format("%s/bench_service_shard%d.sock", tmp_dir.c_str(), s);
        options.workers = 4;
        options.shardId = format("shard-%d", s);
        servers.push_back(
            std::make_unique<service::Server>(options));
        endpoints.push_back(options.socketPath);
    }
    for (auto &server : servers)
        serving.emplace_back([&server] { server->run(); });

    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    std::atomic<size_t> failures{0};
    std::atomic<uint64_t> failovers{0}, duplicates{0}, warms{0};
    const size_t window_base = records;

    const double t0 = bench::nowSeconds();
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            service::FleetClient fleet(endpoints);
            std::string error;
            for (size_t i = 0; i < per_client; ++i) {
                const size_t global =
                    static_cast<size_t>(c) * per_client + i;
                const std::string &target =
                    prefixes[global % prefixes.size()];
                service::SliceQuery query;
                query.endIndex = window_base - global;
                service::ServiceClient::BatchOutcome outcome;
                const double q0 = bench::nowSeconds();
                if (!fleet.batch(target, {query}, outcome, error) ||
                    outcome.ok != 1) {
                    std::fprintf(stderr,
                                 "fleet client %d: %s\n", c,
                                 error.c_str());
                    ++failures;
                    return;
                }
                latencies[c].push_back(
                    (bench::nowSeconds() - q0) * 1e3);
            }
            const auto stats = fleet.stats();
            failovers += stats.failovers;
            duplicates += stats.duplicates;
            warms += stats.warmsSent;
        });
    }
    for (auto &thread : threads)
        thread.join();

    FleetSample sample;
    sample.shards = shards;
    sample.clients = clients;
    sample.wallSeconds = bench::nowSeconds() - t0;
    std::vector<double> all;
    for (const auto &per : latencies) {
        sample.queries += per.size();
        all.insert(all.end(), per.begin(), per.end());
    }
    sample.p50Ms = percentile(all, 50.0);
    sample.p99Ms = percentile(all, 99.0);
    sample.failovers = failovers.load();
    sample.duplicates = duplicates.load();
    sample.warmsSent = warms.load();

    for (auto &server : servers) {
        const auto cache = server->cache().stats();
        sample.cacheHits += cache.hits;
        sample.cacheMisses += cache.misses;
        sample.sessionsBuilt += cache.built;
        server->requestShutdown();
    }
    for (auto &thread : serving)
        thread.join();

    if (failures.load() != 0) {
        std::fprintf(stderr,
                     "service_throughput: %zu fleet client failures\n",
                     failures.load());
        std::exit(1);
    }

    for (const auto &fp : prefixes)
        for (const char *ext : {".trc", ".sym", ".crit", ".meta"})
            std::remove((fp + ext).c_str());
    return sample;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string site = "bing";
    std::string out_path = "BENCH_service.json";
    size_t queries = 8;
    bool quick = false;
    int fleet_shards = 0;
    int fleet_clients = 32;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--site") && a + 1 < argc) {
            site = argv[++a];
        } else if (!std::strcmp(argv[a], "--queries") && a + 1 < argc) {
            queries = static_cast<size_t>(std::atoi(argv[++a]));
        } else if (!std::strcmp(argv[a], "--out") && a + 1 < argc) {
            out_path = argv[++a];
        } else if (!std::strcmp(argv[a], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[a], "--fleet") && a + 1 < argc) {
            fleet_shards = std::atoi(argv[++a]);
            if (fleet_shards < 2 || fleet_shards > 4) {
                std::fprintf(stderr, "--fleet wants 2..4 shards\n");
                return 1;
            }
        } else if (!std::strcmp(argv[a], "--fleet-clients") &&
                   a + 1 < argc) {
            fleet_clients = std::atoi(argv[++a]);
            if (fleet_clients < 1 || fleet_clients > 64) {
                std::fprintf(stderr, "--fleet-clients wants 1..64\n");
                return 1;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--site NAME|synth-workers] "
                         "[--queries N] [--out FILE] [--quick] "
                         "[--fleet N] [--fleet-clients N]\n",
                         argv[0]);
            return 1;
        }
    }

    scenario::Scenario sc;
    if (site == "synth-workers") {
        scenario::Knobs knobs;
        knobs.workers = 2;
        sc = scenario::generateScenario(5, knobs);
    } else if (scenario::findBuiltin(site)) {
        sc = scenario::builtinScenario(site);
    } else {
        std::fprintf(stderr, "unknown site '%s'\n", site.c_str());
        return 1;
    }

    bench::printHeader("slicing service: batch throughput and latency");

    const char *tmp = std::getenv("TMPDIR");
    const std::string prefix =
        std::string(tmp ? tmp : "/tmp") + "/bench_service_trace";
    const std::string cold_socket =
        std::string(tmp ? tmp : "/tmp") + "/bench_service_cold.sock";
    const std::string socket_path =
        std::string(tmp ? tmp : "/tmp") + "/bench_service.sock";
    std::fprintf(stderr, "recording '%s'...\n", sc.name.c_str());
    const size_t records =
        scenario::recordScenario(sc, prefix, trace::TraceFormat::V1)
            .records;

    const auto criteria = criterionSet(queries);

    std::printf("site %s: %s records, %zu criteria "
                "(mode x backward-jobs)\n",
                sc.name.c_str(),
                withCommas(records).c_str(), queries);

    // ---- phase 1: session build + cold criteria --------------------------
    // One throwaway query builds the session so the criterion loop below
    // measures the queries alone. Each cold criterion asks its own
    // window, one record shorter than the last, so the result memo
    // never answers: every query walks the trace and categorizes its
    // slice.
    double session_build_ms = 0.0;
    CriterionSample cold;
    {
        service::ServerOptions options;
        options.socketPath = cold_socket;
        options.workers = 2;
        service::Server server(options);
        std::thread serving([&] { server.run(); });

        service::ServiceClient client;
        std::string error;
        if (!client.connectUnix(cold_socket, error)) {
            std::fprintf(stderr, "connect: %s\n", error.c_str());
            return 1;
        }
        service::ServiceClient::BatchOutcome outcome;
        if (!client.batch(prefix, {criteria[0]}, outcome, error) ||
            outcome.ok != 1) {
            std::fprintf(stderr, "session build failed: %s\n",
                         error.c_str());
            return 1;
        }
        session_build_ms =
            outcome.results[0].runMs - outcome.results[0].sliceMs;

        std::vector<service::SliceQuery> cold_criteria = criteria;
        for (size_t i = 0; i < cold_criteria.size(); ++i)
            cold_criteria[i].endIndex = outcome.results[0].windowEnd - 1 - i;
        cold = runCriteria(cold_socket, prefix, cold_criteria);
        client.close();
        server.requestShutdown();
        serving.join();
    }
    std::printf("  session build (forward pass, once): %8.1f ms\n",
                session_build_ms);
    std::printf("  cold criterion (no memo): run p50 %8.2f ms  "
                "p99 %8.2f ms\n",
                cold.median(), cold.p99());

    // ---- phase 2: warm criteria + throughput ------------------------------
    service::ServerOptions options;
    options.socketPath = socket_path;
    options.workers = 8;
    service::Server server(options);
    std::thread serving([&] { server.run(); });

    // Warm-up: builds this daemon's session and one memoized answer per
    // mode, so the mixed sample below measures
    // what a saturated daemon serves — repeats of already-seen criteria.
    {
        service::ServiceClient client;
        std::string error;
        if (!client.connectUnix(socket_path, error)) {
            std::fprintf(stderr, "connect: %s\n", error.c_str());
            return 1;
        }
        for (size_t i = 0; i < std::min<size_t>(2, criteria.size());
             ++i) {
            service::ServiceClient::BatchOutcome outcome;
            if (!client.batch(prefix, {criteria[i]}, outcome, error) ||
                outcome.ok != 1) {
                std::fprintf(stderr, "warm-up failed: %s\n",
                             error.c_str());
                return 1;
            }
        }
    }
    const CriterionSample warm = runCriteria(socket_path, prefix, criteria);

    const double speedup =
        warm.median() > 0.0 ? cold.median() / warm.median() : 0.0;
    std::printf("  warm criterion (repeat, result memo): "
                "run p50 %8.2f ms  p99 %8.2f ms  (%zu/%zu memo hits)\n",
                warm.median(), warm.p99(), warm.memoHits,
                warm.runMs.size());
    std::printf("  warm_backward_speedup: %.2fx\n\n", speedup);

    // ---- warm throughput at increasing client counts -----------------------
    const size_t per_client = quick ? 4 : 16;
    const size_t window_base = records;
    std::vector<WarmSample> samples;
    std::printf("%8s %10s %12s %10s %10s\n", "clients", "queries",
                "queries/s", "p50 ms", "p99 ms");
    for (const int clients : {1, 4, 8}) {
        const auto sample = runWarm(socket_path, prefix, clients,
                                    per_client, window_base);
        samples.push_back(sample);
        std::printf("%8d %10zu %12.2f %10.2f %10.2f\n", sample.clients,
                    sample.queries, sample.queriesPerSecond(),
                    sample.p50Ms, sample.p99Ms);
    }

    const auto cache = server.cache().stats();
    std::printf("\nsessions built %llu, cache hits %llu, misses %llu\n",
                static_cast<unsigned long long>(cache.built),
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));

    server.requestShutdown();
    serving.join();

    // ---- fleet phase: shards x concurrent fleet clients --------------------
    FleetSample fleet;
    if (fleet_shards >= 2) {
        const size_t fleet_per_client = quick ? 2 : 8;
        std::printf("\nfleet: %d shards, %d clients x %zu queries, "
                    "%d recordings\n",
                    fleet_shards, fleet_clients, fleet_per_client,
                    2 * fleet_shards);
        fleet = runFleet(sc.name, records, prefix,
                         std::string(tmp ? tmp : "/tmp"), fleet_shards,
                         fleet_clients, fleet_per_client);
        std::printf("  %zu queries in %.2f s: %.2f queries/s, "
                    "p50 %.2f ms, p99 %.2f ms\n",
                    fleet.queries, fleet.wallSeconds,
                    fleet.queriesPerSecond(), fleet.p50Ms, fleet.p99Ms);
        std::printf("  fleet cache hit rate %.1f%% (%llu hits / %llu "
                    "lookups), %llu sessions built, %llu failovers, "
                    "%llu duplicates, %llu warms\n",
                    fleet.cacheHitRate() * 100.0,
                    static_cast<unsigned long long>(fleet.cacheHits),
                    static_cast<unsigned long long>(fleet.cacheHits +
                                                    fleet.cacheMisses),
                    static_cast<unsigned long long>(fleet.sessionsBuilt),
                    static_cast<unsigned long long>(fleet.failovers),
                    static_cast<unsigned long long>(fleet.duplicates),
                    static_cast<unsigned long long>(fleet.warmsSent));
    }

    std::ostringstream extra;
    extra << "{\n"
          << "    \"site\": \"" << jsonEscape(sc.name) << "\",\n"
          << "    \"records\": " << records << ",\n"
          << "    \"criteria\": " << queries << ",\n"
          << "    \"session_build_ms\": "
          << format("%.3f", session_build_ms) << ",\n"
          << "    \"cold_criterion_p50_ms\": "
          << format("%.3f", cold.median()) << ",\n"
          << "    \"cold_criterion_p99_ms\": "
          << format("%.3f", cold.p99()) << ",\n"
          << "    \"warm_criterion_p50_ms\": "
          << format("%.3f", warm.median()) << ",\n"
          << "    \"warm_criterion_p99_ms\": "
          << format("%.3f", warm.p99()) << ",\n"
          << "    \"warm_memo_hits\": " << warm.memoHits << ",\n"
          << "    \"warm_backward_speedup\": "
          << format("%.3f", speedup) << ",\n"
          << "    \"sessions_built\": " << cache.built << ",\n"
          << "    \"warm\": [";
    for (size_t i = 0; i < samples.size(); ++i) {
        const auto &s = samples[i];
        if (i)
            extra << ", ";
        extra << "{\"clients\": " << s.clients << ", \"queries\": "
              << s.queries << ", \"queries_per_second\": "
              << format("%.3f", s.queriesPerSecond())
              << ", \"p50_ms\": " << format("%.3f", s.p50Ms)
              << ", \"p99_ms\": " << format("%.3f", s.p99Ms) << "}";
    }
    extra << "]";
    if (fleet.shards >= 2) {
        extra << ",\n    \"fleet\": {\"shards\": " << fleet.shards
              << ", \"clients\": " << fleet.clients
              << ", \"queries\": " << fleet.queries
              << ", \"queries_per_second\": "
              << format("%.3f", fleet.queriesPerSecond())
              << ", \"p50_ms\": " << format("%.3f", fleet.p50Ms)
              << ", \"p99_ms\": " << format("%.3f", fleet.p99Ms)
              << ", \"cache_hit_rate\": "
              << format("%.4f", fleet.cacheHitRate())
              << ", \"cache_hits\": " << fleet.cacheHits
              << ", \"cache_misses\": " << fleet.cacheMisses
              << ", \"sessions_built\": " << fleet.sessionsBuilt
              << ", \"failovers\": " << fleet.failovers
              << ", \"duplicates\": " << fleet.duplicates
              << ", \"warms_sent\": " << fleet.warmsSent << "}";
    }
    extra << "\n  }";

    writeMetricsReport(out_path, MetricRegistry::global(),
                       "service_throughput", {{"service", extra.str()}});
    std::printf("wrote %s\n", out_path.c_str());

    for (const char *ext : {".trc", ".sym", ".crit", ".meta", ".scn"})
        std::remove((prefix + ext).c_str());
    return 0;
}
