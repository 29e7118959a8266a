/**
 * @file
 * Tests of fleet routing and failover: the consistent-hash ring's
 * determinism and ~1/N remap property, endpoint spec parsing, and the
 * FleetClient's end-to-end guarantees — batches route to the digest's
 * owner, a shard dying or draining mid-batch fails over to the next
 * replica, and no criterion is ever lost or double-reported across
 * the handoff (request-id dedup), with results bit-identical to the
 * direct slicer throughout.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "service/client.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace service {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

// ---- consistent-hash ring ------------------------------------------------

std::vector<std::string>
endpointSet(int count)
{
    std::vector<std::string> endpoints;
    for (int i = 0; i < count; ++i)
        endpoints.push_back(format("/tmp/shard-%d.sock", i));
    return endpoints;
}

TEST(ShardRouter, PlacementIsDeterministicAcrossInstances)
{
    // Two routers built from the same endpoint list — as two client
    // processes, or one client before and after a restart — must agree
    // on every placement: cross-restart cache affinity depends on it.
    const ShardRouter a(endpointSet(3));
    const ShardRouter b(endpointSet(3));
    for (uint64_t digest = 1; digest <= 4096; ++digest) {
        EXPECT_EQ(a.primaryFor(digest), b.primaryFor(digest));
        EXPECT_EQ(a.ownersFor(digest, 2), b.ownersFor(digest, 2));
    }
}

TEST(ShardRouter, SpreadsKeysOverEveryShard)
{
    const auto endpoints = endpointSet(4);
    const ShardRouter router(endpoints);
    std::vector<size_t> hits(endpoints.size(), 0);
    constexpr uint64_t kKeys = 4096;
    for (uint64_t digest = 1; digest <= kKeys; ++digest) {
        const std::string owner = router.primaryFor(digest);
        for (size_t e = 0; e < endpoints.size(); ++e)
            if (endpoints[e] == owner)
                ++hits[e];
    }
    // With 64 virtual nodes per shard the split is close to uniform;
    // only gross imbalance (a starved or dominant shard) is asserted.
    for (size_t e = 0; e < hits.size(); ++e) {
        EXPECT_GT(hits[e], kKeys / 16) << endpoints[e];
        EXPECT_LT(hits[e], kKeys / 2) << endpoints[e];
    }
}

TEST(ShardRouter, GrowingTheFleetRemapsAboutOneNth)
{
    // The consistent-hash property: adding a fifth shard to a fleet of
    // four must move ~1/5 of the keyspace, and every moved key must
    // move TO the new shard — never between old shards (that would
    // invalidate caches for no reason).
    auto four = endpointSet(4);
    auto five = endpointSet(5);
    const std::string &added = five.back();
    const ShardRouter before(four);
    const ShardRouter after(five);

    constexpr uint64_t kKeys = 8192;
    uint64_t moved = 0;
    for (uint64_t digest = 1; digest <= kKeys; ++digest) {
        const std::string was = before.primaryFor(digest);
        const std::string now = after.primaryFor(digest);
        if (was == now)
            continue;
        ++moved;
        EXPECT_EQ(now, added) << "key " << digest
                              << " moved between old shards";
    }
    // Expectation is kKeys/5; allow generous slack for hash variance.
    EXPECT_GT(moved, kKeys / 10);
    EXPECT_LT(moved, kKeys * 2 / 5);
}

TEST(ShardRouter, OwnersAreDistinctAndFailoverFollowsRingOrder)
{
    const ShardRouter router(endpointSet(3));
    ShardRouter failed(endpointSet(3));
    for (uint64_t digest = 1; digest <= 512; ++digest) {
        const auto owners = router.ownersFor(digest, 2);
        ASSERT_EQ(owners.size(), 2u);
        EXPECT_NE(owners[0], owners[1]);

        // Killing the primary promotes exactly the replica the healthy
        // router would have named second.
        failed.setUp(failed.endpoints()[0]);
        failed.setUp(failed.endpoints()[1]);
        failed.setUp(failed.endpoints()[2]);
        failed.setDown(owners[0]);
        EXPECT_EQ(failed.primaryFor(digest), owners[1]);
    }
}

TEST(ShardRouter, AllShardsDownMeansNoOwners)
{
    ShardRouter router(endpointSet(2));
    router.setDown(router.endpoints()[0]);
    router.setDown(router.endpoints()[1]);
    EXPECT_EQ(router.liveCount(), 0u);
    EXPECT_TRUE(router.ownersFor(1, 2).empty());
    EXPECT_EQ(router.primaryFor(1), "");

    router.setUp(router.endpoints()[1]);
    EXPECT_EQ(router.primaryFor(1), router.endpoints()[1]);
}

TEST(ShardRouter, DuplicateEndpointsCollapse)
{
    // A doubled spec must not masquerade as an extra replica.
    std::vector<std::string> doubled = {"/tmp/a.sock", "/tmp/a.sock",
                                        "/tmp/b.sock"};
    const ShardRouter router(doubled);
    EXPECT_EQ(router.size(), 2u);
    const auto owners = router.ownersFor(7, 3);
    EXPECT_EQ(owners.size(), 2u);
    EXPECT_NE(owners[0], owners[1]);
}

// ---- recorded-artifact fixture -------------------------------------------

/** A small program saved as webslice-record artifacts (see
 *  test_service.cc for the full commentary). */
struct SavedProgram
{
    Machine machine;
    std::string prefix;
    std::vector<uint64_t> buffers;

    explicit SavedProgram(const std::string &stem, uint64_t salt = 0,
                          int chains = 4)
    {
        prefix = tempPath(stem);
        const auto t0 = machine.addThread("main");
        const auto t1 = machine.addThread("worker");
        const auto fn = machine.registerFunction("fleet::chain");

        for (int c = 0; c < chains; ++c)
            buffers.push_back(machine.alloc(64, "buf"));
        for (int c = 0; c < chains; ++c) {
            const uint64_t buffer = buffers[c];
            const uint64_t rounds = 2 + (c + salt) % 5;
            machine.post(c % 2 ? t1 : t0,
                         [fn, buffer, rounds, c](Ctx &ctx) {
                TracedScope scope(ctx, fn);
                Value acc = ctx.imm(static_cast<uint64_t>(c) + 1);
                Value i = ctx.imm(0);
                Value n = ctx.imm(rounds);
                while (true) {
                    Value more = ctx.ltu(i, n);
                    if (!ctx.branchIf(more))
                        break;
                    acc = ctx.add(acc, i);
                    i = ctx.addi(i, 1);
                }
                ctx.store(buffer, 8, acc);
                sim::sysWrite(ctx, buffer, 8);
            });
        }
        machine.post(t0, [this, chains](Ctx &ctx) {
            for (int c = 0; c < chains / 2; ++c) {
                const trace::MemRange ranges[] = {{buffers[c], 8}};
                ctx.marker(ranges);
            }
        });
        machine.run();

        trace::TraceWriter writer(prefix + ".trc", /*block_index=*/true);
        for (const auto &rec : machine.records())
            writer.append(rec);
        writer.close();
        machine.symtab().save(prefix + ".sym");
        machine.pixelCriteria().save(prefix + ".crit");
        std::ofstream meta(prefix + ".meta");
        meta << "benchmark router-test\n";
    }

    ~SavedProgram()
    {
        for (const char *ext : {".trc", ".sym", ".crit", ".meta"})
            std::remove((prefix + ext).c_str());
    }

    slicer::SliceResult
    directSlice(const slicer::SlicerOptions &options = {}) const
    {
        const auto cfgs =
            graph::buildCfgs(machine.records(), machine.symtab());
        const auto deps = graph::buildControlDeps(cfgs);
        return slicer::computeSlice(machine.records(), cfgs, deps,
                                    machine.pixelCriteria(), options);
    }
};

/** Two in-process shards plus the endpoint list a fleet client uses. */
struct TwoShardFleet
{
    std::unique_ptr<Server> shard[2];
    std::thread serving[2];
    std::vector<std::string> endpoints;

    explicit TwoShardFleet(const std::string &stem)
    {
        for (int s = 0; s < 2; ++s) {
            ServerOptions options;
            options.socketPath =
                tempPath(format("%s_%d.sock", stem.c_str(), s));
            options.workers = 1;
            options.shardId = format("shard-%d", s);
            options.shardEpoch = static_cast<uint64_t>(s) + 1;
            shard[s] = std::make_unique<Server>(options);
            endpoints.push_back(options.socketPath);
        }
        for (int s = 0; s < 2; ++s)
            serving[s] = std::thread([this, s] { shard[s]->run(); });
    }

    ~TwoShardFleet()
    {
        for (int s = 0; s < 2; ++s)
            shard[s]->requestShutdown();
        for (int s = 0; s < 2; ++s)
            serving[s].join();
    }

    /** The server whose socket path is `endpoint`. */
    Server &at(const std::string &endpoint)
    {
        return *(endpoints[0] == endpoint ? shard[0] : shard[1]);
    }

    std::string other(const std::string &endpoint) const
    {
        return endpoints[0] == endpoint ? endpoints[1] : endpoints[0];
    }
};

// ---- fleet client end to end ---------------------------------------------

TEST(FleetClient, RoutesByDigestAndAgreesAcrossClients)
{
    const SavedProgram program("fleet_route", /*salt=*/31);
    TwoShardFleet fleet("fleet_route");

    FleetClient one(fleet.endpoints);
    FleetClient two(fleet.endpoints);
    EXPECT_EQ(one.digestFor(program.prefix),
              two.digestFor(program.prefix));
    EXPECT_EQ(one.ownersFor(program.prefix),
              two.ownersFor(program.prefix));

    ServiceClient::BatchOutcome outcome;
    std::string error;
    ASSERT_TRUE(one.batch(program.prefix, {SliceQuery()}, outcome,
                          error))
        << error;
    ASSERT_EQ(outcome.ok, 1u);

    // The result must have been computed by the digest's primary.
    const auto owners = two.ownersFor(program.prefix);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_EQ(outcome.results[0].shard,
              owners[0] == fleet.endpoints[0] ? "shard-0" : "shard-1");
    EXPECT_EQ(fleet.at(owners[0]).cache().stats().built, 1u);
    EXPECT_EQ(fleet.at(owners[1]).scheduler().stats().submitted, 0u);
    EXPECT_EQ(one.stats().failovers, 0u);
    EXPECT_EQ(one.stats().duplicates, 0u);
}

TEST(FleetClient, ManyClientsOnAHealthyFleet)
{
    // Four recordings over two shards, eight clients at once, each with
    // its own FleetClient sending single-query batches. A healthy fleet
    // answers every query on the recording's primary, bit-identical to
    // the direct slicer, with no failover and no duplicate.
    constexpr size_t kPrograms = 4, kClients = 8, kQueries = 4;
    std::vector<std::unique_ptr<SavedProgram>> programs;
    for (size_t p = 0; p < kPrograms; ++p)
        programs.push_back(std::make_unique<SavedProgram>(
            format("fleet_many_%zu", p), /*salt=*/40 + p));
    TwoShardFleet fleet("fleet_many");

    // Client c asks recording c % kPrograms; every window is distinct,
    // so no two queries dedup into one job or one memo entry.
    const auto window = [](size_t client, size_t q) {
        return 20 + client * kQueries + q;
    };
    std::vector<std::string> primary(kPrograms);
    std::vector<std::vector<uint64_t>> oracle(kClients);
    {
        FleetClient routing(fleet.endpoints);
        for (size_t p = 0; p < kPrograms; ++p) {
            ASSERT_GT(programs[p]->machine.records().size(),
                      window(kClients - 1, kQueries - 1));
            const auto owners = routing.ownersFor(programs[p]->prefix);
            ASSERT_EQ(owners.size(), 2u);
            primary[p] =
                owners[0] == fleet.endpoints[0] ? "shard-0" : "shard-1";
        }
    }
    for (size_t c = 0; c < kClients; ++c) {
        for (size_t q = 0; q < kQueries; ++q) {
            slicer::SlicerOptions options;
            options.endIndex = window(c, q);
            const auto slice =
                programs[c % kPrograms]->directSlice(options);
            oracle[c].push_back(
                fnv1a64(slice.inSlice.data(), slice.inSlice.size()));
        }
    }

    struct ClientRun
    {
        std::vector<QueryResult> results;
        std::string error;
        FleetClient::Stats stats;
    };
    std::vector<ClientRun> runs(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            FleetClient client(fleet.endpoints);
            for (size_t q = 0; q < kQueries; ++q) {
                SliceQuery query;
                query.endIndex = window(c, q);
                ServiceClient::BatchOutcome outcome;
                if (!client.batch(programs[c % kPrograms]->prefix, {query},
                                  outcome, runs[c].error))
                    break;
                runs[c].results.insert(runs[c].results.end(),
                                       outcome.results.begin(),
                                       outcome.results.end());
            }
            runs[c].stats = client.stats();
        });
    }
    for (auto &client : clients)
        client.join();

    uint64_t failovers = 0, duplicates = 0;
    for (size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(runs[c].results.size(), kQueries)
            << "client " << c << ": " << runs[c].error;
        for (size_t q = 0; q < kQueries; ++q) {
            const QueryResult &result = runs[c].results[q];
            EXPECT_EQ(result.status, QueryResult::Status::Ok)
                << "client " << c << " query " << q << ": "
                << result.error;
            EXPECT_EQ(result.inSliceFnv1a, oracle[c][q])
                << "client " << c << " query " << q;
            EXPECT_EQ(result.shard, primary[c % kPrograms])
                << "client " << c << " query " << q;
        }
        failovers += runs[c].stats.failovers;
        duplicates += runs[c].stats.duplicates;
    }
    EXPECT_EQ(failovers, 0u);
    EXPECT_EQ(duplicates, 0u);
    // Sessions outlive a batch: repeat visits to a recording are hits.
    EXPECT_GT(fleet.shard[0]->cache().stats().hits +
                  fleet.shard[1]->cache().stats().hits,
              0u);
}

TEST(FleetClient, ShardDeathMidBatchLosesAndDuplicatesNothing)
{
    const SavedProgram program("fleet_kill", /*salt=*/32);
    TwoShardFleet fleet("fleet_kill");

    FleetClient fleet_client(fleet.endpoints);
    const auto owners = fleet_client.ownersFor(program.prefix);
    ASSERT_EQ(owners.size(), 2u);
    Server &primary = fleet.at(owners[0]);
    Server &replica = fleet.at(owners[1]);
    const std::string primary_id =
        owners[0] == fleet.endpoints[0] ? "shard-0" : "shard-1";

    // Six criteria on the primary's single worker: the first streams
    // back immediately, the rest hold the worker long enough for the
    // kill to land mid-batch. Distinct windows prevent dedup.
    std::vector<SliceQuery> queries(6);
    std::vector<slicer::SliceResult> oracle(6);
    for (size_t i = 0; i < queries.size(); ++i) {
        queries[i].endIndex = 60 - i;
        queries[i].debugSleepMs = i == 0 ? 0 : 400;
        slicer::SlicerOptions options;
        options.endIndex = queries[i].endIndex;
        oracle[i] = program.directSlice(options);
    }

    // The assassin: wait for the first result to be underway, then
    // hard-close every connection on the primary — what a crashed
    // shard looks like from the client's side.
    std::thread assassin([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        primary.beginDrain();
        primary.abortConnections();
    });

    ServiceClient::BatchOutcome outcome;
    std::string error;
    const bool ok = fleet_client.batch(program.prefix, queries, outcome,
                                       error);
    assassin.join();
    ASSERT_TRUE(ok) << error;

    // Every criterion answered exactly once — nothing lost to the dead
    // shard, nothing double-reported across the failover — and every
    // result bit-identical to the direct slicer.
    ASSERT_EQ(outcome.results.size(), queries.size());
    EXPECT_EQ(outcome.ok, queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(outcome.results[i].status, QueryResult::Status::Ok)
            << "query " << i << ": " << outcome.results[i].error;
        EXPECT_EQ(outcome.results[i].inSliceFnv1a,
                  fnv1a64(oracle[i].inSlice.data(),
                          oracle[i].inSlice.size()))
            << "query " << i;
    }

    const auto stats = fleet_client.stats();
    EXPECT_GE(stats.failovers, 1u);
    EXPECT_EQ(stats.duplicates, 0u);

    // The handoff is visible in the results' shard identities: the
    // early result came from the primary, the post-kill remainder
    // from the replica.
    EXPECT_EQ(outcome.results[0].shard, primary_id);
    std::set<std::string> shards;
    for (const auto &result : outcome.results)
        shards.insert(result.shard);
    EXPECT_EQ(shards.size(), 2u);
    EXPECT_GE(replica.scheduler().stats().submitted, 1u);

    // The primary computed-but-unread tail was cancelled, not burned:
    // jobs whose waiter vanished are abandoned at dequeue.
    primary.scheduler().drain();
    EXPECT_GE(primary.scheduler().stats().abandoned, 1u);
}

TEST(FleetClient, DrainingShardFailsOverBeforeAnyResult)
{
    const SavedProgram program("fleet_drain", /*salt=*/33);
    TwoShardFleet fleet("fleet_drain");

    FleetClient fleet_client(fleet.endpoints);
    const auto owners = fleet_client.ownersFor(program.prefix);
    ASSERT_EQ(owners.size(), 2u);
    fleet.at(owners[0]).beginDrain();

    std::vector<SliceQuery> queries(2);
    queries[1].endIndex = 50;
    ServiceClient::BatchOutcome outcome;
    std::string error;
    ASSERT_TRUE(fleet_client.batch(program.prefix, queries, outcome,
                                   error))
        << error;
    EXPECT_EQ(outcome.ok, 2u);

    const auto stats = fleet_client.stats();
    EXPECT_GE(stats.failovers, 1u);
    EXPECT_EQ(stats.duplicates, 0u);
    EXPECT_EQ(fleet.at(owners[0]).scheduler().stats().submitted, 0u);
    EXPECT_GE(fleet.at(owners[1]).scheduler().stats().submitted, 2u);

    // discover() sees the drained shard as down and the replica up.
    EXPECT_EQ(fleet_client.discover(), 1u);
    EXPECT_TRUE(fleet_client.router().isDown(owners[0]));
}

TEST(FleetClient, EveryShardDeadReportsTheUnansweredRemainder)
{
    const SavedProgram program("fleet_dead", /*salt=*/34);

    // Two endpoints nothing listens on: connects fail, the client
    // exhausts the ring, and the error names the unanswered count.
    FleetClient fleet_client({tempPath("fleet_dead_a.sock"),
                              tempPath("fleet_dead_b.sock")});
    std::vector<SliceQuery> queries(3);
    queries[1].endIndex = 50;
    queries[2].endIndex = 40;
    ServiceClient::BatchOutcome outcome;
    std::string error;
    EXPECT_FALSE(fleet_client.batch(program.prefix, queries, outcome,
                                    error));
    EXPECT_NE(error.find("3 of 3"), std::string::npos);
    EXPECT_GE(fleet_client.stats().failovers, 1u);
}

TEST(FleetClient, WarmAdvisoryLandsOnTheReplica)
{
    const SavedProgram program("fleet_warm", /*salt=*/35);
    TwoShardFleet fleet("fleet_warm");

    FleetClient fleet_client(fleet.endpoints);
    const auto owners = fleet_client.ownersFor(program.prefix);
    ASSERT_EQ(owners.size(), 2u);

    ServiceClient::BatchOutcome outcome;
    std::string error;
    ASSERT_TRUE(fleet_client.batch(program.prefix, {SliceQuery()},
                                   outcome, error))
        << error;
    EXPECT_EQ(fleet_client.stats().warmsSent, 1u);

    // The advisory build lands asynchronously on the replica: after
    // its pool drains, the replica holds the session without a single
    // slicing query having touched it.
    fleet.at(owners[1]).scheduler().drain();
    EXPECT_EQ(fleet.at(owners[1]).cache().stats().built, 1u);
    EXPECT_EQ(fleet.at(owners[1]).scheduler().stats().submitted, 0u);

    // A failover now lands hot: kill the primary, repeat the query
    // (new window so it is fresh work), and the replica answers from
    // its warmed cache.
    fleet.at(owners[0]).beginDrain();
    fleet.at(owners[0]).abortConnections();
    SliceQuery fresh;
    fresh.endIndex = 50;
    ASSERT_TRUE(fleet_client.batch(program.prefix, {fresh}, outcome,
                                   error))
        << error;
    ASSERT_EQ(outcome.ok, 1u);
    EXPECT_TRUE(outcome.results[0].cacheHit);
}

} // namespace
} // namespace service
} // namespace webslice
