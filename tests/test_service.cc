/**
 * @file
 * Tests of the slicing service: the JSON value and its defensive
 * parser, the length-prefixed frame transport, the session cache's LRU
 * eviction / digest invalidation / stat-checked identity / singleflight
 * build and its result memo, the batch scheduler's bit-identity with
 * the direct slicer plus its dedup, backpressure, and timeout
 * behavior, and an in-process daemon serving a real client over a Unix
 * socket end to end.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/scheduler.hh"
#include "service/server.hh"
#include "service/session_cache.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace service {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

/** Bare connected Unix-socket fd, for tests that speak raw frames. */
int
connectUnixRaw(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

// ---- JSON value ----------------------------------------------------------

TEST(Json, ParsesAndRoundTripsNestedValues)
{
    const std::string text =
        R"({"a":[1,2.5,-3],"b":{"s":"hi\nthere","t":true,"n":null}})";
    Json value;
    std::string error;
    ASSERT_TRUE(Json::parse(text, value, error)) << error;
    ASSERT_TRUE(value.isObject());

    const Json *a = value.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(a->items()[1].asDouble(), 2.5);
    EXPECT_EQ(a->items()[2].asInt(), -3);

    const Json *b = value.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->find("s")->asString(), "hi\nthere");
    EXPECT_TRUE(b->find("t")->asBool());
    EXPECT_TRUE(b->find("n")->isNull());

    // dump() then parse() is the identity on the value.
    Json again;
    ASSERT_TRUE(Json::parse(value.dump(), again, error)) << error;
    EXPECT_EQ(again.dump(), value.dump());
}

TEST(Json, PreservesExactIntegersAndMemberOrder)
{
    Json value;
    std::string error;
    ASSERT_TRUE(
        Json::parse("{\"z\":9007199254740993,\"a\":1}", value, error));
    // Exact beyond a double's 53-bit mantissa.
    EXPECT_EQ(value.find("z")->asInt(), 9007199254740993ll);
    ASSERT_EQ(value.members().size(), 2u);
    EXPECT_EQ(value.members()[0].first, "z"); // insertion order kept
    EXPECT_EQ(value.members()[1].first, "a");
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    Json value;
    std::string error;
    ASSERT_TRUE(Json::parse(R"("\u00e9\u20ac")", value, error)) << error;
    EXPECT_EQ(value.asString(), "\xc3\xa9\xe2\x82\xac"); // é €
}

TEST(Json, RejectsMalformedInputWithByteOffsets)
{
    const char *bad[] = {
        "",            // empty
        "{",           // unterminated object
        "[1,]",        // trailing comma
        "{\"a\" 1}",   // missing colon
        "\"\\x\"",     // bad escape
        "01",          // leading zero
        "1 2",         // trailing garbage
        "nul",         // bad literal
        "\"unterminated",
    };
    for (const char *text : bad) {
        Json value;
        std::string error;
        EXPECT_FALSE(Json::parse(text, value, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Json, RejectsPathologicalNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    Json value;
    std::string error;
    EXPECT_FALSE(Json::parse(deep, value, error));
}

// ---- frame transport -----------------------------------------------------

TEST(Frames, RoundTripOverAPipe)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    std::string error;
    ASSERT_TRUE(writeFrame(fds[1], "{\"op\":\"ping\"}", error)) << error;
    ASSERT_TRUE(writeFrame(fds[1], "42", error)) << error;
    close(fds[1]);

    std::string payload;
    ASSERT_EQ(readFrame(fds[0], payload, error), FrameRead::Ok) << error;
    EXPECT_EQ(payload, "{\"op\":\"ping\"}");
    ASSERT_EQ(readFrame(fds[0], payload, error), FrameRead::Ok) << error;
    EXPECT_EQ(payload, "42");
    EXPECT_EQ(readFrame(fds[0], payload, error), FrameRead::Eof);
    close(fds[0]);
}

TEST(Frames, OversizedAndTruncatedFramesAreErrors)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    // Length prefix far beyond the ceiling.
    const uint32_t huge = kMaxFrameBytes + 1;
    ASSERT_EQ(write(fds[1], &huge, 4), 4);
    std::string payload, error;
    EXPECT_EQ(readFrame(fds[0], payload, error), FrameRead::Error);
    EXPECT_NE(error.find("frame"), std::string::npos);
    close(fds[0]);
    close(fds[1]);

    // Prefix promising more bytes than ever arrive.
    ASSERT_EQ(pipe(fds), 0);
    const uint32_t ten = 10;
    ASSERT_EQ(write(fds[1], &ten, 4), 4);
    ASSERT_EQ(write(fds[1], "abc", 3), 3);
    close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], payload, error), FrameRead::Error);
    close(fds[0]);
}

TEST(Frames, WriteSideValidationMirrorsTheReadSide)
{
    // A conforming writer must never produce a frame a conforming
    // reader rejects: the refusal boundaries have to be identical on
    // both sides. Exercised with a tiny cap so the boundary is cheap.
    constexpr uint32_t kCap = 16;
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    std::string error, payload;

    // Empty payloads are refused before any byte hits the wire (the
    // reader treats a zero length as a protocol violation).
    EXPECT_FALSE(writeFrame(fds[1], "", error, kCap));
    EXPECT_NE(error.find("minimum 1"), std::string::npos);

    // Exactly at the cap: accepted by both sides.
    const std::string at_cap(kCap, 'x');
    ASSERT_TRUE(writeFrame(fds[1], at_cap, error, kCap)) << error;
    ASSERT_EQ(readFrame(fds[0], payload, error, kCap), FrameRead::Ok)
        << error;
    EXPECT_EQ(payload, at_cap);

    // One past the cap: the writer refuses...
    const std::string over_cap(kCap + 1, 'x');
    EXPECT_FALSE(writeFrame(fds[1], over_cap, error, kCap));
    EXPECT_NE(error.find("limit"), std::string::npos);

    // ...and had it been written (by a writer with a larger cap), the
    // reader with the small cap rejects it at the same boundary.
    ASSERT_TRUE(writeFrame(fds[1], over_cap, error, kCap + 1)) << error;
    EXPECT_EQ(readFrame(fds[0], payload, error, kCap),
              FrameRead::Error);
    close(fds[0]);
    close(fds[1]);

    // A raw zero length prefix is rejected by the reader outright.
    ASSERT_EQ(pipe(fds), 0);
    const uint32_t zero = 0;
    ASSERT_EQ(write(fds[1], &zero, 4), 4);
    EXPECT_EQ(readFrame(fds[0], payload, error), FrameRead::Error);
    EXPECT_NE(error.find("frame"), std::string::npos);
    close(fds[0]);
    close(fds[1]);
}

TEST(Frames, WriteToAClosedPeerReportsErrnoNotValidation)
{
    // The server tells a vanished client (EPIPE) from a malformed
    // frame via errno_out: 0 for validation refusals, the write errno
    // otherwise.
    std::signal(SIGPIPE, SIG_IGN);
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    close(fds[0]); // Reader gone; the next write raises EPIPE.

    std::string error;
    int write_errno = -1;
    EXPECT_FALSE(writeFrame(fds[1], "{}", error, kMaxFrameBytes,
                            &write_errno));
    EXPECT_EQ(write_errno, EPIPE);
    close(fds[1]);

    // Validation refusals never touch the wire: errno_out stays 0.
    ASSERT_EQ(pipe(fds), 0);
    write_errno = -1;
    EXPECT_FALSE(writeFrame(fds[1], "", error, kMaxFrameBytes,
                            &write_errno));
    EXPECT_EQ(write_errno, 0);
    close(fds[0]);
    close(fds[1]);
}

// ---- query wire format ---------------------------------------------------

TEST(SliceQuery, RoundTripsThroughJson)
{
    SliceQuery query;
    query.mode = slicer::CriteriaMode::Syscalls;
    query.noWindow = true;
    query.endIndex = 1234;
    query.backwardJobs = 4;
    query.timeoutMs = 250;

    SliceQuery parsed;
    std::string error;
    ASSERT_TRUE(SliceQuery::fromJson(query.toJson(), parsed, error))
        << error;
    EXPECT_EQ(parsed.mode, query.mode);
    EXPECT_EQ(parsed.noWindow, query.noWindow);
    EXPECT_EQ(parsed.endIndex, query.endIndex);
    EXPECT_EQ(parsed.backwardJobs, query.backwardJobs);
    EXPECT_EQ(parsed.timeoutMs, query.timeoutMs);
}

TEST(SliceQuery, RejectsUnknownMembersAndBadModes)
{
    Json bad = Json::object();
    bad.set("mode", Json::string("pixel"));
    bad.set("surprise", Json::integer(1));
    SliceQuery parsed;
    std::string error;
    EXPECT_FALSE(SliceQuery::fromJson(bad, parsed, error));
    EXPECT_NE(error.find("surprise"), std::string::npos);

    Json wrong = Json::object();
    wrong.set("mode", Json::string("voodoo"));
    EXPECT_FALSE(SliceQuery::fromJson(wrong, parsed, error));
}

TEST(SliceQuery, DedupKeyIgnoresTimeoutButNotWork)
{
    SliceQuery a, b;
    a.timeoutMs = 10;
    b.timeoutMs = 9999;
    EXPECT_EQ(a.dedupKey(1), b.dedupKey(1));
    EXPECT_NE(a.dedupKey(1), a.dedupKey(2)); // different recording
    b.endIndex = 7;
    EXPECT_NE(a.dedupKey(1), b.dedupKey(1)); // different window
}

// ---- recorded-artifact fixture -------------------------------------------

/**
 * A small multi-threaded program whose artifacts are written to a
 * <prefix> on disk, exactly as webslice-record would: .trc (with block
 * index), .sym, .crit, and a .meta naming the benchmark. `salt` varies
 * the computation so two fixtures are distinct recordings.
 */
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
        const auto fn = machine.registerFunction("svc::chain");

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
        meta << "benchmark service-test\n";
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

/** Publish `bytes` as `path` the way TraceWriter does: a new file
 *  renamed over the old one, so the old inode is never rewritten. */
void
republish(const std::string &path, const std::string &bytes)
{
    const std::string tmp = path + ".republish";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0) << path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A placeholder memo answer (the cache never looks inside one). */
std::shared_ptr<const SliceAnswer>
dummyAnswer(uint64_t digest)
{
    auto answer = std::make_shared<SliceAnswer>();
    answer->inSliceFnv1a = digest;
    answer->categoryShares.emplace_back("layout", 12.5);
    return answer;
}

// ---- session cache -------------------------------------------------------

TEST(SessionCache, SecondAcquireIsAHit)
{
    const SavedProgram program("cache_hit");
    SessionCache cache(1ull << 30);
    bool hit = true;
    const auto first = cache.acquire(program.prefix, &hit);
    EXPECT_FALSE(hit);
    const auto second = cache.acquire(program.prefix, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(SessionCache, EvictsColdestUnderByteBudget)
{
    const SavedProgram one("evict_one", /*salt=*/1);
    const SavedProgram two("evict_two", /*salt=*/2);

    // A budget of one byte cannot hold any session, but the newest
    // entry is exempt from eviction: inserting the second must evict
    // exactly the first.
    SessionCache cache(/*byte_budget=*/1);
    cache.acquire(one.prefix);
    EXPECT_EQ(cache.stats().entries, 1u); // newest survives over-budget
    cache.acquire(two.prefix);

    auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 1u);

    // The evicted recording must be rebuilt on its next use.
    bool hit = true;
    cache.acquire(one.prefix, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().built, 3u);
}

TEST(SessionCache, ChangedArtifactInvalidatesTheEntry)
{
    const SavedProgram program("invalidate", /*salt=*/3);
    SessionCache cache(1ull << 30);
    const auto first = cache.acquire(program.prefix);

    // Rewrite the criteria sidecar: same prefix, different recording.
    {
        trace::CriteriaSet fewer;
        fewer.add(/*marker=*/0, program.buffers[0], 4);
        fewer.save(program.prefix + ".crit");
    }

    bool hit = true;
    const auto second = cache.acquire(program.prefix, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(first.get(), second.get());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.built, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(SessionCache, HitsReadNoTraceByte)
{
    const SavedProgram program("stat_hits", /*salt=*/31);
    SessionCache cache(1ull << 30);
    const auto first = cache.acquire(program.prefix);
    for (int i = 0; i < 5; ++i) {
        bool hit = false;
        EXPECT_EQ(cache.acquire(program.prefix, &hit).get(), first.get());
        EXPECT_TRUE(hit);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.traceRehashes, 0u); // a matching stat() suffices
}

TEST(SessionCache, RepublishedTraceInvalidatesTheEntry)
{
    const SavedProgram program("republish", /*salt=*/32);
    const SavedProgram other("republish_other", /*salt=*/33);
    // Only the trace differs: the two programs share their code.
    ASSERT_EQ(readFile(program.prefix + ".sym"),
              readFile(other.prefix + ".sym"));
    ASSERT_NE(readFile(program.prefix + ".trc"),
              readFile(other.prefix + ".trc"));

    SessionCache cache(1ull << 30);
    const auto first = cache.acquire(program.prefix);
    const size_t window = first->windowEnd(false, UINT64_MAX);
    cache.storeAnswer(*first, window, slicer::CriteriaMode::PixelBuffer,
                      dummyAnswer(1));
    EXPECT_EQ(cache.stats().memoEntries, 1u);

    republish(program.prefix + ".trc",
              readFile(other.prefix + ".trc"));
    bool hit = true;
    const auto second = cache.acquire(program.prefix, &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(first.get(), second.get());
    EXPECT_NE(first->identity, second->identity);
    EXPECT_EQ(second->trace->records().size(), other.machine.records().size());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.traceRehashes, 1u);
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.built, 2u);
    EXPECT_EQ(stats.memoEntries, 0u);
    EXPECT_EQ(cache.findAnswer(*first, window,
                               slicer::CriteriaMode::PixelBuffer),
              nullptr);
}

TEST(SessionCache, IdenticalRepublishStaysAHitAfterOneRehash)
{
    const SavedProgram program("republish_same", /*salt=*/34);
    SessionCache cache(1ull << 30);
    const auto first = cache.acquire(program.prefix);

    // Same bytes, new inode: one re-hash proves the identity unchanged
    // and refreshes the kept stat, so later hits re-hash nothing.
    republish(program.prefix + ".trc",
              readFile(program.prefix + ".trc"));
    bool hit = false;
    EXPECT_EQ(cache.acquire(program.prefix, &hit).get(), first.get());
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.stats().traceRehashes, 1u);

    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(cache.acquire(program.prefix, &hit).get(), first.get());
        EXPECT_TRUE(hit);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.traceRehashes, 1u);
    EXPECT_EQ(stats.hits, 5u);
    EXPECT_EQ(stats.invalidations, 0u);
    EXPECT_EQ(stats.built, 1u);
}

TEST(SessionCache, ConcurrentAcquiresBuildOnce)
{
    const SavedProgram program("concurrent", /*salt=*/4);
    SessionCache cache(1ull << 30);

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Session>> sessions(kThreads);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            try {
                sessions[t] = cache.acquire(program.prefix);
            } catch (...) {
                ++failures;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(cache.stats().built, 1u);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(sessions[t].get(), sessions[0].get());
}

TEST(SessionCache, MissingArtifactsThrowInsteadOfExiting)
{
    SessionCache cache(1ull << 30);
    EXPECT_THROW(cache.acquire(tempPath("no_such_recording")),
                 FatalError);
    // The failure must not leave a poisoned entry behind.
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SessionCache, AnswersEvictUnderTheSharedByteBudget)
{
    const SavedProgram program("memo_evict", /*salt=*/35);

    // As with sessions, nothing fits in one byte but the newest answer
    // (and session) are exempt: each answer evicts the previous one.
    SessionCache cache(/*byte_budget=*/1);
    const auto session = cache.acquire(program.prefix);
    const size_t window = session->windowEnd(false, UINT64_MAX);
    cache.storeAnswer(*session, window, slicer::CriteriaMode::PixelBuffer,
                      dummyAnswer(1));
    EXPECT_EQ(cache.stats().memoEntries, 1u);
    cache.storeAnswer(*session, window, slicer::CriteriaMode::Syscalls,
                      dummyAnswer(2));

    const auto stats = cache.stats();
    EXPECT_EQ(stats.memoEntries, 1u);
    EXPECT_EQ(stats.memoEvictions, 1u);
    EXPECT_EQ(stats.entries, 1u); // answers go before sessions
    EXPECT_EQ(cache.findAnswer(*session, window,
                               slicer::CriteriaMode::PixelBuffer),
              nullptr);
    const auto kept = cache.findAnswer(*session, window,
                                       slicer::CriteriaMode::Syscalls);
    ASSERT_TRUE(kept);
    EXPECT_EQ(kept->inSliceFnv1a, 2u);
    EXPECT_EQ(cache.stats().memoHits, 1u);
}

TEST(SessionCache, InvalidationDropsTheRecordingsAnswers)
{
    const SavedProgram program("memo_invalidate", /*salt=*/23);
    SessionCache cache(1ull << 30);
    const auto first = cache.acquire(program.prefix);
    const size_t window = first->windowEnd(false, UINT64_MAX);
    cache.storeAnswer(*first, window, slicer::CriteriaMode::PixelBuffer,
                      dummyAnswer(1));
    cache.storeAnswer(*first, window, slicer::CriteriaMode::Syscalls,
                      dummyAnswer(2));
    EXPECT_EQ(cache.stats().memoEntries, 2u);

    // Rewrite the criteria sidecar: same prefix, different recording —
    // answers computed from the stale artifacts must go with the
    // session.
    {
        trace::CriteriaSet fewer;
        fewer.add(/*marker=*/0, program.buffers[0], 4);
        fewer.save(program.prefix + ".crit");
    }
    const auto second = cache.acquire(program.prefix);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    EXPECT_EQ(cache.stats().memoEntries, 0u);
    for (const auto mode : {slicer::CriteriaMode::PixelBuffer,
                            slicer::CriteriaMode::Syscalls}) {
        EXPECT_EQ(cache.findAnswer(*first, window, mode), nullptr);
        EXPECT_EQ(cache.findAnswer(*second,
                                   second->windowEnd(false, UINT64_MAX),
                                   mode),
                  nullptr);
    }
    EXPECT_EQ(cache.stats().memoHits, 0u);
}

// ---- scheduler -----------------------------------------------------------

TEST(Scheduler, ResultIsBitIdenticalToTheDirectSlicer)
{
    const SavedProgram program("sched_exact", /*salt=*/5);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {});

    SliceQuery query; // pixel-buffer, full window
    const auto submitted = scheduler.submit(program.prefix, query);
    ASSERT_FALSE(submitted.rejected);
    const QueryResult &result = submitted.job->wait();
    ASSERT_EQ(result.status, QueryResult::Status::Ok) << result.error;

    const auto direct = program.directSlice();
    EXPECT_EQ(result.sliceInstructions, direct.sliceInstructions);
    EXPECT_EQ(result.instructionsAnalyzed, direct.instructionsAnalyzed);
    EXPECT_EQ(result.inSliceFnv1a,
              fnv1a64(direct.inSlice.data(), direct.inSlice.size()));
}

TEST(Scheduler, DuplicateInFlightQueriesShareOneJob)
{
    const SavedProgram program("sched_dedup", /*salt=*/6);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/16});

    // Occupy the single worker so the next submissions stay queued.
    SliceQuery blocker;
    blocker.debugSleepMs = 200;
    scheduler.submit(program.prefix, blocker);

    SliceQuery query;
    query.endIndex = 50; // distinct from the blocker's key
    const auto first = scheduler.submit(program.prefix, query);
    const auto second = scheduler.submit(program.prefix, query);
    EXPECT_FALSE(first.deduped);
    EXPECT_TRUE(second.deduped);
    EXPECT_EQ(first.job.get(), second.job.get());

    const QueryResult &result = second.job->wait();
    EXPECT_EQ(result.status, QueryResult::Status::Ok) << result.error;
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().deduped, 1u);
}

TEST(Scheduler, FullQueueRejectsImmediately)
{
    const SavedProgram program("sched_reject", /*salt=*/7);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/1});

    SliceQuery blocker;
    blocker.debugSleepMs = 200;
    scheduler.submit(program.prefix, blocker);

    SliceQuery query;
    query.endIndex = 50;
    const auto bounced = scheduler.submit(program.prefix, query);
    EXPECT_TRUE(bounced.rejected);
    ASSERT_TRUE(bounced.job->done());
    EXPECT_EQ(bounced.job->wait().status, QueryResult::Status::Rejected);
    EXPECT_NE(bounced.job->wait().error.find("queue full"),
              std::string::npos);
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(Scheduler, ExpiredDeadlineReportsTimeoutWithoutRunning)
{
    const SavedProgram program("sched_timeout", /*salt=*/8);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/16});

    SliceQuery blocker;
    blocker.debugSleepMs = 250;
    scheduler.submit(program.prefix, blocker);

    SliceQuery impatient;
    impatient.endIndex = 50;
    impatient.timeoutMs = 20; // expires while the blocker holds the worker
    const auto submitted = scheduler.submit(program.prefix, impatient);
    const QueryResult &result = submitted.job->wait();
    EXPECT_EQ(result.status, QueryResult::Status::Timeout);
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().timedOut, 1u);
}

TEST(Scheduler, LoadFailuresFailTheOneRequestOnly)
{
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {});
    SliceQuery query;
    const auto submitted =
        scheduler.submit(tempPath("sched_no_artifacts"), query);
    const QueryResult &result = submitted.job->wait();
    EXPECT_EQ(result.status, QueryResult::Status::Error);
    EXPECT_FALSE(result.error.empty());
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(Scheduler, ManyCriteriaOverOneSessionWalkOncePerMode)
{
    const SavedProgram program("sched_criteria", /*salt=*/24);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/2, /*maxQueue=*/32});

    // The oracle answers for both criteria modes at the default window.
    const auto direct_pixel = program.directSlice();
    slicer::SlicerOptions syscall_options;
    syscall_options.mode = slicer::CriteriaMode::Syscalls;
    const auto direct_syscalls = program.directSlice(syscall_options);

    // Eight criterion queries against one recording: both modes, four
    // backward-job counts. Sequential waits make the first query of
    // each mode its one walk; backward-jobs is an execution knob, so
    // the other six are repeats answered from the result memo.
    for (int i = 0; i < 8; ++i) {
        SliceQuery query;
        query.mode = i % 2 ? slicer::CriteriaMode::Syscalls
                           : slicer::CriteriaMode::PixelBuffer;
        query.backwardJobs = 1 + i / 2;
        const auto submitted = scheduler.submit(program.prefix, query);
        ASSERT_FALSE(submitted.rejected);
        const QueryResult &result = submitted.job->wait();
        ASSERT_EQ(result.status, QueryResult::Status::Ok) << result.error;
        EXPECT_EQ(result.memoHit, i >= 2) << "query " << i;

        const auto &direct = i % 2 ? direct_syscalls : direct_pixel;
        EXPECT_EQ(result.inSliceFnv1a,
                  fnv1a64(direct.inSlice.data(), direct.inSlice.size()))
            << "query " << i;
    }
    scheduler.drain();

    const auto stats = cache.stats();
    EXPECT_EQ(stats.memoHits, 6u);
    EXPECT_EQ(stats.memoEntries, 2u);
    EXPECT_EQ(stats.built, 1u); // one forward pass for the whole batch
}

TEST(Scheduler, EvictionMidBatchKeepsResultsCorrect)
{
    const SavedProgram programs[] = {
        SavedProgram("sched_evict_a", /*salt=*/25),
        SavedProgram("sched_evict_b", /*salt=*/26)};

    // A one-byte budget holds only the newest answer and the newest
    // session: alternating between two recordings and two windows
    // evicts the other recording's session and the previous answer
    // every time, so every query rebuilds and walks — and must still
    // be right.
    SessionCache cache(/*byte_budget=*/1);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/16});

    const size_t windows[] = {60, 40};
    slicer::SliceResult oracle[2][2];
    for (int p = 0; p < 2; ++p) {
        for (int w = 0; w < 2; ++w) {
            slicer::SlicerOptions options;
            options.endIndex = windows[w];
            oracle[p][w] = programs[p].directSlice(options);
        }
    }

    for (int round = 0; round < 3; ++round) {
        for (int p = 0; p < 2; ++p) {
            for (int w = 0; w < 2; ++w) {
                SliceQuery query;
                query.endIndex = windows[w];
                query.backwardJobs = 1 + round;
                const auto submitted =
                    scheduler.submit(programs[p].prefix, query);
                ASSERT_FALSE(submitted.rejected);
                const QueryResult &result = submitted.job->wait();
                ASSERT_EQ(result.status, QueryResult::Status::Ok)
                    << result.error;
                EXPECT_FALSE(result.memoHit);
                EXPECT_EQ(result.inSliceFnv1a,
                          fnv1a64(oracle[p][w].inSlice.data(),
                                  oracle[p][w].inSlice.size()))
                    << "round " << round << " recording " << p
                    << " window " << windows[w];
            }
        }
    }
    scheduler.drain();

    const auto stats = cache.stats();
    EXPECT_EQ(stats.memoHits, 0u);
    EXPECT_EQ(stats.memoEvictions, 11u); // every answer but the last
    EXPECT_EQ(stats.evictions, 5u);      // every session but the last
    EXPECT_EQ(stats.built, 6u);
    EXPECT_LE(stats.memoEntries, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

/** Every field a result frame carries about the slice must match. */
void
expectSameAnswer(const QueryResult &a, const QueryResult &b)
{
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.windowEnd, b.windowEnd);
    EXPECT_EQ(a.instructionsAnalyzed, b.instructionsAnalyzed);
    EXPECT_EQ(a.sliceInstructions, b.sliceInstructions);
    EXPECT_EQ(a.criteriaBytesSeeded, b.criteriaBytesSeeded);
    EXPECT_EQ(a.slicePercent, b.slicePercent);
    EXPECT_EQ(a.inSliceFnv1a, b.inSliceFnv1a);
    EXPECT_EQ(a.categoryCoveragePercent, b.categoryCoveragePercent);
    EXPECT_EQ(a.categoryShares, b.categoryShares);
}

TEST(Scheduler, RepeatedQueryIsAMemoHit)
{
    const SavedProgram program("sched_memo", /*salt=*/27);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/16});

    SliceQuery query;
    const QueryResult first =
        scheduler.submit(program.prefix, query).job->wait();
    ASSERT_EQ(first.status, QueryResult::Status::Ok) << first.error;
    EXPECT_FALSE(first.memoHit);
    const auto before = cache.stats();

    query.backwardJobs = 3; // an execution knob, not a criterion
    const QueryResult second =
        scheduler.submit(program.prefix, query).job->wait();
    ASSERT_EQ(second.status, QueryResult::Status::Ok) << second.error;
    EXPECT_TRUE(second.memoHit);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.sliceMs, 0.0);
    expectSameAnswer(first, second);
    EXPECT_EQ(cache.stats().memoHits, before.memoHits + 1);
    scheduler.drain();
}

TEST(Scheduler, OtherWindowOrModeMissesTheMemo)
{
    const SavedProgram program("sched_memo_miss", /*salt=*/28);
    SessionCache cache(1ull << 30);
    Scheduler scheduler(cache, {/*workers=*/1, /*maxQueue=*/16});

    const auto run = [&](slicer::CriteriaMode mode, uint64_t end) {
        SliceQuery query;
        query.mode = mode;
        query.endIndex = end;
        return scheduler.submit(program.prefix, query).job->wait();
    };
    const QueryResult pixel =
        run(slicer::CriteriaMode::PixelBuffer, UINT64_MAX);
    const QueryResult syscalls =
        run(slicer::CriteriaMode::Syscalls, UINT64_MAX);
    const QueryResult shorter = run(slicer::CriteriaMode::PixelBuffer, 50);
    for (const QueryResult *r : {&pixel, &syscalls, &shorter}) {
        ASSERT_EQ(r->status, QueryResult::Status::Ok) << r->error;
        EXPECT_FALSE(r->memoHit);
    }
    slicer::SlicerOptions options;
    options.mode = slicer::CriteriaMode::Syscalls;
    const auto direct = program.directSlice(options);
    EXPECT_EQ(syscalls.inSliceFnv1a,
              fnv1a64(direct.inSlice.data(), direct.inSlice.size()));

    const QueryResult repeat =
        run(slicer::CriteriaMode::PixelBuffer, UINT64_MAX);
    EXPECT_TRUE(repeat.memoHit);
    expectSameAnswer(pixel, repeat);
    scheduler.drain();
    EXPECT_EQ(cache.stats().memoEntries, 3u);
    EXPECT_EQ(cache.stats().memoHits, 1u);
}

// ---- end to end over a real socket ---------------------------------------

TEST(Server, ServesABatchOverAUnixSocket)
{
    const SavedProgram program("e2e", /*salt=*/9);

    ServerOptions options;
    options.socketPath = tempPath("e2e.sock");
    options.workers = 4;
    Server server(options);
    std::thread serving([&] { server.run(); });

    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connectUnix(options.socketPath, error)) << error;

    // ping
    Json ping = Json::object();
    ping.set("op", Json::string("ping"));
    Json pong;
    ASSERT_TRUE(client.call(ping, pong, error)) << error;
    EXPECT_EQ(pong.find("op")->asString(), "pong");
    EXPECT_EQ(pong.find("schema")->asString(), kServeSchema);

    // One batch mixing criteria modes and windows.
    std::vector<SliceQuery> queries(4);
    queries[1].mode = slicer::CriteriaMode::Syscalls;
    queries[2].endIndex = 40;
    queries[3].backwardJobs = 2;

    ServiceClient::BatchOutcome outcome;
    ASSERT_TRUE(client.batch(program.prefix, queries, outcome, error))
        << error;
    ASSERT_EQ(outcome.results.size(), 4u);
    EXPECT_EQ(outcome.ok, 4u);

    // The pixel-buffer default query must be bit-identical to running
    // the slicer directly over the same records.
    const auto direct = program.directSlice();
    EXPECT_EQ(outcome.results[0].inSliceFnv1a,
              fnv1a64(direct.inSlice.data(), direct.inSlice.size()));

    // Same batch again: the session comes from the cache, and every
    // answer from the result memo the first batch filled — no slice
    // runs.
    ServiceClient::BatchOutcome warm;
    ASSERT_TRUE(client.batch(program.prefix, queries, warm, error))
        << error;
    EXPECT_EQ(warm.ok, 4u);
    for (size_t i = 0; i < warm.results.size(); ++i) {
        const auto &result = warm.results[i];
        EXPECT_TRUE(result.cacheHit);
        EXPECT_TRUE(result.memoHit);
        EXPECT_EQ(result.sliceMs, 0.0);
        expectSameAnswer(outcome.results[i], result);
    }
    EXPECT_EQ(server.cache().stats().built, 1u);

    // stats frames carry the cache and scheduler sections.
    Json stats_request = Json::object();
    stats_request.set("op", Json::string("stats"));
    Json stats;
    ASSERT_TRUE(client.call(stats_request, stats, error)) << error;
    ASSERT_NE(stats.find("cache"), nullptr);
    EXPECT_EQ(stats.find("cache")->find("built")->asInt(), 1);
    EXPECT_EQ(stats.find("cache")->find("plan_evictions")->asInt(), 0);
    // Three distinct (window, mode) answers; the warm batch hit all four.
    EXPECT_EQ(stats.find("cache")->find("memo_entries")->asInt(), 3);
    EXPECT_GE(stats.find("cache")->find("memo_hits")->asInt(), 4);
    ASSERT_NE(stats.find("scheduler"), nullptr);
    EXPECT_EQ(stats.find("slicer"), nullptr);

    // A malformed request answers with an error frame, not a dead
    // daemon; the connection closes, so reconnect for shutdown.
    Json bad = Json::object();
    bad.set("op", Json::string("frobnicate"));
    Json answer;
    ASSERT_TRUE(client.call(bad, answer, error)) << error;
    EXPECT_EQ(answer.find("status")->asString(), "error");

    ServiceClient again;
    ASSERT_TRUE(again.connectUnix(options.socketPath, error)) << error;
    Json shutdown_request = Json::object();
    shutdown_request.set("op", Json::string("shutdown"));
    Json ack;
    ASSERT_TRUE(again.call(shutdown_request, ack, error)) << error;
    EXPECT_EQ(ack.find("status")->asString(), "ok");

    serving.join();
    // Graceful shutdown removes the socket file.
    EXPECT_NE(access(options.socketPath.c_str(), F_OK), 0);
}

TEST(Server, MalformedBatchQueryFailsInBandAndStopsTheBatch)
{
    const SavedProgram program("e2e_bad", /*salt=*/10);

    ServerOptions options;
    options.socketPath = tempPath("e2e_bad.sock");
    Server server(options);
    std::thread serving([&] { server.run(); });

    // Hand-build a batch whose second query is garbage, over a raw
    // socket so every streamed frame is visible.
    const int fd = connectUnixRaw(options.socketPath);
    ASSERT_GE(fd, 0);

    Json request = Json::object();
    request.set("op", Json::string("batch"));
    request.set("prefix", Json::string(program.prefix));
    Json queries = Json::array();
    queries.push(SliceQuery().toJson());
    Json bad = Json::object();
    bad.set("mode", Json::string("nonsense"));
    queries.push(bad);
    queries.push(SliceQuery().toJson()); // must never be submitted
    request.set("queries", std::move(queries));

    std::string error;
    ASSERT_TRUE(writeFrame(fd, request.dump(), error)) << error;

    std::vector<Json> frames;
    for (;;) {
        std::string payload;
        const FrameRead got = readFrame(fd, payload, error);
        ASSERT_EQ(got, FrameRead::Ok) << error;
        Json frame;
        ASSERT_TRUE(Json::parse(payload, frame, error)) << error;
        const bool is_done = frame.find("op")->asString() == "batch_done";
        frames.push_back(std::move(frame));
        if (is_done)
            break;
    }
    close(fd);

    // id 0 ran; id 1 failed in-band with the parse diagnostic; id 2
    // was cut off by the malformed query ("a half-understood batch
    // must not half-run"); batch_done reports the mixed outcome.
    ASSERT_EQ(frames.size(), 3u); // result 0, result 1, batch_done
    EXPECT_EQ(frames[0].find("status")->asString(), "ok");
    EXPECT_EQ(frames[1].find("status")->asString(), "error");
    EXPECT_NE(frames[1].find("error")->asString().find("nonsense"),
              std::string::npos);
    EXPECT_EQ(frames[2].find("op")->asString(), "batch_done");
    EXPECT_EQ(frames[2].find("status")->asString(), "error");
    EXPECT_EQ(server.scheduler().stats().submitted, 1u);

    server.requestShutdown();
    serving.join();
}

TEST(Server, ClientDisconnectMidBatchAbandonsQueuedJobs)
{
    const SavedProgram program("e2e_gone", /*salt=*/11);

    ServerOptions options;
    options.socketPath = tempPath("e2e_gone.sock");
    options.workers = 1; // Serialize jobs so the tail stays queued.
    Server server(options);
    std::thread serving([&] { server.run(); });

    const uint64_t disconnects_before =
        MetricRegistry::global()
            .counter("service.client_disconnects")
            .value();

    // Five queries on one worker: the first is quick, the rest hold
    // the worker long enough for the disconnect to land while they
    // are queued. Distinct windows keep them from deduping.
    const int fd = connectUnixRaw(options.socketPath);
    ASSERT_GE(fd, 0);
    Json request = Json::object();
    request.set("op", Json::string("batch"));
    request.set("prefix", Json::string(program.prefix));
    Json queries = Json::array();
    for (int i = 0; i < 5; ++i) {
        SliceQuery query;
        query.endIndex = 60 - static_cast<uint64_t>(i);
        query.debugSleepMs = i == 0 ? 0 : 400;
        queries.push(query.toJson());
    }
    request.set("queries", std::move(queries));
    std::string error;
    ASSERT_TRUE(writeFrame(fd, request.dump(), error)) << error;

    // Consume the first result, then vanish mid-batch.
    std::string payload;
    ASSERT_EQ(readFrame(fd, payload, error), FrameRead::Ok) << error;
    close(fd);

    // The dropped connection must cancel the still-queued tail: the
    // running job finishes, but jobs dequeued with no waiters left are
    // abandoned without running their backward pass. Poll rather than
    // drain: Scheduler::drain() lends this thread to the pool, which
    // would run the queued tail before the handler can withdraw it.
    // The handler notices the hangup when the in-flight job's result
    // fails to send; the next dequeue races that, so at most one of
    // the four queued jobs can slip through and run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.scheduler().stats().completed < 5 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto stats = server.scheduler().stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.completed, 5u);
    EXPECT_GE(stats.abandoned, 2u);
    EXPECT_EQ(stats.failed, 0u); // Abandons are not failures.
    EXPECT_GE(MetricRegistry::global()
                  .counter("service.client_disconnects")
                  .value(),
              disconnects_before + 1);

    server.requestShutdown();
    serving.join();
}

TEST(Server, DrainRefusesBatchesButKeepsAnsweringPings)
{
    const SavedProgram program("e2e_drain", /*salt=*/12);

    ServerOptions options;
    options.socketPath = tempPath("e2e_drain.sock");
    options.shardId = "shard-a";
    options.shardEpoch = 7;
    Server server(options);
    std::thread serving([&] { server.run(); });

    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connectUnix(options.socketPath, error)) << error;

    // Before the drain: batches work and results carry the shard
    // identity a fleet client attributes failovers with.
    ServiceClient::BatchOutcome outcome;
    ASSERT_TRUE(client.batch(program.prefix, {SliceQuery()}, outcome,
                             error))
        << error;
    ASSERT_EQ(outcome.ok, 1u);
    EXPECT_EQ(outcome.results[0].shard, "shard-a");
    EXPECT_EQ(outcome.results[0].shardEpoch, 7u);

    // Ping reports draining:false with the shard identity.
    Json ping = Json::object();
    ping.set("op", Json::string("ping"));
    Json pong;
    ASSERT_TRUE(client.call(ping, pong, error)) << error;
    EXPECT_EQ(pong.find("shard")->asString(), "shard-a");
    EXPECT_EQ(pong.find("shard_epoch")->asInt(), 7);
    EXPECT_FALSE(pong.find("draining")->asBool());

    // The drain op acks and flips the flag...
    Json drain = Json::object();
    drain.set("op", Json::string("drain"));
    Json ack;
    ASSERT_TRUE(client.call(drain, ack, error)) << error;
    EXPECT_EQ(ack.find("op")->asString(), "drain_ack");
    EXPECT_TRUE(ack.find("draining")->asBool());
    EXPECT_TRUE(server.draining());

    // ...pings still answer (flagged, so health checks see the state)...
    ASSERT_TRUE(client.call(ping, pong, error)) << error;
    EXPECT_TRUE(pong.find("draining")->asBool());

    // ...but new batches are refused with an error frame naming the
    // drain, and the frame carries "draining": true so a fleet client
    // treats it as a failover rather than a user error.
    ServiceClient refused;
    ASSERT_TRUE(refused.connectUnix(options.socketPath, error)) << error;
    ServiceClient::BatchOutcome ignored;
    EXPECT_FALSE(refused.batch(program.prefix, {SliceQuery()}, ignored,
                               error));
    EXPECT_NE(error.find("draining"), std::string::npos);

    server.requestShutdown();
    serving.join();
}

TEST(Server, WarmOpBuildsTheSessionWithoutSlicing)
{
    const SavedProgram program("e2e_warm", /*salt=*/13);

    ServerOptions options;
    options.socketPath = tempPath("e2e_warm.sock");
    Server server(options);
    std::thread serving([&] { server.run(); });

    ServiceClient client;
    std::string error;
    ASSERT_TRUE(client.connectUnix(options.socketPath, error)) << error;

    Json warm = Json::object();
    warm.set("op", Json::string("warm"));
    warm.set("prefix", Json::string(program.prefix));
    Json ack;
    ASSERT_TRUE(client.call(warm, ack, error)) << error;
    EXPECT_EQ(ack.find("op")->asString(), "warm_ack");

    // The build is asynchronous; drain the worker pool, then the first
    // real query must hit the replicated session.
    server.scheduler().drain();
    EXPECT_EQ(server.cache().stats().built, 1u);

    ServiceClient::BatchOutcome outcome;
    ASSERT_TRUE(client.batch(program.prefix, {SliceQuery()}, outcome,
                             error))
        << error;
    ASSERT_EQ(outcome.ok, 1u);
    EXPECT_TRUE(outcome.results[0].cacheHit);

    // A warm op without a prefix is a request error, not a crash.
    ServiceClient bad;
    ASSERT_TRUE(bad.connectUnix(options.socketPath, error)) << error;
    Json no_prefix = Json::object();
    no_prefix.set("op", Json::string("warm"));
    Json answer;
    ASSERT_TRUE(bad.call(no_prefix, answer, error)) << error;
    EXPECT_EQ(answer.find("status")->asString(), "error");

    server.requestShutdown();
    serving.join();
}

} // namespace
} // namespace service
} // namespace webslice
