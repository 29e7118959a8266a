/**
 * @file
 * Tests of the columnar compressed trace format (v2) and its companions:
 * the LZ block codec, the whole-file readers' transparent v2 decode
 * (the block reader is swept in test_trace_properties.cc), the
 * process-wide decode cache and the whole-file reads that take blocks
 * from it, and — the contract the whole format hangs on — bit-identical
 * slices from v1 and v2 files of the same recording.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "sim/machine.hh"
#include "sim/syscalls.hh"
#include "slicer/slicer.hh"
#include "support/lz.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "trace/columnar.hh"
#include "trace/criteria.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace trace {
namespace {

using sim::Ctx;
using sim::Machine;
using sim::TracedScope;
using sim::Value;

/**
 * A record stream exercising every column: monotone and jumpy deltas,
 * every kind, both flags, real registers and kNoReg.
 */
Record
makeRecord(size_t i)
{
    Record rec;
    rec.pc = static_cast<Pc>(0x1000 + 4 * (i % 1000));
    rec.addr = (i % 7 == 0) ? 0x7fff00000000ull + i * 4096
                            : 0x10000000ull + i;
    rec.aux = static_cast<uint32_t>(i % 9);
    rec.tid = static_cast<ThreadId>(i % 3);
    rec.kind = static_cast<RecordKind>(i % 12);
    rec.flags = static_cast<uint8_t>(i % 4);
    rec.rr0 = (i % 5 == 0) ? kNoReg : static_cast<RegId>(i % 64);
    rec.rr1 = (i % 11 == 0) ? static_cast<RegId>((i + 7) % 64) : kNoReg;
    rec.rr2 = (i % 31 == 0) ? static_cast<RegId>((i + 3) % 64) : kNoReg;
    rec.rw = static_cast<RegId>((i + 1) % 64);
    return rec;
}

void
expectSameRecords(const std::vector<Record> &a, const std::vector<Record> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "record " << i << " differs";
}

uint64_t
counterValue(const char *name)
{
    return MetricRegistry::global().counter(name).value();
}

// ---- LZ codec --------------------------------------------------------------

TEST(LzCodec, RoundTripsVariedPayloads)
{
    std::mt19937_64 prng(7);
    std::vector<std::vector<uint8_t>> payloads;
    payloads.push_back({});                               // empty
    payloads.push_back({0x42});                           // single byte
    payloads.push_back(std::vector<uint8_t>(100000, 0x00)); // one run
    {
        std::vector<uint8_t> repetitive;                  // small period
        for (size_t i = 0; i < 70000; ++i)
            repetitive.push_back(static_cast<uint8_t>(i % 13));
        payloads.push_back(std::move(repetitive));
    }
    {
        std::vector<uint8_t> random_bytes;                // incompressible
        for (size_t i = 0; i < 65536; ++i)
            random_bytes.push_back(static_cast<uint8_t>(prng()));
        payloads.push_back(std::move(random_bytes));
    }
    {
        std::vector<uint8_t> mixed;                       // runs + noise
        for (size_t i = 0; i < 50000; ++i)
            mixed.push_back(prng() % 3 ? 0xAB
                                       : static_cast<uint8_t>(prng()));
        payloads.push_back(std::move(mixed));
    }
    // One match per payload at every offset 1-40 and length 4-300: a
    // random literal run of `offset` bytes, repeated for `length` bytes,
    // then a random tail of 0-40 bytes. Tails under 32 bytes put the
    // match, and short literal runs, in the last 32 bytes of the output,
    // where the decoder's chunked copies must give way to exact ones.
    for (size_t offset = 1; offset <= 40; ++offset) {
        for (size_t length = 4; length <= 300; ++length) {
            std::vector<uint8_t> match;
            for (size_t i = 0; i < offset; ++i)
                match.push_back(static_cast<uint8_t>(prng()));
            for (size_t i = 0; i < length; ++i)
                match.push_back(match[i]);
            const size_t tail = (offset * 7 + length) % 41;
            for (size_t i = 0; i < tail; ++i)
                match.push_back(static_cast<uint8_t>(prng()));
            payloads.push_back(std::move(match));
        }
    }

    for (const auto &payload : payloads) {
        std::vector<uint8_t> compressed;
        lzCompress(payload.data(), payload.size(), compressed);
        // Exactly sized buffers on both sides, so the address sanitizer
        // sees any read or write past either end.
        const std::vector<uint8_t> stream(compressed.begin(),
                                          compressed.end());
        std::vector<uint8_t> decoded(payload.size());
        ASSERT_TRUE(lzDecompress(stream.data(), stream.size(),
                                 decoded.data(), decoded.size()));
        ASSERT_EQ(decoded, payload) << "payload of " << payload.size()
                                    << " bytes";
    }
}

TEST(LzCodec, CompressesRepetitiveInput)
{
    std::vector<uint8_t> payload(1 << 16, 0x5A);
    std::vector<uint8_t> compressed;
    lzCompress(payload.data(), payload.size(), compressed);
    EXPECT_LT(compressed.size(), payload.size() / 16);
}

TEST(LzCodec, RejectsTruncationAndWrongSize)
{
    std::vector<uint8_t> payload;
    for (size_t i = 0; i < 10000; ++i)
        payload.push_back(static_cast<uint8_t>(i % 29));
    std::vector<uint8_t> compressed;
    lzCompress(payload.data(), payload.size(), compressed);

    std::vector<uint8_t> decoded(payload.size());
    // Truncated stream: cannot produce the promised byte count.
    EXPECT_FALSE(lzDecompress(compressed.data(), compressed.size() / 2,
                              decoded.data(), decoded.size()));
    // Empty stream for a non-empty destination.
    EXPECT_FALSE(lzDecompress(compressed.data(), 0, decoded.data(),
                              decoded.size()));
    // Wrong destination size: stream must decode to exactly dst_size.
    std::vector<uint8_t> short_dst(payload.size() - 1);
    EXPECT_FALSE(lzDecompress(compressed.data(), compressed.size(),
                              short_dst.data(), short_dst.size()));

    // Every truncation of a short stream (literal runs, and matches at
    // offsets 1, 8, 16 and 32), each in a buffer of exactly its size.
    std::vector<uint8_t> short_payload;
    for (size_t offset : {1, 8, 16, 32}) {
        for (size_t i = 0; i < offset; ++i)
            short_payload.push_back(static_cast<uint8_t>(i * 37 + offset));
        for (size_t i = 0; i < 40; ++i)
            short_payload.push_back(
                short_payload[short_payload.size() - offset]);
    }
    std::vector<uint8_t> stream;
    lzCompress(short_payload.data(), short_payload.size(), stream);
    std::vector<uint8_t> short_decoded(short_payload.size());
    ASSERT_TRUE(lzDecompress(stream.data(), stream.size(),
                             short_decoded.data(), short_decoded.size()));
    ASSERT_EQ(short_decoded, short_payload);
    for (size_t n = 0; n < stream.size(); ++n) {
        const std::vector<uint8_t> cut(stream.begin(), stream.begin() + n);
        std::vector<uint8_t> out(short_payload.size());
        EXPECT_FALSE(
            lzDecompress(cut.data(), cut.size(), out.data(), out.size()))
            << "truncated to " << n << " of " << stream.size() << " bytes";
    }
}

// ---- v2 write + whole-file load --------------------------------------------

TEST(TraceV2, SniffsBothFormats)
{
    const std::string v1 = tempPath("sniff_v1.trc");
    const std::string v2 = tempPath("sniff_v2.trc");
    saveTrace(v1, {makeRecord(0)}, TraceFormat::V1);
    saveTrace(v2, {makeRecord(0)}, TraceFormat::V2);
    EXPECT_EQ(sniffTraceFormat(v1), TraceFormat::V1);
    EXPECT_EQ(sniffTraceFormat(v2), TraceFormat::V2);
    std::remove(v1.c_str());
    std::remove(v2.c_str());
}

TEST(TraceV2, MultiBlockRoundTrip)
{
    // Spans two full blocks plus a partial third, so both the cross-block
    // delta checkpoints and the short tail block are exercised.
    const std::string path = tempPath("v2_roundtrip.trc");
    std::vector<Record> records;
    const size_t count = 2 * kTraceIndexBlockRecords + 4321;
    for (size_t i = 0; i < count; ++i)
        records.push_back(makeRecord(i));
    saveTrace(path, records, TraceFormat::V2);

    expectSameRecords(records, loadTrace(path));
    std::remove(path.c_str());
}

TEST(TraceV2, EmptyTrace)
{
    const std::string path = tempPath("v2_empty.trc");
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2);
    }
    EXPECT_EQ(sniffTraceFormat(path), TraceFormat::V2);
    EXPECT_TRUE(loadTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceV2, WriterCountsAndCompresses)
{
    const std::string path = tempPath("v2_size.trc");
    std::vector<Record> records;
    for (size_t i = 0; i < kTraceIndexBlockRecords; ++i)
        records.push_back(makeRecord(i));
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2);
        for (const auto &rec : records)
            writer.append(rec);
        EXPECT_EQ(writer.count(), records.size());
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto v2_bytes = static_cast<uint64_t>(in.tellg());
    const uint64_t v1_bytes = 16 + records.size() * sizeof(Record);
    // The synthetic stream is more regular than a real trace, but the 4x
    // CI floor must hold here too.
    EXPECT_LT(v2_bytes * 4, v1_bytes);
    std::remove(path.c_str());
}

TEST(TraceV2, AtomicWriterPublishesOnCloseOnly)
{
    const std::string path = tempPath("v2_atomic.trc");
    std::remove(path.c_str());
    {
        TraceWriter writer(path, /*block_index=*/false, TraceFormat::V2);
        for (size_t i = 0; i < 100; ++i)
            writer.append(makeRecord(i));
        // Not yet renamed into place: the final name must not exist.
        std::ifstream probe(path, std::ios::binary);
        EXPECT_FALSE(probe.good());
        writer.close();
    }
    EXPECT_EQ(loadTrace(path).size(), 100u);
    // No temp file left behind.
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(TraceV1, AtomicWriterWorksToo)
{
    const std::string path = tempPath("v1_atomic.trc");
    std::remove(path.c_str());
    {
        TraceWriter writer(path, /*block_index=*/true, TraceFormat::V1);
        for (size_t i = 0; i < 100; ++i)
            writer.append(makeRecord(i));
        std::ifstream probe(path, std::ios::binary);
        EXPECT_FALSE(probe.good());
    }
    EXPECT_EQ(loadTrace(path).size(), 100u);
    std::remove(path.c_str());
}

// ---- mmap view --------------------------------------------------------------

struct BigV2Trace : ::testing::Test
{
    std::string path = tempPath("v2_big.trc");
    std::vector<Record> records;

    void
    SetUp() override
    {
        const size_t count = kTraceIndexBlockRecords + 4000;
        for (size_t i = 0; i < count; ++i)
            records.push_back(makeRecord(i));
        saveTrace(path, records, TraceFormat::V2);
    }

    void TearDown() override { std::remove(path.c_str()); }
};

TEST_F(BigV2Trace, MappedTraceDecodesTransparently)
{
    MappedTrace mapped(path);
    // v2 cannot be a zero-copy view; the fallback buffer serves instead.
    EXPECT_FALSE(mapped.mapped());
    ASSERT_EQ(mapped.count(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        ASSERT_TRUE(records[i] == mapped[i]) << "record " << i;
}

// ---- decode cache ----------------------------------------------------------

TEST_F(BigV2Trace, DecodeCacheHitsOnRepeatedBlock)
{
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    const auto before = cache.stats();
    const uint64_t decoded_before = counterValue("trace.blocks_decoded");

    const V2TraceFile file(path);
    const auto first = cache.acquire(file, 0);
    const auto again = cache.acquire(file, 0);
    expectSameRecords(*first, *again);

    const auto after = cache.stats();
    EXPECT_GE(after.misses, before.misses + 1); // first decode missed
    EXPECT_GE(after.hits, before.hits + 1);     // second was served hot
    EXPECT_GE(counterValue("trace.blocks_decoded"), decoded_before + 1);
    EXPECT_GT(counterValue("trace.bytes_decoded"), 0u);
}

TEST_F(BigV2Trace, DecodeCacheEvictsUnderTinyBudget)
{
    auto &cache = TraceDecodeCache::global();
    const uint64_t default_budget = cache.budget();
    cache.clear();
    cache.setBudget(sizeof(Record)); // far below one decoded block

    const V2TraceFile file(path);
    const auto evictions_before = cache.stats().evictions;
    const auto block0 = cache.acquire(file, 0);
    (void)cache.acquire(file, 1);
    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, evictions_before);
    // Over-budget eviction keeps only the newest block: the entry being
    // handed out is never evicted from under its caller.
    EXPECT_LE(stats.entries, 1u);

    // Eviction must not corrupt a block handed out before it.
    ASSERT_EQ(block0->size(), kTraceIndexBlockRecords);
    for (size_t i = 0; i < block0->size(); ++i)
        ASSERT_TRUE(records[i] == (*block0)[i]) << "record " << i;

    cache.setBudget(default_budget);
    cache.clear();
}

/** Three blocks: two full ones and a partial third. */
std::vector<Record>
threeBlockRecords()
{
    std::vector<Record> records;
    for (size_t i = 0; i < 2 * kTraceIndexBlockRecords + 4321; ++i)
        records.push_back(makeRecord(i));
    return records;
}

TEST(TraceDecodeOnce, WholeFileReadsTakeCachedBlocks)
{
    const std::string path = tempPath("v2_decode_once.trc");
    const std::vector<Record> records = threeBlockRecords();
    saveTrace(path, records, TraceFormat::V2);
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    {
        // The forward pass decodes each block once and caches it.
        TraceReader reader(path, TraceReader::Direction::Forward);
        Record rec;
        size_t i = 0;
        while (reader.next(rec))
            ASSERT_TRUE(rec == records[i++]) << "record " << i - 1;
        ASSERT_EQ(i, records.size());
    }
    const uint64_t decoded = counterValue("trace.blocks_decoded");
    const uint64_t hits = counterValue("trace.block_cache_hits");

    const MappedTrace mapped(path);
    EXPECT_EQ(counterValue("trace.block_cache_hits"), hits + 3);
    expectSameRecords(records, std::vector<Record>(mapped.records().begin(),
                                                   mapped.records().end()));
    expectSameRecords(records, loadTrace(path));
    EXPECT_EQ(counterValue("trace.block_cache_hits"), hits + 6);
    EXPECT_EQ(counterValue("trace.blocks_decoded"), decoded);
    cache.clear();
    std::remove(path.c_str());
}

TEST(TraceDecodeOnce, ColdWholeFileReadInsertsNothing)
{
    const std::string path = tempPath("v2_cold_read.trc");
    const std::vector<Record> records = threeBlockRecords();
    saveTrace(path, records, TraceFormat::V2);
    auto &cache = TraceDecodeCache::global();
    cache.clear();
    const uint64_t decoded = counterValue("trace.blocks_decoded");
    expectSameRecords(records, loadTrace(path));
    EXPECT_EQ(counterValue("trace.blocks_decoded"), decoded + 3);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    std::remove(path.c_str());
}

TEST(TraceDecodeOnce, CacheKeyFoldsTheMtimeNanosecond)
{
    // Same inode, same size, same mtime second: only the nanosecond
    // differs, as after an in-place rewrite within one second.
    const std::string path = tempPath("v2_stamp.trc");
    saveTrace(path, {makeRecord(0), makeRecord(1)}, TraceFormat::V2);
    const auto key_at = [&](long nanoseconds, struct stat &st) {
        struct timespec times[2] = {};
        times[0].tv_nsec = UTIME_OMIT;
        times[1].tv_sec = 1700000000;
        times[1].tv_nsec = nanoseconds;
        EXPECT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
        EXPECT_EQ(::stat(path.c_str(), &st), 0);
        return V2TraceFile(path).cacheKey();
    };
    struct stat first = {};
    struct stat second = {};
    const uint64_t key_first = key_at(100, first);
    const uint64_t key_second = key_at(200, second);
    ASSERT_EQ(first.st_ino, second.st_ino);
    ASSERT_EQ(first.st_size, second.st_size);
    ASSERT_EQ(first.st_mtim.tv_sec, second.st_mtim.tv_sec);
    ASSERT_NE(first.st_mtim.tv_nsec, second.st_mtim.tv_nsec);
    EXPECT_NE(key_first, key_second);
    std::remove(path.c_str());
}

// ---- corruption is loud ----------------------------------------------------

void
truncateFile(const std::string &path, uint64_t bytes)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> head(bytes);
    in.read(head.data(), static_cast<std::streamsize>(bytes));
    ASSERT_EQ(static_cast<uint64_t>(in.gcount()), bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(head.data(), static_cast<std::streamsize>(bytes));
}

void
flipByteAt(const std::string &path, uint64_t offset)
{
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    io.seekp(static_cast<std::streamoff>(offset));
    io.write(&byte, 1);
}

struct TraceV2Death : BigV2Trace
{
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        BigV2Trace::SetUp();
    }
};

TEST_F(TraceV2Death, TruncatedBelowHeaderIsFatal)
{
    truncateFile(path, sizeof(V2Header) - 4);
    EXPECT_DEATH(loadTrace(path), "too small for a v2 header");
}

TEST_F(TraceV2Death, TruncatedMidPayloadIsFatal)
{
    // The header survives but the index offset now points past EOF.
    truncateFile(path, sizeof(V2Header) + 100);
    EXPECT_DEATH(loadTrace(path), "corrupt trace block index in");
}

TEST_F(TraceV2Death, MissingIndexTailIsFatal)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<uint64_t>(in.tellg());
    in.close();
    truncateFile(path, bytes - sizeof(V2BlockEntry));
    EXPECT_DEATH(loadTrace(path), "corrupt");
}

TEST_F(TraceV2Death, CorruptColumnPayloadIsFatalWithContext)
{
    // Shred the front of block 0's compressed payload; the failure must
    // name the file, the block, and its byte offset.
    for (uint64_t off = 0; off < 16; ++off)
        flipByteAt(path, sizeof(V2Header) + off);
    EXPECT_DEATH(loadTrace(path),
                 "corrupt compressed trace block in .*block 0 at offset");
}

TEST_F(TraceV2Death, CorruptIndexGeometryIsFatal)
{
    // Overwrite the index's blockCount (third u64 of the index header).
    std::ifstream in(path, std::ios::binary);
    V2Header header;
    in.read(reinterpret_cast<char *>(&header), sizeof(header));
    in.close();
    const uint64_t corrupt_count = 999;
    std::fstream io(path,
                    std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(static_cast<std::streamoff>(header.indexOffset + 16));
    io.write(reinterpret_cast<const char *>(&corrupt_count),
             sizeof(corrupt_count));
    io.close();
    EXPECT_DEATH(loadTrace(path), "corrupt trace");
}

// ---- slice bit-identity across formats -------------------------------------

using graph::buildCfgs;
using graph::buildControlDeps;
using slicer::computeSlice;
using slicer::computeSliceFromFile;
using slicer::CriteriaMode;
using slicer::SlicerOptions;

/** Two threads of random traced work with markers and syscalls. */
Machine
randomProgram(uint64_t seed)
{
    Machine machine;
    Rng rng(seed);
    const auto t0 = machine.addThread("a");
    const auto t1 = machine.addThread("b");
    const auto fn_a = machine.registerFunction("fuzz::alpha");
    const auto fn_b = machine.registerFunction("fuzz::beta");
    const uint64_t heap = machine.alloc(256, "heap");
    const uint64_t pixels = machine.alloc(64, "tile");
    const uint64_t net = machine.alloc(32, "net");

    auto program = [&, fn_a, fn_b](Ctx &ctx, uint64_t thread_seed) {
        Rng r(thread_seed);
        TracedScope top(ctx, fn_a);
        std::vector<Value> vals;
        vals.push_back(ctx.imm(r.below(1000)));
        const size_t steps = 40 + r.below(60);
        for (size_t i = 0; i < steps; ++i) {
            auto pick = [&]() -> Value & {
                return vals[r.below(vals.size())];
            };
            switch (r.below(9)) {
              case 0:
                vals.push_back(ctx.imm(r.below(1 << 20)));
                break;
              case 1:
                vals.push_back(ctx.add(pick(), pick()));
                break;
              case 2:
                vals.push_back(
                    ctx.addi(pick(), static_cast<int64_t>(r.below(9))));
                break;
              case 3:
                ctx.store(heap + 8 * r.below(30), 4, pick());
                break;
              case 4:
                vals.push_back(ctx.load(heap + 8 * r.below(30), 4));
                break;
              case 5:
                ctx.store(pixels + 4 * r.below(15), 4, pick());
                break;
              case 6: {
                TracedScope scope(ctx, fn_b);
                Value flag = ctx.imm(r.below(2));
                Value color = ctx.imm(r.below(256));
                if (ctx.branchIf(flag))
                    ctx.store(pixels + 4 * r.below(15), 4, color);
                break;
              }
              case 7:
                if (r.chance(0.5)) {
                    ctx.store(net, 4, pick());
                    (void)sim::sysSendto(ctx, net, 16);
                } else {
                    ctx.machine().mem().write(net, 4, r.next());
                    (void)sim::sysRecvfrom(ctx, net, 16);
                }
                break;
              case 8: {
                const MemRange ranges[] = {{pixels, 64}};
                ctx.marker(ranges);
                break;
              }
            }
            if (vals.size() > 12)
                vals.erase(vals.begin(),
                           vals.begin() +
                               static_cast<long>(vals.size() - 6));
        }
        const MemRange ranges[] = {{pixels, 64}};
        ctx.marker(ranges);
    };
    machine.post(t0, [&](Ctx &ctx) { program(ctx, seed * 2 + 1); });
    machine.post(t1, [&](Ctx &ctx) { program(ctx, seed * 2 + 2); });
    machine.run();
    return machine;
}

TEST(TraceV2Fuzz, SlicesBitIdenticalAcrossFormats)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        const Machine machine = randomProgram(seed);
        const graph::CfgSet cfgs =
            buildCfgs(machine.records(), machine.symtab());
        const graph::ControlDepMap deps = buildControlDeps(cfgs);

        const std::string v1 = tempPath("fuzz_v1.trc");
        const std::string v2 = tempPath("fuzz_v2.trc");
        saveTrace(v1, machine.records(), TraceFormat::V1);
        saveTrace(v2, machine.records(), TraceFormat::V2);
        expectSameRecords(loadTrace(v1), loadTrace(v2));

        for (const auto mode :
             {CriteriaMode::PixelBuffer, CriteriaMode::Syscalls}) {
            SlicerOptions options;
            options.mode = mode;
            const auto oracle =
                computeSlice(machine.records(), cfgs, deps,
                             machine.pixelCriteria(), options);
            for (const std::string &path : {v1, v2}) {
                const auto from_file = computeSliceFromFile(
                    path, cfgs, deps, machine.pixelCriteria(), options);
                EXPECT_EQ(oracle.inSlice, from_file.inSlice)
                    << "seed " << seed << " mode "
                    << static_cast<int>(mode) << " file " << path;
                EXPECT_EQ(oracle.sliceInstructions,
                          from_file.sliceInstructions);
                EXPECT_EQ(oracle.instructionsAnalyzed,
                          from_file.instructionsAnalyzed);
                EXPECT_EQ(oracle.criteriaBytesSeeded,
                          from_file.criteriaBytesSeeded);
            }
        }
        std::remove(v1.c_str());
        std::remove(v2.c_str());
    }
}

} // namespace
} // namespace trace
} // namespace webslice
