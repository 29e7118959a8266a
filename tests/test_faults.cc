/**
 * @file
 * Fault-injection tests for artifact ingestion, plus metrics-report
 * schema tests.
 *
 * Every loader must fail loudly — with the file name and the offending
 * offset or line — on truncated, corrupted, or trailing-garbage inputs,
 * and must never hand a partial artifact to the pipeline. The loaders
 * exit via fatal() (status 1), so the corruption cases are death tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/metrics.hh"
#include "support/stopwatch.hh"
#include "trace/criteria.hh"
#include "trace/symtab.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace {

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A small, valid trace file on disk; tests corrupt copies of it. */
class TraceFaults : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tempPath("faults.trc");
        std::vector<trace::Record> records(5);
        for (size_t i = 0; i < records.size(); ++i)
            records[i].pc = 0x1000 + i;
        trace::saveTrace(path_, records);
        bytes_ = readBytes(path_);
        ASSERT_EQ(bytes_.size(), 16 + 5 * sizeof(trace::Record));
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Write a corrupted variant and return its path. */
    std::string
    corrupt(const std::string &stem, const std::string &bytes)
    {
        const std::string path = tempPath(stem);
        writeBytes(path, bytes);
        return path;
    }

    std::string path_;
    std::string bytes_;
};

TEST_F(TraceFaults, MissingFileIsFatal)
{
    EXPECT_EXIT(trace::loadTrace(tempPath("no-such.trc")),
                ::testing::ExitedWithCode(1), "no-such.trc");
}

TEST_F(TraceFaults, FileSmallerThanHeaderIsFatal)
{
    const auto path = corrupt("tiny.trc", bytes_.substr(0, 7));
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1),
                "too small for a header");
}

TEST_F(TraceFaults, BadMagicIsFatal)
{
    std::string bytes = bytes_;
    bytes[0] = 'X';
    const auto path = corrupt("magic.trc", bytes);
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1),
                "bad trace magic");
}

TEST_F(TraceFaults, AlignedTruncationIsFatal)
{
    // Drop the last record: header still claims 5.
    const auto path = corrupt(
        "trunc.trc", bytes_.substr(0, bytes_.size() - sizeof(trace::Record)));
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1),
                "truncated trace file.*header claims 5");
}

TEST_F(TraceFaults, MisalignedTruncationIsFatal)
{
    // Tear mid-record: not even a whole number of records remains.
    const auto path = corrupt("torn.trc", bytes_.substr(0, bytes_.size() - 9));
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1),
                "misaligned trace payload.*stray bytes");
}

TEST_F(TraceFaults, TrailingGarbageIsFatal)
{
    const auto path = corrupt(
        "garbage.trc", bytes_ + std::string(sizeof(trace::Record), '\xee'));
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1),
                "trailing garbage in trace file");
}

/** Every read entry point must reject `path` with exit 1 and `diag`. */
void
expectEveryEntryPointRejects(const std::string &path, const std::string &diag)
{
    using Direction = trace::TraceReader::Direction;
    EXPECT_EXIT(trace::loadTrace(path), ::testing::ExitedWithCode(1), diag);
    EXPECT_EXIT(trace::MappedTrace mapped(path),
                ::testing::ExitedWithCode(1), diag);
    EXPECT_EXIT(trace::TraceReader reader(path, Direction::Forward),
                ::testing::ExitedWithCode(1), diag);
    EXPECT_EXIT(trace::TraceReader reader(path, Direction::Backward),
                ::testing::ExitedWithCode(1), diag);
}

TEST_F(TraceFaults, EveryEntryPointValidates)
{
    // The same corrupt file must be rejected by every access path, not
    // just loadTrace.
    const auto path = corrupt(
        "all.trc", bytes_.substr(0, bytes_.size() - sizeof(trace::Record)));
    expectEveryEntryPointRejects(path, "truncated trace file");
}

TEST_F(TraceFaults, CorruptFooterIsFatal)
{
    // A WEBTIDX1 footer must match the trace's geometry exactly: one
    // 8-byte entry per 65,536-record block, here one block.
    const auto footer = [](uint64_t blocks, size_t entries) {
        std::string bytes("WEBTIDX1", 8);
        const uint64_t head[] = {65536, blocks};
        bytes.append(reinterpret_cast<const char *>(head), sizeof(head));
        return bytes + std::string(8 * entries, '\0');
    };
    expectEveryEntryPointRejects(corrupt("blocks.trc", bytes_ + footer(2, 2)),
                                 "footer claims 2 blocks");
    expectEveryEntryPointRejects(corrupt("size.trc", bytes_ + footer(1, 2)),
                                 "footer occupies 40 bytes, expected 32");
}

TEST_F(TraceFaults, V1RecordCountCannotWrapTheSizeCheck)
{
    // A header plus one record, claiming 2^59 + 1 records: 32 times the
    // claim wraps to 32 bytes, exactly the payload present.
    std::string bytes = bytes_.substr(0, 16 + sizeof(trace::Record));
    const uint64_t claim = (1ull << 59) + 1;
    bytes.replace(8, sizeof(claim),
                  reinterpret_cast<const char *>(&claim), sizeof(claim));
    const auto path = corrupt("wrap_v1.trc", bytes);
    expectEveryEntryPointRejects(path,
                                 "truncated trace file .*wrap_v1.trc");
}

TEST(TraceFaultsV2, BlockCountCannotWrapTheSizeCheck)
{
    // A v2 header and an empty index claiming 2^61 blocks of one record
    // each: 56 bytes per index entry times 2^61 wraps to 0, exactly the
    // entry bytes present.
    const auto path = tempPath("wrap_v2.trc");
    const uint64_t huge = 1ull << 61;
    std::string bytes("WEBTRC2\0", 8);
    const uint64_t header[] = {huge, 24}; // recordCount, indexOffset
    const uint64_t index[] = {1, huge};   // blockRecords, blockCount
    bytes.append(reinterpret_cast<const char *>(header), sizeof(header));
    bytes.append("WEBTIDX2", 8);
    bytes.append(reinterpret_cast<const char *>(index), sizeof(index));
    writeBytes(path, bytes);
    expectEveryEntryPointRejects(path, "corrupt trace file .*wrap_v2.trc");
    std::remove(path.c_str());
}

TEST_F(TraceFaults, IntactFileStillLoads)
{
    const auto records = trace::loadTrace(path_);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[4].pc, 0x1004u);
}

TEST(CriteriaFaults, EmptyFileIsFatal)
{
    const auto path = tempPath("empty.crit");
    writeBytes(path, "");
    trace::CriteriaSet criteria;
    EXPECT_EXIT(criteria.load(path), ::testing::ExitedWithCode(1),
                "empty criteria file");
    std::remove(path.c_str());
}

TEST(CriteriaFaults, BadHeaderIsFatal)
{
    const auto path = tempPath("hdr.crit");
    writeBytes(path, "webcrit 2\n");
    trace::CriteriaSet criteria;
    EXPECT_EXIT(criteria.load(path), ::testing::ExitedWithCode(1),
                "bad criteria header in .* line 1");
    std::remove(path.c_str());
}

TEST(CriteriaFaults, GarbageMidFileIsFatalWithLineNumber)
{
    // A malformed line mid-file must not read as EOF: slicing with a
    // partial criteria set would yield a plausible but wrong slice.
    const auto path = tempPath("mid.crit");
    writeBytes(path, "webcrit 1\n0 4096 64\nbogus line\n1 8192 64\n");
    trace::CriteriaSet criteria;
    EXPECT_EXIT(criteria.load(path), ::testing::ExitedWithCode(1),
                "malformed criteria entry in .* line 3");
    std::remove(path.c_str());
}

TEST(CriteriaFaults, TrailingTokensAreFatal)
{
    const auto path = tempPath("extra.crit");
    writeBytes(path, "webcrit 1\n0 4096 64 surprise\n");
    trace::CriteriaSet criteria;
    EXPECT_EXIT(criteria.load(path), ::testing::ExitedWithCode(1),
                "trailing garbage in .* line 2");
    std::remove(path.c_str());
}

TEST(CriteriaFaults, ValidRoundTrip)
{
    const auto path = tempPath("ok.crit");
    trace::CriteriaSet criteria;
    criteria.add(0, 4096, 64);
    criteria.add(3, 8192, 128);
    criteria.save(path);
    trace::CriteriaSet loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.totalBytes(), 192u);
    ASSERT_EQ(loaded.forMarker(3).size(), 1u);
    EXPECT_EQ(loaded.forMarker(3)[0].addr, 8192u);
    std::remove(path.c_str());
}

TEST(SymtabFaults, EmptyFileIsFatal)
{
    const auto path = tempPath("empty.sym");
    writeBytes(path, "");
    trace::SymbolTable symtab;
    EXPECT_EXIT(symtab.load(path), ::testing::ExitedWithCode(1),
                "empty symbol table");
    std::remove(path.c_str());
}

TEST(SymtabFaults, TruncatedFunctionListIsFatal)
{
    // Claims 3 functions but stores 1.
    const auto path = tempPath("trunc.sym");
    writeBytes(path, "websym 1\n3\n0 4096 main\n");
    trace::SymbolTable symtab;
    EXPECT_EXIT(symtab.load(path), ::testing::ExitedWithCode(1),
                "expected 3 functions, got 1");
    std::remove(path.c_str());
}

TEST(SymtabFaults, MalformedSymbolLineIsFatal)
{
    const auto path = tempPath("mal.sym");
    writeBytes(path, "websym 1\n1\nnot-a-number 4096 main\n0\n");
    trace::SymbolTable symtab;
    EXPECT_EXIT(symtab.load(path), ::testing::ExitedWithCode(1),
                "malformed symbol entry in .* line 3");
    std::remove(path.c_str());
}

TEST(SymtabFaults, MissingPcOwnerCountIsFatal)
{
    const auto path = tempPath("nopc.sym");
    writeBytes(path, "websym 1\n1\n0 4096 main\n");
    trace::SymbolTable symtab;
    EXPECT_EXIT(symtab.load(path), ::testing::ExitedWithCode(1),
                "missing pc-owner count");
    std::remove(path.c_str());
}

TEST(SymtabFaults, TrailingGarbageIsFatal)
{
    const auto path = tempPath("trail.sym");
    writeBytes(path, "websym 1\n1\n0 4096 main\n1\n4096 0\nleftover\n");
    trace::SymbolTable symtab;
    EXPECT_EXIT(symtab.load(path), ::testing::ExitedWithCode(1),
                "trailing garbage in .* line 6");
    std::remove(path.c_str());
}

TEST(SymtabFaults, ValidRoundTripWithSpacedNames)
{
    const auto path = tempPath("ok.sym");
    trace::SymbolTable symtab;
    const auto f0 = symtab.addFunction(4096, "operator new(unsigned long)");
    symtab.addFunction(8192, "plain");
    symtab.assignPc(4100, f0);
    symtab.save(path);
    trace::SymbolTable loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.symbol(f0).name, "operator new(unsigned long)");
    EXPECT_EQ(loaded.functionOfPc(4100), f0);
    std::remove(path.c_str());
}

TEST(Metrics, CountersAndGaugesRoundTrip)
{
    MetricRegistry registry;
    registry.counter("a.count").add(3);
    registry.counter("a.count").add(4);
    registry.gauge("b.peak").setMax(10);
    registry.gauge("b.peak").setMax(7); // lower sample must not win
    EXPECT_EQ(registry.counter("a.count").value(), 7u);
    EXPECT_EQ(registry.gauge("b.peak").value(), 10u);

    registry.reset();
    EXPECT_EQ(registry.counter("a.count").value(), 0u);
}

TEST(Metrics, ScopedPhaseRecordsSpan)
{
    MetricRegistry registry;
    {
        ScopedPhase phase("unit-test", &registry);
    }
    const auto spans = registry.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "unit-test");
    EXPECT_GE(spans[0].wallSeconds, 0.0);
}

TEST(Metrics, ReportJsonSchema)
{
    MetricRegistry registry;
    registry.counter("x.records").add(42);
    registry.gauge("x.peak").setMax(99);
    registry.addSpan(PhaseSpan{"load", 0.5, 1 << 20});
    registry.addSpan(PhaseSpan{"backward", 1.25, 2 << 20});

    const std::string json = metricsReportJson(
        registry, "unit-test", {{"extra", "{\"k\": 1}"}});

    EXPECT_NE(json.find("\"schema\": \"webslice-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"unit-test\""), std::string::npos);
    EXPECT_NE(json.find("\"x.records\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"x.peak\": 99"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"load\""), std::string::npos);
    EXPECT_NE(json.find("\"extra\": {\"k\": 1}"), std::string::npos);
    // Spans keep insertion order (pipeline order, not alphabetical).
    EXPECT_LT(json.find("\"name\": \"load\""),
              json.find("\"name\": \"backward\""));
}

TEST(Metrics, ReportJsonWritesAndReloads)
{
    const auto path = tempPath("report.json");
    MetricRegistry registry;
    registry.counter("y.total").add(5);
    writeMetricsReport(path, registry, "writer-test");
    const std::string loaded = readBytes(path);
    EXPECT_EQ(loaded, metricsReportJson(registry, "writer-test"));
    std::remove(path.c_str());
}

TEST(Metrics, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Metrics, DigestFile)
{
    const auto path = tempPath("digest.bin");
    writeBytes(path, "a");
    const FileDigest digest = digestFile(path);
    EXPECT_TRUE(digest.ok);
    EXPECT_EQ(digest.bytes, 1u);
    // FNV-1a-64 of "a" is a published reference value.
    EXPECT_EQ(digest.fnv1a, 0xaf63dc4c8601ec8cull);
    std::remove(path.c_str());

    const FileDigest missing = digestFile(tempPath("no-such.bin"));
    EXPECT_FALSE(missing.ok);
}

} // namespace
} // namespace webslice
