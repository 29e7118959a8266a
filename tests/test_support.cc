/**
 * @file
 * Unit tests for the support layer: strings, sparse byte set, stats,
 * tables, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "support/rng.hh"
#include "support/sparse_byte_set.hh"
#include "support/stats.hh"
#include "support/strings.hh"
#include "support/table.hh"

namespace webslice {
namespace {

// ---- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField)
{
    const auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("v8::Parser", "v8"));
    EXPECT_FALSE(startsWith("v", "v8"));
    EXPECT_TRUE(endsWith("foo.cc", ".cc"));
    EXPECT_FALSE(endsWith("cc", "foo.cc"));
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, TopNamespace)
{
    EXPECT_EQ(topNamespace("v8::Parser::parse"), "v8");
    EXPECT_EQ(topNamespace("plainFunction"), "");
    EXPECT_EQ(topNamespace("cc::TileManager"), "cc");
}

TEST(Strings, NamespacePath)
{
    EXPECT_EQ(namespacePath("base::threading::Mutex::lock", 2),
              "base::threading");
    EXPECT_EQ(namespacePath("a::f", 2), "a");
    EXPECT_EQ(namespacePath("f", 1), "");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(format("%.1f%%", 45.04), "45.0%");
}

TEST(Strings, HumanBytes)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(955ull * 1024), "955 KB");
    EXPECT_EQ(humanBytes(1638ull * 1024), "1.6 MB");
}

TEST(Strings, HumanMillionsAndCommas)
{
    EXPECT_EQ(withCommas(6217000000ull), "6,217,000,000");
    EXPECT_EQ(humanMillions(6217000000ull), "6,217 M");
    EXPECT_EQ(humanMillions(500000ull), "500 K");
}

TEST(Strings, ParseCountAcceptsDecimalUpToMax)
{
    EXPECT_EQ(parseCount("--jobs", "0", 10), 0u);
    EXPECT_EQ(parseCount("--jobs", "10", 10), 10u);
    EXPECT_EQ(parseCount("--seed", "007", 100), 7u);
    EXPECT_EQ(parseCount("--seed", "18446744073709551615", UINT64_MAX),
              UINT64_MAX);
}

TEST(StringsDeathTest, ParseCountRejectsEverythingElse)
{
    // Every rejection exits 1 with a message naming the flag.
    const auto rejects = [](const char *text, uint64_t max_value,
                            const char *message) {
        EXPECT_EXIT(parseCount("--seed", text, max_value),
                    ::testing::ExitedWithCode(1), message)
            << "'" << text << "'";
    };
    rejects("", 10, "empty value for --seed");
    rejects("-1", 10, "negative value for --seed");
    rejects("abc", 10, "non-numeric value for --seed");
    rejects(" 5", 10, "non-numeric value for --seed");
    rejects("+5", 10, "non-numeric value for --seed");
    rejects("0x10", 100, "non-numeric value for --seed");
    rejects("12abc", 100, "non-numeric value for --seed");
    rejects("11", 10, "value for --seed out of range");
    rejects("18446744073709551616", UINT64_MAX,  // ERANGE
            "value for --seed out of range");
}

TEST(Strings, TryParseCountReportsWhatParseCountExitsOn)
{
    uint64_t value = 42;
    std::string error;
    EXPECT_TRUE(tryParseCount("end=", "007", 100, value, error));
    EXPECT_EQ(value, 7u);
    EXPECT_TRUE(error.empty());

    // The inputs ParseCountRejectsEverythingElse exits on: false, the
    // same message, and the value left alone.
    const auto rejects = [](const char *text, uint64_t max_value,
                            const char *message) {
        uint64_t untouched = 42;
        std::string why;
        EXPECT_FALSE(tryParseCount("end=", text, max_value, untouched, why))
            << "'" << text << "'";
        EXPECT_NE(why.find(message), std::string::npos)
            << "'" << text << "': " << why;
        EXPECT_EQ(untouched, 42u) << "'" << text << "'";
    };
    rejects("", 10, "empty value for end=");
    rejects("-1", 10, "negative value for end=");
    rejects("abc", 10, "non-numeric value for end=");
    rejects(" 5", 10, "non-numeric value for end=");
    rejects("+5", 10, "non-numeric value for end=");
    rejects("0x10", 100, "non-numeric value for end=");
    rejects("12abc", 100, "non-numeric value for end=");
    rejects("11", 10, "value for end= out of range");
    rejects("18446744073709551616", UINT64_MAX,  // ERANGE
            "value for end= out of range");
}

// ---- sparse byte set -------------------------------------------------------
//
// tests/test_trace_properties.cc checks the set against a std::set model
// under random operations; these pin down the edge cases by hand.

TEST(SparseByteSet, InsertContains)
{
    SparseByteSet set;
    EXPECT_TRUE(set.empty());
    set.insert(100, 4);
    EXPECT_EQ(set.size(), 4u);
    EXPECT_TRUE(set.contains(100));
    EXPECT_TRUE(set.contains(103));
    EXPECT_FALSE(set.contains(104));
    EXPECT_FALSE(set.contains(99));
}

TEST(SparseByteSet, InsertIsIdempotent)
{
    SparseByteSet set;
    set.insert(10, 8);
    set.insert(12, 4);
    EXPECT_EQ(set.size(), 8u);
}

TEST(SparseByteSet, EraseRange)
{
    SparseByteSet set;
    set.insert(0, 128);
    set.erase(32, 64);
    EXPECT_EQ(set.size(), 64u);
    EXPECT_TRUE(set.contains(31));
    EXPECT_FALSE(set.contains(32));
    EXPECT_FALSE(set.contains(95));
    EXPECT_TRUE(set.contains(96));
}

TEST(SparseByteSet, IntersectsAcrossChunkBoundary)
{
    SparseByteSet set;
    set.insert(63, 2); // bytes 63 and 64 straddle a chunk boundary
    EXPECT_TRUE(set.intersects(64, 1));
    EXPECT_TRUE(set.intersects(0, 64));
    EXPECT_FALSE(set.intersects(65, 100));
}

TEST(SparseByteSet, TestAndErase)
{
    SparseByteSet set;
    set.insert(200, 8);
    EXPECT_TRUE(set.testAndErase(204, 8));
    EXPECT_EQ(set.size(), 4u);
    EXPECT_FALSE(set.testAndErase(204, 8));
    EXPECT_TRUE(set.contains(203));
}

TEST(SparseByteSet, ChunksFreedOnErase)
{
    SparseByteSet set;
    set.insert(0, 64);
    EXPECT_EQ(set.chunkCount(), 1u);
    set.erase(0, 64);
    EXPECT_EQ(set.chunkCount(), 0u);
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, LargeRangeSpanningManyChunks)
{
    SparseByteSet set;
    set.insert(1000, 1000);
    EXPECT_EQ(set.size(), 1000u);
    EXPECT_TRUE(set.intersects(1999, 1));
    EXPECT_FALSE(set.intersects(2000, 1));
    set.erase(1000, 1000);
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, HighAddresses)
{
    SparseByteSet set;
    const uint64_t high = 0xFFFFFFFF00000000ull;
    set.insert(high, 16);
    EXPECT_TRUE(set.contains(high + 15));
    EXPECT_FALSE(set.contains(high + 16));
}

TEST(SparseByteSet, AlignedFullChunkUsesFullMask)
{
    // A 64-byte aligned span covers a whole chunk in one (base, ~0)
    // piece — the mask-building shortcut must still mean "all 64 bytes".
    SparseByteSet set;
    set.insert(128, 64);
    EXPECT_EQ(set.size(), 64u);
    EXPECT_EQ(set.chunkCount(), 1u);
    EXPECT_TRUE(set.contains(128));
    EXPECT_TRUE(set.contains(191));
    EXPECT_FALSE(set.contains(127));
    EXPECT_FALSE(set.contains(192));
    EXPECT_TRUE(set.testAndErase(128, 64));
    EXPECT_TRUE(set.empty());
}

TEST(SparseByteSet, CacheSurvivesEraseOfOtherChunk)
{
    // Regression guard for the one-entry chunk cache: erasing one chunk
    // can move *other* entries in an open-addressing interior, so a
    // cached pointer must not be trusted across it.
    SparseByteSet set;
    set.insert(0, 8);      // chunk 0 (cached)
    set.insert(640, 8);    // chunk 10
    set.insert(1280, 8);   // chunk 20
    set.erase(640, 8);     // frees chunk 10, may shift the others
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.contains(1287));
    EXPECT_FALSE(set.contains(640));
    set.insert(4, 8); // touches cached chunk 0 again
    EXPECT_EQ(set.size(), 8u + 8u + 4u);
}

TEST(SparseByteSet, ManyChunksSurviveRehash)
{
    // Enough distinct chunks to force several interior growths; every
    // byte must remain reachable and the population exact.
    SparseByteSet set;
    constexpr uint64_t kChunks = 3000;
    for (uint64_t c = 0; c < kChunks; ++c)
        set.insert(c * 64 + (c % 32), 2);
    EXPECT_EQ(set.size(), kChunks * 2);
    EXPECT_EQ(set.chunkCount(), kChunks);
    for (uint64_t c = 0; c < kChunks; ++c) {
        EXPECT_TRUE(set.contains(c * 64 + (c % 32)));
        EXPECT_TRUE(set.contains(c * 64 + (c % 32) + 1));
    }
    for (uint64_t c = 0; c < kChunks; c += 2)
        set.erase(c * 64 + (c % 32), 2);
    EXPECT_EQ(set.size(), kChunks);
    EXPECT_EQ(set.chunkCount(), kChunks / 2);
}

TEST(SparseByteSet, ClearResetsEverything)
{
    SparseByteSet set;
    set.insert(10, 100);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.chunkCount(), 0u);
    EXPECT_FALSE(set.intersects(0, 200));
    set.insert(10, 4); // usable after clear
    EXPECT_EQ(set.size(), 4u);
}

// ---- stats -----------------------------------------------------------------

TEST(CounterSet, Accumulates)
{
    CounterSet counters;
    counters.add("a");
    counters.add("a", 4);
    counters.add("b", 2);
    EXPECT_EQ(counters.get("a"), 5u);
    EXPECT_EQ(counters.get("b"), 2u);
    EXPECT_EQ(counters.get("missing"), 0u);
    EXPECT_EQ(counters.total(), 7u);
}

TEST(TimeSeries, BucketsByPosition)
{
    TimeSeries series(10);
    series.add(0, 1.0);
    series.add(9, 2.0);
    series.add(10, 5.0);
    EXPECT_EQ(series.bucketCount(), 2u);
    EXPECT_DOUBLE_EQ(series.sum(0), 3.0);
    EXPECT_DOUBLE_EQ(series.sum(1), 5.0);
    EXPECT_EQ(series.count(0), 2u);
    EXPECT_DOUBLE_EQ(series.mean(0), 1.5);
    EXPECT_DOUBLE_EQ(series.sum(7), 0.0);
}

TEST(Summary, TracksMinMaxMean)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    s.add(2.0);
    s.add(6.0);
    s.add(4.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

// ---- table -----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table;
    table.setHeader({"Thread", "Slice"});
    table.addRow({"Main", "52%"});
    table.addRow({"Compositor", "34%"});
    std::ostringstream os;
    table.render(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("Thread"), std::string::npos);
    EXPECT_NE(text.find("Compositor  34%"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"only"});
    std::ostringstream os;
    table.render(os);
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 0);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_EQ(rng.range(9, 9), 9);
    EXPECT_EQ(rng.range(9, 2), 9);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

} // namespace
} // namespace webslice
