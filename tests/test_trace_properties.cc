/**
 * @file
 * Property tests of the trace-layer data structures against reference
 * models: SparseByteSet vs std::set<uint64_t> under random operation
 * sequences, and the block reader, in both directions over every file
 * shape, against the records written.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "support/rng.hh"
#include "support/sparse_byte_set.hh"
#include "trace/trace_file.hh"
#include "temp_dir.hh"

namespace webslice {
namespace {

// ---- SparseByteSet vs a reference model --------------------------------------

/** One random operation workload over the set. */
struct SetWorkload
{
    uint64_t seed;
    uint64_t window;  ///< Addresses drawn from [0, window).
    uint64_t maxSize; ///< Range sizes drawn from [1, maxSize].
    double farChance; ///< Share of ranges moved to a far region.
    int ops;
};

class SparseSetModelSweep : public ::testing::TestWithParam<SetWorkload>
{
};

TEST_P(SparseSetModelSweep, MatchesReferenceModelUnderRandomOps)
{
    const SetWorkload &w = GetParam();
    Rng rng(w.seed);
    SparseByteSet set;
    std::set<uint64_t> model;
    // Present bytes per 64-byte chunk: the reference chunk count.
    std::map<uint64_t, int> chunks;

    auto add = [&](uint64_t a) {
        if (model.insert(a).second)
            ++chunks[a >> 6];
    };
    auto remove = [&](uint64_t a) {
        if (model.erase(a) == 0)
            return false;
        if (--chunks[a >> 6] == 0)
            chunks.erase(a >> 6);
        return true;
    };

    // Addresses drawn from a small window so collisions are common, with
    // occasional far-away ranges to exercise chunk churn.
    auto randomRange = [&]() {
        uint64_t addr = rng.below(w.window);
        if (rng.chance(w.farChance))
            addr += 0xFFFFF000ull; // chunk-boundary-hostile region
        const uint64_t size = rng.below(w.maxSize) + 1;
        return std::make_pair(addr, size);
    };

    for (int step = 0; step < w.ops; ++step) {
        const auto [addr, size] = randomRange();
        switch (rng.below(4)) {
          case 0: {
            set.insert(addr, size);
            for (uint64_t a = addr; a < addr + size; ++a)
                add(a);
            break;
          }
          case 1: {
            set.erase(addr, size);
            for (uint64_t a = addr; a < addr + size; ++a)
                remove(a);
            break;
          }
          case 2: {
            bool expected = false;
            for (uint64_t a = addr; a < addr + size && !expected; ++a)
                expected = model.count(a) > 0;
            EXPECT_EQ(set.intersects(addr, size), expected)
                << "step " << step;
            break;
          }
          default: {
            bool expected = false;
            for (uint64_t a = addr; a < addr + size; ++a)
                expected |= remove(a);
            EXPECT_EQ(set.testAndErase(addr, size), expected)
                << "step " << step;
            break;
          }
        }
        ASSERT_EQ(set.size(), model.size()) << "step " << step;
        ASSERT_EQ(set.chunkCount(), chunks.size()) << "step " << step;
    }

    // Final sweep: per-byte agreement over the hot window.
    for (uint64_t a = 0; a < w.window + w.maxSize; ++a)
        EXPECT_EQ(set.contains(a), model.count(a) > 0) << "byte " << a;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SparseSetModelSweep,
    ::testing::Values(SetWorkload{1, 512, 70, 0.1, 2000},
                      SetWorkload{2, 512, 70, 0.1, 2000},
                      SetWorkload{3, 512, 70, 0.1, 2000},
                      SetWorkload{4, 512, 70, 0.1, 2000},
                      SetWorkload{5, 512, 70, 0.1, 2000},
                      // A long slicer-like run over a few hot pages.
                      SetWorkload{2024, 4096, 16, 0.0, 30000}));

// ---- block reader sweep ----------------------------------------------------

/** The on-disk shapes the block reader must stream. */
enum class FileShape
{
    V1,       ///< Flat records, no footer.
    V1Footer, ///< Flat records plus the WEBTIDX1 per-block counts.
    V2,       ///< Columnar blocks.
};

using Direction = trace::TraceReader::Direction;
using ReaderCase = std::tuple<Direction, FileShape, size_t>;

/** A record whose every field varies with its index. */
trace::Record
sweepRecord(size_t i)
{
    trace::Record rec;
    rec.pc = static_cast<trace::Pc>(0x1000 + 4 * (i % 1000));
    rec.addr = (i % 7 == 0) ? 0x7fff00000000ull + i * 4096
                            : 0x10000000ull + i;
    rec.aux = static_cast<uint32_t>(i * 2654435761u);
    rec.tid = static_cast<trace::ThreadId>(i % 3);
    rec.kind = static_cast<trace::RecordKind>(i % 12);
    rec.flags = static_cast<uint8_t>(i % 4);
    rec.rr0 = (i % 5 == 0) ? trace::kNoReg
                           : static_cast<trace::RegId>(i % 64);
    rec.rr1 = (i % 11 == 0) ? static_cast<trace::RegId>((i + 7) % 64)
                            : trace::kNoReg;
    rec.rr2 = (i % 31 == 0) ? static_cast<trace::RegId>((i + 3) % 64)
                            : trace::kNoReg;
    rec.rw = static_cast<trace::RegId>((i + 1) % 64);
    return rec;
}

/** "Backward_V1Footer_65537" and the like. */
std::string
readerCaseName(const ::testing::TestParamInfo<ReaderCase> &info)
{
    static const char *const kShapes[] = {"V1", "V1Footer", "V2"};
    const auto [direction, shape, count] = info.param;
    return std::string(direction == Direction::Forward ? "Forward"
                                                       : "Backward") +
           "_" + kShapes[static_cast<int>(shape)] + "_" +
           std::to_string(count);
}

class ReaderSweep : public ::testing::TestWithParam<ReaderCase>
{
};

TEST_P(ReaderSweep, YieldsEveryRecordInOrder)
{
    const auto [direction, shape, count] = GetParam();
    const std::string path =
        tempPath("reader_sweep_") +
        std::to_string(static_cast<int>(direction)) + "_" +
        std::to_string(static_cast<int>(shape)) + "_" +
        std::to_string(count) + ".trc";
    std::vector<trace::Record> records;
    {
        trace::TraceWriter writer(path, shape == FileShape::V1Footer,
                                  shape == FileShape::V2
                                      ? trace::TraceFormat::V2
                                      : trace::TraceFormat::V1);
        for (size_t i = 0; i < count; ++i) {
            records.push_back(sweepRecord(i));
            writer.append(records.back());
        }
    }

    trace::TraceReader reader(path, direction);
    EXPECT_EQ(reader.count(), count);
    EXPECT_EQ(reader.remaining(), count);
    const bool forward = direction == Direction::Forward;
    trace::Record rec;
    size_t yielded = 0;
    while (reader.next(rec)) {
        ASSERT_LT(yielded, count);
        const size_t i = forward ? yielded : count - 1 - yielded;
        const trace::Record &want = records[i];
        ASSERT_TRUE(rec == want) << "record " << i << " differs";
        ++yielded;
        ASSERT_EQ(reader.remaining(), count - yielded);
    }
    EXPECT_EQ(yielded, count);
    EXPECT_FALSE(reader.next(rec)); // stays exhausted
    std::remove(path.c_str());
}

// Around the 65,536-record block grid both formats read by.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ReaderSweep,
    ::testing::Combine(
        ::testing::Values(Direction::Forward, Direction::Backward),
        ::testing::Values(FileShape::V1, FileShape::V1Footer,
                          FileShape::V2),
        ::testing::Values<size_t>(0, 1, 5, 65535, 65536, 65537,
                                  2 * 65536 + 4321)),
    readerCaseName);

// ---- RNG statistical sanity --------------------------------------------------------

TEST(RngDistribution, BelowIsRoughlyUniform)
{
    Rng rng(31337);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[rng.below(kBuckets)];
    for (int b = 0; b < kBuckets; ++b) {
        EXPECT_GT(counts[b], kDraws / kBuckets - kDraws / 40);
        EXPECT_LT(counts[b], kDraws / kBuckets + kDraws / 40);
    }
}

} // namespace
} // namespace webslice
