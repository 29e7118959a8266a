/**
 * @file
 * Property tests of the trace-layer data structures against reference
 * models: SparseByteSet vs std::set<uint64_t> under random operation
 * sequences, and the reverse block reader across a block-size sweep.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "support/rng.hh"
#include "support/sparse_byte_set.hh"
#include "trace/trace_file.hh"

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

// ---- reverse reader sweep -------------------------------------------------------

class ReverseReaderSweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(ReverseReaderSweep, YieldsExactReverseOrder)
{
    const auto [record_count, block_size] = GetParam();
    const std::string path = std::string(::testing::TempDir()) +
                             "sweep_" + std::to_string(record_count) +
                             "_" + std::to_string(block_size) + ".trc";

    std::vector<trace::Record> records(record_count);
    for (size_t i = 0; i < record_count; ++i) {
        records[i].pc = static_cast<trace::Pc>(i * 4 + 0x1000);
        records[i].addr = i * 13;
    }
    trace::saveTrace(path, records);

    trace::ReverseTraceReader reader(path, block_size);
    trace::Record rec;
    size_t expected = record_count;
    while (reader.next(rec)) {
        ASSERT_GT(expected, 0u);
        --expected;
        ASSERT_EQ(rec.pc, records[expected].pc);
        ASSERT_EQ(rec.addr, records[expected].addr);
    }
    EXPECT_EQ(expected, 0u);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReverseReaderSweep,
    ::testing::Values(std::make_pair<size_t, size_t>(0, 16),
                      std::make_pair<size_t, size_t>(1, 1),
                      std::make_pair<size_t, size_t>(5, 16),
                      std::make_pair<size_t, size_t>(16, 16),
                      std::make_pair<size_t, size_t>(17, 16),
                      std::make_pair<size_t, size_t>(1000, 7),
                      std::make_pair<size_t, size_t>(1000, 1024),
                      std::make_pair<size_t, size_t>(4096, 4096)));

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
