/**
 * @file
 * Slicing criteria: (program point, set of variables) pairs.
 *
 * The paper plants a marker instruction in Chromium's
 * RasterBufferProvider::PlaybackToMemory and writes the tile buffer's
 * address and size to an external file each time the function runs. This
 * module is that external file: each Marker record in the trace carries an
 * ordinal, and the criteria set maps ordinals to the memory ranges that are
 * live at that point.
 */

#ifndef WEBSLICE_TRACE_CRITERIA_HH
#define WEBSLICE_TRACE_CRITERIA_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"

namespace webslice {
namespace trace {

/** A contiguous memory range named by a slicing criterion. */
struct MemRange
{
    uint64_t addr = 0;
    uint64_t size = 0;

    bool operator==(const MemRange &) const = default;
};

/**
 * The criteria sidecar: marker ordinal -> memory ranges that must be
 * treated as live when the backward pass reaches that marker.
 */
class CriteriaSet
{
  public:
    /** Associate one more range with a marker ordinal. */
    void add(uint32_t marker, uint64_t addr, uint64_t size);

    /** Ranges for a marker; empty when the marker has none. */
    const std::vector<MemRange> &forMarker(uint32_t marker) const;

    /** Number of distinct marker ordinals with at least one range. */
    size_t markerCount() const { return byMarker_.size(); }

    /**
     * Every range of every marker, in (marker, insertion) order. The
     * static slicer seeds from this union: it cannot know which marker
     * ordinal a marker pc will execute with, so it must treat all
     * criterion bytes as demanded at every marker site.
     */
    std::vector<MemRange> allRanges() const;

    /** Total bytes across all ranges of all markers. */
    uint64_t totalBytes() const;

    /** Write to a text sidecar file ("marker addr size" per line). */
    void save(const std::string &path) const;

    /** Read a sidecar file written by save(); replaces contents. */
    void load(const std::string &path);

  private:
    std::unordered_map<uint32_t, std::vector<MemRange>> byMarker_;
    std::vector<MemRange> empty_;
};

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_CRITERIA_HH
