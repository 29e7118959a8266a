/**
 * @file
 * Concrete values for a recorded trace.
 *
 * The trace records carry dependence structure (registers, addresses,
 * sizes) but not the concrete values that flowed through them. The
 * value log is the companion the verification layer compares against:
 * one 64-bit value per record (the value produced, stored, or observed
 * by that instruction) plus raw byte blobs for records whose effect is
 * a memory range — syscall read/write pseudo-records and the
 * criterion-range snapshot taken at each Marker.
 *
 * It exists only in memory. sim::Machine::enableValueLog captures it
 * while recording, and webslice-check obtains it by re-executing the
 * recording's .scn (scenario/recording.hh) instead of reading it from
 * disk.
 */

#ifndef WEBSLICE_TRACE_VALUE_LOG_HH
#define WEBSLICE_TRACE_VALUE_LOG_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace webslice {
namespace trace {

/** Per-record concrete values plus per-record effect-range byte blobs. */
struct ValueLog
{
    /** Parallel to the record array; 0 for records with no value. */
    std::vector<uint64_t> values;

    /** Record index -> raw bytes (effect ranges, criterion snapshots). */
    std::unordered_map<uint64_t, std::vector<uint8_t>> blobs;

    uint64_t
    valueAt(size_t index) const
    {
        return index < values.size() ? values[index] : 0;
    }

    /** Blob attached to a record, or nullptr. */
    const std::vector<uint8_t> *
    blobAt(size_t index) const
    {
        auto it = blobs.find(index);
        return it == blobs.end() ? nullptr : &it->second;
    }
};

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_VALUE_LOG_HH
