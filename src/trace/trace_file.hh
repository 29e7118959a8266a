/**
 * @file
 * Binary trace file I/O.
 *
 * A trace file is a small header followed by densely packed 32-byte
 * Records. Four access paths are provided:
 *  - TraceWriter: append records while the traced program runs, then
 *    publish the file atomically (temp file, fsync, rename) on close —
 *    the only way this library writes a .trc;
 *  - loadTrace(): read an entire trace into memory (the common case for
 *    our benchmark-sized traces);
 *  - MappedTrace: zero-copy mmap view of a whole trace — the records are
 *    paged in on demand and never copied, so loadTrace-sized traces can
 *    be profiled without doubling their footprint;
 *  - TraceReader: stream records one block at a time, front to back or
 *    back to front, so the profiler passes can run in O(live set)
 *    memory on traces too large to hold in RAM. A background thread
 *    reads the next block into a second buffer while the caller
 *    consumes the current one.
 *
 * Two on-disk formats share these access paths. v1 ("WEBTRC1") is the
 * flat 32-byte record array with an optional WEBTIDX1 footer of
 * per-block record counts. v2 ("WEBTRC2", trace/columnar.hh) stores the
 * same records as delta+varint column blocks, LZ-compressed, with
 * per-block decoder checkpoints folded into a mandatory block index so
 * a reader can seek to any block and decode only it. Every reader here
 * sniffs the magic and decodes transparently; TraceWriter picks the
 * format at construction (v1 stays the default).
 */

#ifndef WEBSLICE_TRACE_TRACE_FILE_HH
#define WEBSLICE_TRACE_TRACE_FILE_HH

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "trace/record.hh"

namespace webslice {
namespace trace {

class V2WriterBackend;

/** The two on-disk trace formats. */
enum class TraceFormat : uint8_t
{
    V1 = 1, ///< Flat record array (+ optional WEBTIDX1 footer).
    V2 = 2, ///< Columnar compressed blocks with checkpointed index.
};

/**
 * Identify a trace file's format from its magic; fatal (with the path)
 * when the file is unreadable or carries neither trace magic.
 */
TraceFormat sniffTraceFormat(const std::string &path);

/** On-disk header preceding the record array. */
struct TraceHeader
{
    char magic[8] = {'W', 'E', 'B', 'T', 'R', 'C', '1', '\0'};
    uint64_t recordCount = 0;
};

static_assert(sizeof(TraceHeader) == 16, "header layout must stay fixed");

/** Records per block of the v1 read grid and of its WEBTIDX1 footer. */
constexpr size_t kTraceIndexBlockRecords = 1 << 16;

/**
 * Buffered appender of trace records to a file.
 *
 * Publication is always atomic: records go to <path>.tmp, and close()
 * fsyncs it and renames it over <path>. A crash mid-record therefore
 * never leaves a truncated file under the final name, and every
 * (re)publication of a trace is a new inode, which is what lets the
 * service's session cache trust a matching stat() of a .trc it has
 * already hashed (service/session_cache.hh). Anything that replaces a
 * .trc by other means must keep that contract: write a new file and
 * rename it into place, never rewrite the old one.
 */
class TraceWriter
{
  public:
    /**
     * @param block_index also accumulate and write the per-block work
     *                    index as a footer on close() (v1 only; the v2
     *                    index is structural and always written)
     * @param format      on-disk format; v1 stays the default so every
     *                    existing consumer keeps reading its traces
     * @param atomic      ignored (every writer publishes atomically);
     *                    accepted for callers that still pass it
     */
    explicit TraceWriter(const std::string &path, bool block_index = false,
                         TraceFormat format = TraceFormat::V1,
                         bool atomic = true);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const Record &rec);

    /** Records appended so far. */
    uint64_t count() const { return count_; }

    /** Flush buffers and patch the header; called by the destructor too. */
    void close();

  private:
    void flush();

    /** Flush, fsync, close, and rename into place. */
    void finishFile();

    std::string path_;      ///< The temp file being written.
    std::string finalPath_; ///< Rename target.
    std::FILE *file_ = nullptr;
    std::vector<Record> buffer_;
    uint64_t count_ = 0;
    bool writeIndex_ = false;
    // WEBTIDX1 footer counts, one slot per block (block_index only).
    std::vector<uint32_t> blockInstructions_;
    std::vector<uint32_t> blockPseudoRecords_;
    std::unique_ptr<V2WriterBackend> v2_;
};

/**
 * Read a whole trace file into memory. v2 blocks that the decode cache
 * (trace/columnar.hh) holds are copied from it; the rest are decoded
 * without being inserted.
 */
std::vector<Record> loadTrace(const std::string &path);

/**
 * Zero-copy view of a whole trace file via mmap. v2 files, and v1 files
 * when mmap is unavailable (or fails), are read into an owned buffer
 * instead, as loadTrace reads them (so after a pass over a v2 file the
 * copy comes from the decode cache, with no second decode); records()
 * is always valid, and mapped() reports which path was taken.
 */
class MappedTrace
{
  public:
    explicit MappedTrace(const std::string &path);
    ~MappedTrace();

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    /** Total records in the trace. */
    uint64_t count() const { return count_; }

    /** The record array (zero-copy when mapped). */
    std::span<const Record> records() const
    {
        return {records_, static_cast<size_t>(count_)};
    }

    const Record &operator[](size_t i) const { return records_[i]; }

    /** True when the view is an actual mmap, not a fallback copy. */
    bool mapped() const { return map_ != nullptr; }

  private:
    void *map_ = nullptr;
    size_t mapBytes_ = 0;
    const Record *records_ = nullptr;
    uint64_t count_ = 0;
    std::vector<Record> fallback_;
};

/** Write a whole in-memory trace to a file (atomically, via TraceWriter). */
void saveTrace(const std::string &path, const std::vector<Record> &records,
               TraceFormat format = TraceFormat::V1);

/**
 * Streams a trace file's records one block at a time, first to last or
 * last to first, so the profiler passes run in O(live set) memory on
 * traces too large to hold in RAM. A background IO thread reads (v1) or
 * decodes (v2) the next block into a second buffer while the caller
 * consumes the current one.
 */
class TraceReader
{
  public:
    enum class Direction : uint8_t
    {
        Forward,  ///< First record to last.
        Backward, ///< Last record to first.
    };

    TraceReader(const std::string &path, Direction direction);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Total records in the file. */
    uint64_t count() const { return count_; }

    /** Records not yet yielded. */
    uint64_t remaining() const { return remaining_; }

    /** Yield the next record in the reader's direction; false once
     *  every record has been yielded. */
    bool next(Record &out);

  private:
    void takePrefetched();

    bool forward_;
    uint64_t count_ = 0;
    uint64_t remaining_ = 0;
    std::vector<Record> block_;
    size_t blockLeft_ = 0; ///< Records of block_ not yet yielded.

    // Prefetch effectiveness; published to the metric registry by the
    // destructor (hit = the next block was already waiting).
    uint64_t prefetchHits_ = 0;
    uint64_t prefetchMisses_ = 0;

    // The IO thread owns the file and hands filled blocks over through
    // ready_. Declared last: the thread uses the members above.
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Record> ready_;
    bool readyValid_ = false;
    bool stop_ = false;
    std::thread io_;
};

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_TRACE_FILE_HH
