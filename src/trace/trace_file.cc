#include "trace/trace_file.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define WEBSLICE_HAVE_MMAP 1
#endif

#include "support/logging.hh"
#include "support/metrics.hh"
#include "trace/columnar.hh"

namespace webslice {
namespace trace {

namespace {

constexpr size_t kWriteBufferRecords = 1 << 15;

/** On-disk header of the optional block-index footer. */
struct IndexFooter
{
    char magic[8];
    uint64_t blockRecords;
    uint64_t blockCount;
};

static_assert(sizeof(IndexFooter) == 24, "footer layout must stay fixed");

constexpr char kIndexMagic[8] = {'W', 'E', 'B', 'T', 'I', 'D', 'X', '1'};

/** One footer entry per block: executed and pseudo record counts. */
struct IndexEntry
{
    uint32_t instructions;
    uint32_t pseudoRecords;
};

static_assert(sizeof(IndexEntry) == 8, "footer layout must stay fixed");

/** ceil(n / d), without the wrap of (n + d - 1) / d for huge n or d. */
uint64_t
ceilDiv(uint64_t n, uint64_t d)
{
    return n / d + (n % d != 0 ? 1 : 0);
}

/**
 * The one v1 validator, shared by TraceSource and MappedTrace's mmap
 * branch: the magic, then the payload geometry, then the optional
 * WEBTIDX1 footer. `identity` is the file's traceFileIdentity, and
 * `read_at(out, bytes, offset, what)` fetches bytes of the file. Every
 * diagnostic names the file and the offending byte offset, so a
 * corrupt artifact fails loudly here instead of silently slicing a
 * partial trace. Counts read from the file are bounded by the
 * bytes actually present before anything is multiplied, so no crafted
 * header can wrap a size check. Returns the record count.
 */
template <typename ReadAt>
uint64_t
validateV1(const std::string &path, uint64_t file_bytes, uint64_t identity,
           ReadAt &&read_at)
{
    fatal_if(file_bytes < sizeof(TraceHeader),
             "trace file too small for a header: ", path, " (",
             file_bytes, " of ", sizeof(TraceHeader), " bytes)");
    noteTraceBytesOnDisk(identity, file_bytes);

    TraceHeader header;
    read_at(&header, sizeof(header), 0, "trace header");
    const TraceHeader expect;
    fatal_if(std::memcmp(header.magic, expect.magic, sizeof(header.magic)) !=
             0, "bad trace magic in ", path);

    // A torn write or a foreign file leaves a partial record behind.
    const uint64_t payload = file_bytes - sizeof(TraceHeader);
    const uint64_t stray = payload % sizeof(Record);
    const auto reject_stray = [&] {
        fatal_if(stray != 0, "misaligned trace payload in ", path, ": ",
                 stray, " stray bytes past offset ", file_bytes - stray,
                 " (records are ", sizeof(Record), " bytes)");
    };
    const uint64_t count = header.recordCount;
    const uint64_t stored = payload / sizeof(Record);
    if (count > stored) {
        reject_stray();
        fatal("truncated trace file ", path, ": header claims ", count,
              " records but only ", stored,
              " are stored (file ends at offset ", file_bytes, ")");
    }

    // A valid block-index footer is the only acceptable trailer.
    const uint64_t records_end = sizeof(TraceHeader) + count * sizeof(Record);
    const uint64_t extra = file_bytes - records_end;
    if (extra == 0)
        return count;
    if (extra >= sizeof(IndexFooter)) {
        IndexFooter footer;
        read_at(&footer, sizeof(footer), records_end, "trace block index");
        if (std::memcmp(footer.magic, kIndexMagic, sizeof(kIndexMagic)) ==
            0) {
            fatal_if(footer.blockRecords == 0,
                     "corrupt trace block index in ", path,
                     ": zero records per block");
            const uint64_t blocks = ceilDiv(count, footer.blockRecords);
            fatal_if(footer.blockCount != blocks,
                     "corrupt trace block index in ", path,
                     ": footer claims ", footer.blockCount,
                     " blocks, trace geometry implies ", blocks);
            const uint64_t want =
                sizeof(IndexFooter) + blocks * sizeof(IndexEntry);
            fatal_if(extra != want, "corrupt trace block index in ", path,
                     ": footer occupies ", extra, " bytes, expected ",
                     want);
            return count;
        }
    }
    reject_stray();
    fatal("trailing garbage in trace file ", path, ": ", extra,
          " bytes past the last record (offset ", records_end, ")");
}

/** Sniff a format from magic bytes already in memory; 0 = neither. */
TraceFormat
formatFromMagic(const char magic[8], bool &known)
{
    known = true;
    TraceHeader v1;
    if (std::memcmp(magic, v1.magic, sizeof(v1.magic)) == 0)
        return TraceFormat::V1;
    V2Header v2;
    if (std::memcmp(magic, v2.magic, sizeof(v2.magic)) == 0)
        return TraceFormat::V2;
    known = false;
    return TraceFormat::V1;
}

struct FileCloser
{
    void operator()(std::FILE *file) const { std::fclose(file); }
};

/**
 * A validated trace file of either format, read block by block. It is
 * the only reader code that knows the two formats: loadTrace,
 * MappedTrace's owned copy and TraceReader are all built on it. Not
 * thread-safe; a TraceReader's IO thread owns its source.
 */
class TraceSource
{
  public:
    explicit TraceSource(const std::string &path) : path_(path)
    {
        if (sniffTraceFormat(path) == TraceFormat::V2) {
            v2_ = std::make_unique<V2TraceFile>(path);
            count_ = v2_->count();
            blockRecords_ = v2_->index().blockRecords;
            return;
        }
        file_.reset(std::fopen(path.c_str(), "rb"));
        fatal_if(!file_, "cannot open trace file ", path);
        fatal_if(std::fseek(file_.get(), 0, SEEK_END) != 0,
                 "cannot seek in trace file ", path);
        const long end = std::ftell(file_.get());
        fatal_if(end < 0, "cannot size trace file ", path);
#ifdef WEBSLICE_HAVE_MMAP
        const int fd = ::fileno(file_.get());
#else
        const int fd = -1;
#endif
        count_ = validateV1(
            path, static_cast<uint64_t>(end),
            traceFileIdentity(fd, path, static_cast<uint64_t>(end)),
            [this](void *out, size_t bytes, uint64_t offset,
                   const char *what) {
                seek(offset);
                fatal_if(std::fread(out, bytes, 1, file_.get()) != 1,
                         "cannot read ", what, " from ", path_);
            });
    }

    uint64_t count() const { return count_; }

    /** Records per block of the read grid. */
    uint64_t blockRecords() const { return blockRecords_; }

    /**
     * Records [first, first + n) into `out`. For v2 the range must lie
     * in one block, which is fetched through the decode cache.
     */
    void
    read(uint64_t first, size_t n, std::vector<Record> &out)
    {
        if (v2_) {
            const size_t b = v2_->blockOf(first);
            const auto block = TraceDecodeCache::global().acquire(*v2_, b);
            const auto lo = block->begin() + static_cast<ptrdiff_t>(
                                                 first - b * blockRecords_);
            out.assign(lo, lo + static_cast<ptrdiff_t>(n));
            return;
        }
        out.resize(n);
        seek(sizeof(TraceHeader) + first * sizeof(Record));
        fatal_if(std::fread(out.data(), sizeof(Record), n, file_.get()) !=
                 n, "truncated trace file ", path_,
                 ": cannot read records ", first, " to ", first + n);
    }

    /** Every record, in order. */
    std::vector<Record>
    readAll()
    {
        std::vector<Record> records;
        if (!v2_) {
            if (count_ > 0)
                read(0, static_cast<size_t>(count_), records);
            return records;
        }
        // Blocks the decode cache holds (a pass over this file has just
        // filled it, say) are copied out. The rest are decoded here and
        // not inserted, so a one-shot read of a cold file leaves the
        // cache, and the process's memory, as it found them.
        auto &cache = TraceDecodeCache::global();
        records.reserve(static_cast<size_t>(count_));
        std::vector<Record> decoded;
        for (size_t b = 0; b < v2_->index().blocks.size(); ++b) {
            const auto cached = cache.find(*v2_, b);
            if (!cached)
                v2_->decodeBlock(b, decoded);
            const std::vector<Record> &block = cached ? *cached : decoded;
            records.insert(records.end(), block.begin(), block.end());
        }
        return records;
    }

  private:
    void
    seek(uint64_t offset)
    {
        fatal_if(std::fseek(file_.get(), static_cast<long>(offset),
                            SEEK_SET) != 0,
                 "cannot seek in trace file ", path_);
    }

    std::string path_;
    std::unique_ptr<std::FILE, FileCloser> file_; ///< v1 only.
    std::unique_ptr<V2TraceFile> v2_;             ///< v2 only.
    uint64_t count_ = 0;
    uint64_t blockRecords_ = kTraceIndexBlockRecords;
};

} // namespace

TraceFormat
sniffTraceFormat(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot open trace file ", path);
    char magic[8] = {};
    const size_t got = std::fread(magic, 1, sizeof(magic), file);
    std::fclose(file);
    fatal_if(got != sizeof(magic),
             "trace file too small for a header: ", path);
    bool known = false;
    const TraceFormat format = formatFromMagic(magic, known);
    fatal_if(!known, "bad trace magic in ", path);
    return format;
}

TraceWriter::TraceWriter(const std::string &path, bool block_index,
                         TraceFormat format, bool /*atomic*/)
    : path_(path + ".tmp"), finalPath_(path),
      writeIndex_(block_index || format == TraceFormat::V2)
{
    file_ = std::fopen(path_.c_str(), "wb");
    fatal_if(!file_, "cannot create trace file ", path_);
    if (format == TraceFormat::V2) {
        // The columnar backend owns buffering, block encoding, and the
        // checkpointed index; file lifetime (and the atomic rename)
        // stays here.
        v2_ = std::make_unique<V2WriterBackend>(file_, path_);
        return;
    }
    TraceHeader header;
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "cannot write trace header to ", path_);
    buffer_.reserve(kWriteBufferRecords);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const Record &rec)
{
    panic_if(!file_, "append to a closed trace writer");
    if (v2_) {
        v2_->append(rec);
        ++count_;
        return;
    }
    buffer_.push_back(rec);
    if (writeIndex_) {
        const size_t block =
            static_cast<size_t>(count_ / kTraceIndexBlockRecords);
        if (block == blockInstructions_.size()) {
            blockInstructions_.push_back(0);
            blockPseudoRecords_.push_back(0);
        }
        if (rec.isPseudo())
            ++blockPseudoRecords_[block];
        else
            ++blockInstructions_[block];
    }
    ++count_;
    if (buffer_.size() >= kWriteBufferRecords)
        flush();
}

void
TraceWriter::flush()
{
    if (buffer_.empty())
        return;
    fatal_if(std::fwrite(buffer_.data(), sizeof(Record), buffer_.size(),
                         file_) != buffer_.size(),
             "short write to trace file ", path_);
    buffer_.clear();
}

void
TraceWriter::close()
{
    if (!file_)
        return;
    if (v2_) {
        v2_->finish();
        v2_.reset();
        finishFile();
        return;
    }
    flush();
    if (writeIndex_) {
        // The stream sits at end-of-records after flush(); the footer
        // goes there, before the header patch seeks back to offset 0.
        IndexFooter footer;
        std::memcpy(footer.magic, kIndexMagic, sizeof(kIndexMagic));
        footer.blockRecords = kTraceIndexBlockRecords;
        footer.blockCount = blockInstructions_.size();
        fatal_if(std::fwrite(&footer, sizeof(footer), 1, file_) != 1,
                 "cannot write trace block index to ", path_);
        std::vector<IndexEntry> entries(blockInstructions_.size());
        for (size_t b = 0; b < entries.size(); ++b)
            entries[b] = {blockInstructions_[b], blockPseudoRecords_[b]};
        if (!entries.empty()) {
            fatal_if(std::fwrite(entries.data(), sizeof(IndexEntry),
                                 entries.size(), file_) != entries.size(),
                     "cannot write trace block index to ", path_);
        }
    }
    TraceHeader header;
    header.recordCount = count_;
    fatal_if(std::fseek(file_, 0, SEEK_SET) != 0,
             "cannot seek in trace file ", path_);
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "cannot patch trace header in ", path_);
    finishFile();
}

void
TraceWriter::finishFile()
{
    fatal_if(std::fflush(file_) != 0, "short write to trace file ",
             path_);
#if defined(__unix__) || defined(__APPLE__)
    // Durability before visibility: the rename below must never
    // publish a file whose bytes are still in the page cache only.
    fatal_if(::fsync(::fileno(file_)) != 0, "cannot fsync trace file ",
             path_);
#endif
    std::fclose(file_);
    file_ = nullptr;
    fatal_if(std::rename(path_.c_str(), finalPath_.c_str()) != 0,
             "cannot rename trace file ", path_, " into place as ",
             finalPath_);
}

std::vector<Record>
loadTrace(const std::string &path)
{
    return TraceSource(path).readAll();
}

void
saveTrace(const std::string &path, const std::vector<Record> &records,
          TraceFormat format)
{
    TraceWriter writer(path, /*block_index=*/false, format);
    for (const auto &rec : records)
        writer.append(rec);
    writer.close();
}

// ---- MappedTrace ------------------------------------------------------------

MappedTrace::MappedTrace(const std::string &path)
{
#ifdef WEBSLICE_HAVE_MMAP
    // Only a v1 record array can be viewed in place.
    if (sniffTraceFormat(path) == TraceFormat::V1) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        fatal_if(fd < 0, "cannot open trace file ", path);
        struct stat st;
        fatal_if(::fstat(fd, &st) != 0, "cannot stat trace file ", path);
        const size_t file_bytes = static_cast<size_t>(st.st_size);
        const uint64_t identity = traceFileIdentity(fd, path, file_bytes);
        void *map =
            ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd); // the mapping holds its own reference
        if (map != MAP_FAILED) {
            map_ = map;
            mapBytes_ = file_bytes;
            const char *bytes = static_cast<const char *>(map);
            count_ = validateV1(path, file_bytes, identity,
                                [bytes](void *out, size_t size,
                                        uint64_t offset, const char *) {
                                    std::memcpy(out, bytes + offset, size);
                                });
            records_ = reinterpret_cast<const Record *>(
                bytes + sizeof(TraceHeader));
            return;
        }
    }
#endif
    // v2, or mmap unavailable or refused: an owned copy.
    fallback_ = TraceSource(path).readAll();
    count_ = fallback_.size();
    records_ = fallback_.data();
}

MappedTrace::~MappedTrace()
{
#ifdef WEBSLICE_HAVE_MMAP
    if (map_)
        ::munmap(map_, mapBytes_);
#endif
}

// ---- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string &path, Direction direction)
    : forward_(direction == Direction::Forward)
{
    auto source = std::make_unique<TraceSource>(path);
    count_ = remaining_ = source->count();
    if (count_ == 0)
        return;
    // The IO thread owns the source from here on. It walks the source's
    // block grid in the reader's direction and reads each block once
    // the consumer has taken the previous one.
    io_ = std::thread([this, source = std::move(source)] {
        const uint64_t grid = source->blockRecords();
        const uint64_t blocks = ceilDiv(count_, grid);
        std::vector<Record> buf;
        for (uint64_t k = 0; k < blocks; ++k) {
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return stop_ || !readyValid_; });
                if (stop_)
                    return;
            }
            const uint64_t first = (forward_ ? k : blocks - 1 - k) * grid;
            source->read(first,
                         static_cast<size_t>(std::min(grid, count_ - first)),
                         buf);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ready_.swap(buf);
                readyValid_ = true;
            }
            cv_.notify_all();
        }
    });
}

TraceReader::~TraceReader()
{
    if (io_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        io_.join();
    }
    auto &registry = MetricRegistry::global();
    if (prefetchHits_)
        registry.counter("trace.prefetch_hits").add(prefetchHits_);
    if (prefetchMisses_)
        registry.counter("trace.prefetch_misses").add(prefetchMisses_);
}

void
TraceReader::takePrefetched()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (readyValid_)
        ++prefetchHits_; // block was already waiting; no stall
    else
        ++prefetchMisses_;
    cv_.wait(lock, [this] { return readyValid_; });
    block_.swap(ready_);
    readyValid_ = false;
    blockLeft_ = block_.size();
    lock.unlock();
    cv_.notify_all(); // wake the IO thread to fetch the next block
}

bool
TraceReader::next(Record &out)
{
    if (remaining_ == 0)
        return false;
    if (blockLeft_ == 0)
        takePrefetched();
    --blockLeft_;
    out = block_[forward_ ? block_.size() - 1 - blockLeft_ : blockLeft_];
    --remaining_;
    return true;
}

} // namespace trace
} // namespace webslice
