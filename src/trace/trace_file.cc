#include "trace/trace_file.hh"

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

uint64_t
indexBlockCount(uint64_t record_count, uint64_t block_records)
{
    return (record_count + block_records - 1) / block_records;
}

/**
 * Reject payloads that cannot be a whole record array: misaligned sizes
 * (a torn write or foreign file) and fewer records than the header
 * claims (truncation). Every diagnostic names the file and the
 * offending byte offset, so a corrupt artifact fails loudly here
 * instead of silently slicing a partial trace. Bytes past the last
 * record are returned for footer validation: a valid block-index
 * footer is the only acceptable trailer.
 */
uint64_t
validatePayload(const std::string &path, uint64_t file_bytes,
                uint64_t record_count)
{
    const uint64_t payload = file_bytes - sizeof(TraceHeader);
    const uint64_t expected = record_count * sizeof(Record);
    if (payload < expected) {
        const uint64_t stray = payload % sizeof(Record);
        fatal_if(stray != 0, "misaligned trace payload in ", path, ": ",
                 stray, " stray bytes past offset ", file_bytes - stray,
                 " (records are ", sizeof(Record), " bytes)");
        fatal_if(true, "truncated trace file ", path, ": header claims ",
                 record_count, " records but only ",
                 payload / sizeof(Record),
                 " are stored (file ends at offset ", file_bytes,
                 ", expected ", sizeof(TraceHeader) + expected, ")");
    }
    return payload - expected;
}

/** The pre-index diagnostics for trailing bytes that are no footer. */
void
rejectTrailingBytes(const std::string &path, uint64_t file_bytes,
                    uint64_t record_count, uint64_t extra)
{
    const uint64_t stray = extra % sizeof(Record);
    fatal_if(stray != 0, "misaligned trace payload in ", path, ": ", stray,
             " stray bytes past offset ", file_bytes - stray,
             " (records are ", sizeof(Record), " bytes)");
    fatal_if(true, "trailing garbage in trace file ", path, ": ", extra,
             " bytes past the last record (offset ",
             sizeof(TraceHeader) + record_count * sizeof(Record), ")");
}

/**
 * Validate a candidate footer header against the trailer size; fatal on
 * a corrupt footer, false when the bytes are not a footer at all (the
 * caller then issues the classic trailing-bytes diagnostics).
 */
bool
checkFooter(const std::string &path, uint64_t record_count, uint64_t extra,
            const IndexFooter &footer)
{
    if (std::memcmp(footer.magic, kIndexMagic, sizeof(kIndexMagic)) != 0)
        return false;
    fatal_if(footer.blockRecords == 0, "corrupt trace block index in ",
             path, ": zero records per block");
    const uint64_t blocks =
        indexBlockCount(record_count, footer.blockRecords);
    fatal_if(footer.blockCount != blocks, "corrupt trace block index in ",
             path, ": footer claims ", footer.blockCount,
             " blocks, trace geometry implies ", blocks);
    const uint64_t want =
        sizeof(IndexFooter) + blocks * sizeof(IndexEntry);
    fatal_if(extra != want, "corrupt trace block index in ", path,
             ": footer occupies ", extra, " bytes, expected ", want);
    return true;
}

/** Unpack validated footer entries into the public index form. */
void
unpackIndex(const IndexFooter &footer, const IndexEntry *entries,
            TraceBlockIndex &out)
{
    out.blockRecords = footer.blockRecords;
    out.instructions.resize(footer.blockCount);
    out.pseudoRecords.resize(footer.blockCount);
    for (uint64_t b = 0; b < footer.blockCount; ++b) {
        out.instructions[b] = entries[b].instructions;
        out.pseudoRecords[b] = entries[b].pseudoRecords;
    }
}

/**
 * Read and validate the header; when `index` is non-null and the file
 * carries a block-index footer, parse it too. The stream is left
 * positioned at the first record.
 */
TraceHeader
readHeader(std::FILE *file, const std::string &path,
           TraceBlockIndex *index = nullptr)
{
    fatal_if(std::fseek(file, 0, SEEK_END) != 0,
             "cannot seek in trace file ", path);
    const long end = std::ftell(file);
    fatal_if(end < 0, "cannot size trace file ", path);
    fatal_if(std::fseek(file, 0, SEEK_SET) != 0,
             "cannot seek in trace file ", path);
    const uint64_t file_bytes = static_cast<uint64_t>(end);
    fatal_if(file_bytes < sizeof(TraceHeader),
             "trace file too small for a header: ", path, " (",
             file_bytes, " of ", sizeof(TraceHeader), " bytes)");
    noteTraceBytesOnDisk(traceFileIdentity(path, file_bytes), file_bytes);

    TraceHeader header;
    fatal_if(std::fread(&header, sizeof(header), 1, file) != 1,
             "cannot read trace header from ", path);
    TraceHeader expect;
    fatal_if(std::memcmp(header.magic, expect.magic, sizeof(header.magic)) !=
             0, "bad trace magic in ", path);
    const uint64_t extra =
        validatePayload(path, file_bytes, header.recordCount);
    if (extra > 0) {
        const long footer_offset = static_cast<long>(
            sizeof(TraceHeader) + header.recordCount * sizeof(Record));
        IndexFooter footer{};
        bool is_footer = extra >= sizeof(IndexFooter);
        if (is_footer) {
            fatal_if(std::fseek(file, footer_offset, SEEK_SET) != 0,
                     "cannot seek in trace file ", path);
            fatal_if(std::fread(&footer, sizeof(footer), 1, file) != 1,
                     "cannot read trace block index from ", path);
            is_footer = checkFooter(path, header.recordCount, extra,
                                    footer);
        }
        if (!is_footer)
            rejectTrailingBytes(path, file_bytes, header.recordCount,
                                extra);
        if (index) {
            std::vector<IndexEntry> entries(footer.blockCount);
            if (!entries.empty()) {
                fatal_if(std::fread(entries.data(), sizeof(IndexEntry),
                                    entries.size(),
                                    file) != entries.size(),
                         "cannot read trace block index from ", path);
            }
            unpackIndex(footer, entries.data(), *index);
        }
        fatal_if(std::fseek(file, sizeof(TraceHeader), SEEK_SET) != 0,
                 "cannot seek in trace file ", path);
    }
    return header;
}

/** Publish one reader's prefetch effectiveness to the global registry. */
void
publishReaderStats(uint64_t hits, uint64_t misses, uint64_t sync_reads)
{
    auto &registry = MetricRegistry::global();
    if (hits)
        registry.counter("trace.prefetch_hits").add(hits);
    if (misses)
        registry.counter("trace.prefetch_misses").add(misses);
    if (sync_reads)
        registry.counter("trace.sync_block_reads").add(sync_reads);
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
                         TraceFormat format, bool atomic)
    : path_(atomic ? path + ".tmp" : path), finalPath_(path),
      writeIndex_(block_index || format == TraceFormat::V2),
      atomic_(atomic)
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
    if (writeIndex_)
        index_.blockRecords = kTraceIndexBlockRecords;
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
        if (block == index_.instructions.size()) {
            index_.instructions.push_back(0);
            index_.pseudoRecords.push_back(0);
        }
        if (rec.isPseudo())
            ++index_.pseudoRecords[block];
        else
            ++index_.instructions[block];
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
        footer.blockCount = index_.blockCount();
        fatal_if(std::fwrite(&footer, sizeof(footer), 1, file_) != 1,
                 "cannot write trace block index to ", path_);
        std::vector<IndexEntry> entries(index_.blockCount());
        for (size_t b = 0; b < entries.size(); ++b) {
            entries[b].instructions = index_.instructions[b];
            entries[b].pseudoRecords = index_.pseudoRecords[b];
        }
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
    if (atomic_)
        fatal_if(::fsync(::fileno(file_)) != 0,
                 "cannot fsync trace file ", path_);
#endif
    std::fclose(file_);
    file_ = nullptr;
    if (atomic_) {
        fatal_if(std::rename(path_.c_str(), finalPath_.c_str()) != 0,
                 "cannot rename trace file ", path_, " into place as ",
                 finalPath_);
    }
}

std::vector<Record>
loadTrace(const std::string &path)
{
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        // One-shot whole-file read: decode blocks in order, bypassing
        // the decode cache (nothing would be revisited).
        const V2TraceFile v2(path);
        std::vector<Record> records;
        records.reserve(static_cast<size_t>(v2.count()));
        std::vector<Record> block;
        for (size_t b = 0; b < v2.index().blocks.size(); ++b) {
            v2.decodeBlock(b, block);
            records.insert(records.end(), block.begin(), block.end());
        }
        return records;
    }
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot open trace file ", path);
    const TraceHeader header = readHeader(file, path);

    std::vector<Record> records(header.recordCount);
    if (header.recordCount > 0) {
        fatal_if(std::fread(records.data(), sizeof(Record),
                            records.size(), file) != records.size(),
                 "truncated trace file ", path);
    }
    std::fclose(file);
    return records;
}

std::vector<Record>
loadTraceRange(const std::string &path, uint64_t first, uint64_t count)
{
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        const V2TraceFile v2(path);
        fatal_if(first > v2.count() || count > v2.count() - first,
                 "trace range [", first, ", ", first + count,
                 ") out of bounds in ", path, " (", v2.count(),
                 " records)");
        std::vector<Record> records;
        records.reserve(static_cast<size_t>(count));
        const uint64_t block_records = v2.index().blockRecords;
        auto &cache = TraceDecodeCache::global();
        // Decode exactly the blocks the range touches; repeat touches
        // (epoch boundary probes, per-epoch transcodes) hit the cache.
        for (uint64_t i = first; i < first + count;) {
            const size_t b = v2.blockOf(i);
            const auto block = cache.acquire(v2, b);
            const uint64_t block_start = b * block_records;
            const uint64_t lo = i - block_start;
            const uint64_t hi = std::min<uint64_t>(
                block->size(), first + count - block_start);
            records.insert(records.end(), block->begin() + lo,
                           block->begin() + hi);
            i = block_start + hi;
        }
        return records;
    }
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot open trace file ", path);
    const TraceHeader header = readHeader(file, path);
    fatal_if(first > header.recordCount ||
             count > header.recordCount - first,
             "trace range [", first, ", ", first + count,
             ") out of bounds in ", path, " (", header.recordCount,
             " records)");

    std::vector<Record> records(count);
    if (count > 0) {
        const long offset = static_cast<long>(
            sizeof(TraceHeader) + first * sizeof(Record));
        fatal_if(std::fseek(file, offset, SEEK_SET) != 0,
                 "cannot seek in trace file ", path);
        fatal_if(std::fread(records.data(), sizeof(Record),
                            records.size(), file) != records.size(),
                 "truncated trace file ", path);
    }
    std::fclose(file);
    return records;
}

TraceBlockIndex
loadTraceBlockIndex(const std::string &path)
{
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        // The v2 index is structural; project it onto the v1 footer
        // shape the epoch planner consumes.
        const V2TraceFile v2(path);
        TraceBlockIndex index;
        index.blockRecords = v2.index().blockRecords;
        index.instructions.reserve(v2.index().blocks.size());
        index.pseudoRecords.reserve(v2.index().blocks.size());
        for (const V2BlockEntry &entry : v2.index().blocks) {
            index.instructions.push_back(entry.instructions);
            index.pseudoRecords.push_back(entry.pseudoRecords);
        }
        return index;
    }
    std::FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(!file, "cannot open trace file ", path);
    TraceBlockIndex index;
    readHeader(file, path, &index);
    std::fclose(file);
    return index;
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
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        // Columnar traces cannot be viewed zero-copy; decode the whole
        // file into the owned buffer (mapped() stays false) and carry
        // the index across in its footer shape.
        const V2TraceFile v2(path);
        fallback_.reserve(static_cast<size_t>(v2.count()));
        std::vector<Record> block;
        for (size_t b = 0; b < v2.index().blocks.size(); ++b) {
            v2.decodeBlock(b, block);
            fallback_.insert(fallback_.end(), block.begin(),
                             block.end());
        }
        count_ = fallback_.size();
        records_ = fallback_.data();
        index_.blockRecords = v2.index().blockRecords;
        for (const V2BlockEntry &entry : v2.index().blocks) {
            index_.instructions.push_back(entry.instructions);
            index_.pseudoRecords.push_back(entry.pseudoRecords);
        }
        return;
    }
#ifdef WEBSLICE_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    fatal_if(fd < 0, "cannot open trace file ", path);

    struct stat st;
    fatal_if(::fstat(fd, &st) != 0, "cannot stat trace file ", path);
    const size_t file_bytes = static_cast<size_t>(st.st_size);
    fatal_if(file_bytes < sizeof(TraceHeader),
             "trace file too small for a header: ", path);
    noteTraceBytesOnDisk(traceFileIdentity(path, file_bytes), file_bytes);

    void *map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (map != MAP_FAILED) {
        const auto *header = static_cast<const TraceHeader *>(map);
        TraceHeader expect;
        fatal_if(std::memcmp(header->magic, expect.magic,
                             sizeof(expect.magic)) != 0,
                 "bad trace magic in ", path);
        const uint64_t extra =
            validatePayload(path, file_bytes, header->recordCount);
        if (extra > 0) {
            const char *trailer = static_cast<const char *>(map) +
                                  sizeof(TraceHeader) +
                                  header->recordCount * sizeof(Record);
            IndexFooter footer{};
            bool is_footer = extra >= sizeof(IndexFooter);
            if (is_footer) {
                std::memcpy(&footer, trailer, sizeof(footer));
                is_footer = checkFooter(path, header->recordCount, extra,
                                        footer);
            }
            if (!is_footer)
                rejectTrailingBytes(path, file_bytes,
                                    header->recordCount, extra);
            std::vector<IndexEntry> entries(footer.blockCount);
            if (!entries.empty()) {
                std::memcpy(entries.data(), trailer + sizeof(footer),
                            entries.size() * sizeof(IndexEntry));
            }
            unpackIndex(footer, entries.data(), index_);
        }
        map_ = map;
        mapBytes_ = file_bytes;
        count_ = header->recordCount;
        records_ = reinterpret_cast<const Record *>(
            static_cast<const char *>(map) + sizeof(TraceHeader));
        return;
    }
#endif
    // mmap unavailable or refused: fall back to an owned copy.
    fallback_ = loadTrace(path);
    count_ = fallback_.size();
    records_ = fallback_.data();
    index_ = loadTraceBlockIndex(path);
}

MappedTrace::~MappedTrace()
{
#ifdef WEBSLICE_HAVE_MMAP
    if (map_)
        ::munmap(map_, mapBytes_);
#endif
}

// ---- ForwardTraceReader -----------------------------------------------------

ForwardTraceReader::ForwardTraceReader(const std::string &path,
                                       size_t block_records, bool prefetch)
    : blockRecords_(block_records ? block_records : 1)
{
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        // v2 reads are block-decode units regardless of the requested
        // chunking; the prefetch thread then overlaps *decode* (the v2
        // analogue of disk latency) with the caller's analysis.
        v2_ = std::make_unique<V2TraceFile>(path);
        count_ = v2_->count();
        blockRecords_ =
            static_cast<size_t>(v2_->index().blockRecords);
    } else {
        file_ = std::fopen(path.c_str(), "rb");
        fatal_if(!file_, "cannot open trace file ", path);
        const TraceHeader header = readHeader(file_, path);
        count_ = header.recordCount;
    }

    // One-block traces gain nothing from a second thread.
    prefetch_ = prefetch && count_ > blockRecords_;
    if (prefetch_) {
        ioRemaining_ = count_;
        io_ = std::thread([this] { ioLoop(); });
    }
}

size_t
ForwardTraceReader::fillForwardV2(std::vector<Record> &buf,
                                  uint64_t remaining)
{
    const uint64_t next = count_ - remaining;
    const size_t b = v2_->blockOf(next);
    const auto block = TraceDecodeCache::global().acquire(*v2_, b);
    const uint64_t block_start = b * v2_->index().blockRecords;
    const size_t lo = static_cast<size_t>(next - block_start);
    buf.assign(block->begin() + lo, block->end());
    return buf.size();
}

ForwardTraceReader::~ForwardTraceReader()
{
    if (prefetch_) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        io_.join();
    }
    if (file_)
        std::fclose(file_);
    publishReaderStats(prefetchHits_, prefetchMisses_, syncReads_);
}

void
ForwardTraceReader::ioLoop()
{
    std::vector<Record> buf;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !readyValid_; });
            if (stop_)
                return;
        }
        if (ioRemaining_ == 0)
            return; // whole file handed over
        size_t this_block;
        if (v2_) {
            this_block = fillForwardV2(buf, ioRemaining_);
        } else {
            this_block = static_cast<size_t>(
                std::min<uint64_t>(blockRecords_, ioRemaining_));
            buf.resize(this_block);
            fatal_if(std::fread(buf.data(), sizeof(Record), this_block,
                                file_) != this_block,
                     "truncated trace file during forward read");
        }
        ioRemaining_ -= this_block;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ready_.swap(buf);
            readyValid_ = true;
        }
        cv_.notify_all();
    }
}

void
ForwardTraceReader::takePrefetched()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (readyValid_)
        ++prefetchHits_; // block was already waiting; no stall
    else
        ++prefetchMisses_;
    cv_.wait(lock, [this] { return readyValid_; });
    block_.swap(ready_);
    readyValid_ = false;
    blockPos_ = 0;
    lock.unlock();
    cv_.notify_all(); // wake the IO thread to fetch the next block
}

void
ForwardTraceReader::fillBlockSync()
{
    ++syncReads_;
    if (v2_) {
        fillForwardV2(block_, count_ - consumed_);
        blockPos_ = 0;
        return;
    }
    const size_t this_block = static_cast<size_t>(
        std::min<uint64_t>(blockRecords_, count_ - consumed_));
    block_.resize(this_block);
    fatal_if(std::fread(block_.data(), sizeof(Record), this_block,
                        file_) != this_block,
             "truncated trace file during forward read");
    blockPos_ = 0;
}

bool
ForwardTraceReader::next(Record &out)
{
    if (consumed_ == count_)
        return false;
    if (blockPos_ == block_.size()) {
        if (prefetch_)
            takePrefetched();
        else
            fillBlockSync();
    }
    out = block_[blockPos_++];
    ++consumed_;
    return true;
}

// ---- ReverseTraceReader -----------------------------------------------------

ReverseTraceReader::ReverseTraceReader(const std::string &path,
                                       size_t block_records, bool prefetch)
    : blockRecords_(block_records ? block_records : 1)
{
    if (sniffTraceFormat(path) == TraceFormat::V2) {
        v2_ = std::make_unique<V2TraceFile>(path);
        count_ = v2_->count();
        blockRecords_ =
            static_cast<size_t>(v2_->index().blockRecords);
    } else {
        file_ = std::fopen(path.c_str(), "rb");
        fatal_if(!file_, "cannot open trace file ", path);
        const TraceHeader header = readHeader(file_, path);
        count_ = header.recordCount;
    }
    remaining_ = count_;

    prefetch_ = prefetch && count_ > blockRecords_;
    if (prefetch_) {
        ioRemaining_ = count_;
        io_ = std::thread([this] { ioLoop(); });
    }
}

ReverseTraceReader::~ReverseTraceReader()
{
    if (prefetch_) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        io_.join();
    }
    if (file_)
        std::fclose(file_);
    publishReaderStats(prefetchHits_, prefetchMisses_, syncReads_);
}

size_t
ReverseTraceReader::fillReverseV2(std::vector<Record> &buf,
                                  uint64_t remaining)
{
    // `remaining` is one past the highest unread record; the chunk is
    // the part of its block below that.
    const size_t b = v2_->blockOf(remaining - 1);
    const auto block = TraceDecodeCache::global().acquire(*v2_, b);
    const uint64_t block_start = b * v2_->index().blockRecords;
    buf.assign(block->begin(),
               block->begin() + static_cast<size_t>(remaining - block_start));
    return buf.size();
}

void
ReverseTraceReader::ioLoop()
{
    std::vector<Record> buf;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !readyValid_; });
            if (stop_)
                return;
        }
        if (ioRemaining_ == 0)
            return; // whole file handed over
        size_t this_block;
        if (v2_) {
            this_block = fillReverseV2(buf, ioRemaining_);
        } else {
            this_block = static_cast<size_t>(
                std::min<uint64_t>(blockRecords_, ioRemaining_));
            const uint64_t first_index = ioRemaining_ - this_block;
            const long offset = static_cast<long>(
                sizeof(TraceHeader) + first_index * sizeof(Record));
            fatal_if(std::fseek(file_, offset, SEEK_SET) != 0,
                     "cannot seek in trace file");
            buf.resize(this_block);
            fatal_if(std::fread(buf.data(), sizeof(Record), this_block,
                                file_) != this_block,
                     "truncated trace file during reverse read");
        }
        ioRemaining_ -= this_block;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ready_.swap(buf);
            readyValid_ = true;
        }
        cv_.notify_all();
    }
}

void
ReverseTraceReader::takePrefetched()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (readyValid_)
        ++prefetchHits_;
    else
        ++prefetchMisses_;
    cv_.wait(lock, [this] { return readyValid_; });
    block_.swap(ready_);
    readyValid_ = false;
    blockPos_ = block_.size();
    lock.unlock();
    cv_.notify_all(); // wake the IO thread to fetch the preceding block
}

void
ReverseTraceReader::loadPrecedingBlock()
{
    ++syncReads_;
    if (v2_) {
        blockPos_ = fillReverseV2(block_, remaining_);
        return;
    }
    const uint64_t already_read = remaining_;
    const size_t this_block = static_cast<size_t>(
        std::min<uint64_t>(blockRecords_, already_read));
    const uint64_t first_index = already_read - this_block;
    const long offset = static_cast<long>(
        sizeof(TraceHeader) + first_index * sizeof(Record));
    fatal_if(std::fseek(file_, offset, SEEK_SET) != 0,
             "cannot seek in trace file");
    block_.resize(this_block);
    fatal_if(std::fread(block_.data(), sizeof(Record), this_block, file_) !=
             this_block, "truncated trace file during reverse read");
    blockPos_ = this_block;
}

bool
ReverseTraceReader::next(Record &out)
{
    if (remaining_ == 0)
        return false;
    if (blockPos_ == 0) {
        if (prefetch_)
            takePrefetched();
        else
            loadPrecedingBlock();
    }
    out = block_[--blockPos_];
    --remaining_;
    return true;
}

} // namespace trace
} // namespace webslice
