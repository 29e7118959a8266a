#include "trace/columnar.hh"

#include <cstring>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define WEBSLICE_HAVE_PREAD 1
#endif

#include <unordered_set>

#include "support/logging.hh"
#include "support/lz.hh"
#include "support/metrics.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace trace {

namespace {

constexpr uint8_t kMaxKind = static_cast<uint8_t>(RecordKind::Marker);
constexpr uint8_t kAllFlags = kFlagTaken | kFlagIndirect;

/** Register column mapping: kNoReg <-> 0, reg <-> reg + 1. */
uint64_t
regToColumn(RegId reg)
{
    return reg == kNoReg ? 0 : static_cast<uint64_t>(reg) + 1;
}

bool
regFromColumn(uint64_t v, RegId &out)
{
    if (v == 0) {
        out = kNoReg;
        return true;
    }
    if (v > 0xFFFF)
        return false;
    out = static_cast<RegId>(v - 1);
    return out != kNoReg;
}

/**
 * `trace.bytes_on_disk` totals the on-disk footprint of distinct trace
 * files this process has opened (both formats); repeated opens of the
 * same file must not double-count, so identities are remembered.
 */
std::mutex seenTracesMutex;
std::unordered_set<uint64_t> seenTraces;

} // namespace

void
noteTraceBytesOnDisk(uint64_t identity, uint64_t bytes)
{
    {
        std::lock_guard<std::mutex> lock(seenTracesMutex);
        if (!seenTraces.insert(identity).second)
            return;
    }
    MetricRegistry::global().counter("trace.bytes_on_disk").add(bytes);
}

uint64_t
traceFileIdentity(int fd, const std::string &path, uint64_t file_bytes)
{
    uint64_t identity = kFnv1a64Offset;
#ifdef WEBSLICE_HAVE_PREAD
    struct stat st;
    if (fd >= 0 && ::fstat(fd, &st) == 0) {
        const int64_t stamp[] = {
            static_cast<int64_t>(st.st_dev),
            static_cast<int64_t>(st.st_ino),
            static_cast<int64_t>(st.st_size),
            static_cast<int64_t>(st.st_mtim.tv_sec),
            static_cast<int64_t>(st.st_mtim.tv_nsec),
            static_cast<int64_t>(st.st_ctim.tv_sec),
            static_cast<int64_t>(st.st_ctim.tv_nsec),
        };
        return fnv1a64(stamp, sizeof(stamp), identity);
    }
#endif
    identity = fnv1a64(path.data(), path.size(), identity);
    identity = fnv1a64(&file_bytes, sizeof(file_bytes), identity);
    return identity;
}

void
putVarint(uint64_t v, std::vector<uint8_t> &out)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

bool
getVarint(const uint8_t *&p, const uint8_t *end, uint64_t &v)
{
    v = 0;
    unsigned shift = 0;
    while (p < end) {
        const uint8_t b = *p++;
        if (shift == 63 && (b & 0x7F) > 1)
            return false; // would overflow 64 bits
        v |= static_cast<uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return true;
        shift += 7;
        if (shift > 63)
            return false;
    }
    return false; // truncated
}

// ---- block codec -------------------------------------------------------

namespace {

/** Column ids, in payload order. */
enum Column
{
    kColKindFlags = 0,
    kColPc,
    kColAddr,
    kColAux,
    kColTid,
    kColRr0,
    kColRr1,
    kColRr2,
    kColRw,
    kColumnCount,
};

void
putDelta(uint64_t cur, uint64_t &prev, std::vector<uint8_t> &col)
{
    putVarint(zigzag(static_cast<int64_t>(cur - prev)), col);
    prev = cur;
}

// The decode loop's failure reports live out of line, so the loop
// itself only tests and branches, and no call takes its cursors'
// addresses. Each report re-tests its check's condition, because
// fatal_if prints the condition's text in the diagnostic.

[[noreturn, gnu::cold, gnu::noinline]] void
corruptColumn(const std::string &context, int c, uint64_t record)
{
    fatal_if(true, "corrupt trace block in ", context, ": column ", c,
             " is truncated or malformed at record ", record);
}

[[gnu::cold, gnu::noinline]] void
reportKindFlags(const std::string &context, uint8_t kf, uint64_t i)
{
    const uint8_t kind = kf & 0x0F;
    const uint8_t flags = kf >> 4;
    fatal_if(kind > kMaxKind || (flags & ~kAllFlags),
             "corrupt trace block in ", context,
             ": undecodable kind/flags byte 0x", kf, " at record ", i);
}

[[gnu::cold, gnu::noinline]] void
reportFieldRange(const std::string &context, uint64_t pc, uint64_t aux,
                 uint64_t tid, uint64_t i)
{
    fatal_if(pc > 0xFFFFFFFFull || aux > 0xFFFFFFFFull ||
             tid > 0xFFFFull,
             "corrupt trace block in ", context,
             ": delta column leaves field range at record ", i);
}

/** A varint read from a column, and the column's cursor past it. */
struct ColumnVarint
{
    const uint8_t *next;
    uint64_t value;
};

/** A multi-byte varint at `p`, or column `c`'s corruption report. */
[[gnu::noinline]] ColumnVarint
readLongVarint(const uint8_t *p, const uint8_t *end,
               const std::string &context, int c, uint64_t record)
{
    uint64_t v = 0;
    if (!getVarint(p, end, v))
        corruptColumn(context, c, record);
    return {p, v};
}

/**
 * The unread bytes of one column. The decode loop keeps one per column
 * as a local whose address no call takes, so the nine cursors can live
 * in registers.
 */
struct ColumnCursor
{
    const uint8_t *p = nullptr;
    const uint8_t *end = nullptr;
    int column = 0;

    /** The next varint; one-byte values take the inline path. */
    uint64_t
    next(const std::string &context, uint64_t record)
    {
        if (p < end && *p < 0x80) [[likely]]
            return *p++;
        const ColumnVarint v = readLongVarint(p, end, context, column,
                                              record);
        p = v.next;
        return v.value;
    }

    /**
     * The next register (0 = kNoReg, else reg + 1). A one-byte value
     * needs no range check: 0 - 1 wraps to kNoReg, and 1..127 map to
     * registers 0..126.
     */
    RegId
    nextReg(const std::string &context, uint64_t record)
    {
        if (p < end && *p < 0x80) [[likely]]
            return static_cast<RegId>(*p++ - 1);
        RegId reg = kNoReg;
        if (!regFromColumn(next(context, record), reg))
            corruptColumn(context, column, record);
        return reg;
    }
};

} // namespace

uint32_t
encodeV2Block(const Record *records, size_t count, V2Checkpoint &state,
              std::vector<uint8_t> &out)
{
    std::vector<uint8_t> cols[kColumnCount];
    uint64_t prev_pc = state.prevPc;
    uint64_t prev_addr = state.prevAddr;
    uint64_t prev_aux = state.prevAux;
    uint64_t prev_tid = state.prevTid;
    for (size_t i = 0; i < count; ++i) {
        const Record &rec = records[i];
        const uint8_t kind = static_cast<uint8_t>(rec.kind);
        panic_if(kind > kMaxKind || (rec.flags & ~kAllFlags),
                 "record kind/flags out of encodable range: kind ",
                 unsigned{kind}, " flags ", unsigned{rec.flags});
        cols[kColKindFlags].push_back(
            static_cast<uint8_t>(kind | (rec.flags << 4)));
        putDelta(rec.pc, prev_pc, cols[kColPc]);
        putDelta(rec.addr, prev_addr, cols[kColAddr]);
        putDelta(rec.aux, prev_aux, cols[kColAux]);
        putDelta(rec.tid, prev_tid, cols[kColTid]);
        putVarint(regToColumn(rec.rr0), cols[kColRr0]);
        putVarint(regToColumn(rec.rr1), cols[kColRr1]);
        putVarint(regToColumn(rec.rr2), cols[kColRr2]);
        putVarint(regToColumn(rec.rw), cols[kColRw]);
    }
    state.prevPc = static_cast<uint32_t>(prev_pc);
    state.prevAddr = prev_addr;
    state.prevAux = static_cast<uint32_t>(prev_aux);
    state.prevTid = static_cast<uint16_t>(prev_tid);

    std::vector<uint8_t> raw;
    raw.reserve(count * 10 + 64);
    putVarint(count, raw);
    for (const auto &col : cols) {
        putVarint(col.size(), raw);
        raw.insert(raw.end(), col.begin(), col.end());
    }
    lzCompress(raw.data(), raw.size(), out);
    return static_cast<uint32_t>(raw.size());
}

void
decodeV2Block(const uint8_t *payload, size_t encoded_bytes,
              size_t raw_bytes, size_t expect_records,
              const V2Checkpoint &checkpoint, std::vector<Record> &out,
              const std::string &context)
{
    // Every byte is written by the LZ decode before it is read, so the
    // buffer is not zeroed first.
    const auto raw = std::make_unique_for_overwrite<uint8_t[]>(raw_bytes);
    fatal_if(!lzDecompress(payload, encoded_bytes, raw.get(), raw_bytes),
             "corrupt compressed trace block in ", context,
             ": LZ stream does not decode to the ", raw_bytes,
             " bytes the index claims");

    const uint8_t *p = raw.get();
    const uint8_t *const end = p + raw_bytes;
    uint64_t count = 0;
    fatal_if(!getVarint(p, end, count) || count != expect_records,
             "corrupt trace block in ", context, ": payload claims ",
             count, " records, index claims ", expect_records);

    // Column extents are declared up front; every decode below is
    // bounds-checked against its own column, so a corrupt length in
    // one column cannot bleed reads into the next.
    ColumnCursor col[kColumnCount];
    for (int c = 0; c < kColumnCount; ++c) {
        uint64_t len = 0;
        fatal_if(!getVarint(p, end, len) ||
                 len > static_cast<uint64_t>(end - p),
                 "corrupt trace block in ", context, ": column ", c,
                 " overruns the payload");
        col[c] = {p, p + len, c};
        p += len;
    }
    fatal_if(p != end, "corrupt trace block in ", context, ": ",
             end - p, " trailing payload bytes after the last column");

    ColumnCursor kinds = col[kColKindFlags];
    ColumnCursor pcs = col[kColPc];
    ColumnCursor addrs = col[kColAddr];
    ColumnCursor auxs = col[kColAux];
    ColumnCursor tids = col[kColTid];
    ColumnCursor rr0s = col[kColRr0];
    ColumnCursor rr1s = col[kColRr1];
    ColumnCursor rr2s = col[kColRr2];
    ColumnCursor rws = col[kColRw];
    uint64_t prev_pc = checkpoint.prevPc;
    uint64_t prev_addr = checkpoint.prevAddr;
    uint64_t prev_aux = checkpoint.prevAux;
    uint64_t prev_tid = checkpoint.prevTid;
    out.resize(count);
    Record *const records = out.data();
    for (uint64_t i = 0; i < count; ++i) {
        if (kinds.p >= kinds.end) [[unlikely]]
            corruptColumn(context, kColKindFlags, i);
        const uint8_t kf = *kinds.p++;
        const uint8_t kind = kf & 0x0F;
        const uint8_t flags = kf >> 4;
        if (kind > kMaxKind || (flags & ~kAllFlags)) [[unlikely]]
            reportKindFlags(context, kf, i);
        prev_pc += static_cast<uint64_t>(unzigzag(pcs.next(context, i)));
        prev_aux += static_cast<uint64_t>(unzigzag(auxs.next(context, i)));
        prev_tid += static_cast<uint64_t>(unzigzag(tids.next(context, i)));
        if (prev_pc > 0xFFFFFFFFull || prev_aux > 0xFFFFFFFFull ||
            prev_tid > 0xFFFFull) [[unlikely]]
            reportFieldRange(context, prev_pc, prev_aux, prev_tid, i);
        prev_addr += static_cast<uint64_t>(unzigzag(addrs.next(context, i)));
        Record rec;
        rec.kind = static_cast<RecordKind>(kind);
        rec.flags = flags;
        rec.pc = static_cast<Pc>(prev_pc);
        rec.addr = prev_addr;
        rec.aux = static_cast<uint32_t>(prev_aux);
        rec.tid = static_cast<ThreadId>(prev_tid);
        rec.rr0 = rr0s.nextReg(context, i);
        rec.rr1 = rr1s.nextReg(context, i);
        rec.rr2 = rr2s.nextReg(context, i);
        rec.rw = rws.nextReg(context, i);
        records[i] = rec;
    }
    for (const ColumnCursor &c :
         {kinds, pcs, addrs, auxs, tids, rr0s, rr1s, rr2s, rws}) {
        fatal_if(c.p != c.end, "corrupt trace block in ", context,
                 ": column ", c.column, " has ", c.end - c.p,
                 " undecoded trailing bytes");
    }

    auto &registry = MetricRegistry::global();
    registry.counter("trace.blocks_decoded").add();
    registry.counter("trace.bytes_decoded")
        .add(out.size() * sizeof(Record));
}

// ---- V2TraceFile -------------------------------------------------------

V2TraceFile::V2TraceFile(const std::string &path) : path_(path)
{
    uint64_t file_bytes = 0;
#ifdef WEBSLICE_HAVE_PREAD
    fd_ = ::open(path.c_str(), O_RDONLY);
    fatal_if(fd_ < 0, "cannot open trace file ", path);
    struct stat st;
    fatal_if(::fstat(fd_, &st) != 0, "cannot stat trace file ", path);
    file_bytes = static_cast<uint64_t>(st.st_size);
#else
    file_ = std::fopen(path.c_str(), "rb");
    fatal_if(!file_, "cannot open trace file ", path);
    fatal_if(std::fseek(file_, 0, SEEK_END) != 0,
             "cannot seek in trace file ", path);
    file_bytes = static_cast<uint64_t>(std::ftell(file_));
#endif

    const auto read_at = [&](void *out, size_t size, uint64_t offset,
                             const char *what) {
#ifdef WEBSLICE_HAVE_PREAD
        const ssize_t got =
            ::pread(fd_, out, size, static_cast<off_t>(offset));
        fatal_if(got != static_cast<ssize_t>(size), "cannot read ", what,
                 " from trace file ", path, " at offset ", offset);
#else
        fatal_if(std::fseek(file_, static_cast<long>(offset), SEEK_SET) !=
                 0, "cannot seek in trace file ", path);
        fatal_if(std::fread(out, size, 1, file_) != 1, "cannot read ",
                 what, " from trace file ", path, " at offset ", offset);
#endif
    };

    fatal_if(file_bytes < sizeof(V2Header),
             "trace file too small for a v2 header: ", path, " (",
             file_bytes, " of ", sizeof(V2Header), " bytes)");
    V2Header header;
    read_at(&header, sizeof(header), 0, "header");
    V2Header expect;
    fatal_if(std::memcmp(header.magic, expect.magic,
                         sizeof(expect.magic)) != 0,
             "bad trace magic in ", path);

    // The index is the file's tail; its location pins every size check.
    // Counts read from the file are bounded by the bytes present before
    // anything is multiplied, so no crafted index can wrap a check.
    V2IndexHeader index_header;
    fatal_if(header.indexOffset < sizeof(V2Header) ||
             header.indexOffset > file_bytes - sizeof(V2IndexHeader),
             "corrupt trace block index in ", path,
             ": index offset ", header.indexOffset,
             " outside the file (", file_bytes, " bytes)");
    read_at(&index_header, sizeof(index_header), header.indexOffset,
            "block index header");
    V2IndexHeader expect_index;
    fatal_if(std::memcmp(index_header.magic, expect_index.magic,
                         sizeof(expect_index.magic)) != 0,
             "corrupt trace block index in ", path,
             ": bad index magic at offset ", header.indexOffset);
    fatal_if(index_header.blockRecords == 0,
             "corrupt trace block index in ", path,
             ": zero records per block");
    const uint64_t blocks =
        header.recordCount / index_header.blockRecords +
        (header.recordCount % index_header.blockRecords != 0 ? 1 : 0);
    fatal_if(index_header.blockCount != blocks,
             "corrupt trace block index in ", path, ": index claims ",
             index_header.blockCount, " blocks, trace geometry implies ",
             blocks);
    const uint64_t entry_bytes =
        file_bytes - header.indexOffset - sizeof(V2IndexHeader);
    fatal_if(entry_bytes % sizeof(V2BlockEntry) != 0 ||
             entry_bytes / sizeof(V2BlockEntry) != blocks,
             "corrupt trace file ", path, ": file ends at offset ",
             file_bytes, ", leaving ", entry_bytes,
             " bytes of block index entries for ", blocks, " blocks of ",
             sizeof(V2BlockEntry), " bytes each");

    index_.recordCount = header.recordCount;
    index_.blockRecords = index_header.blockRecords;
    index_.blocks.resize(blocks);
    if (blocks > 0) {
        read_at(index_.blocks.data(), blocks * sizeof(V2BlockEntry),
                header.indexOffset + sizeof(V2IndexHeader),
                "block index entries");
    }

    // Entries must tile [header, indexOffset) exactly, in order, and
    // their record counts must tile the record space.
    uint64_t offset = sizeof(V2Header);
    uint64_t records = 0;
    for (size_t b = 0; b < index_.blocks.size(); ++b) {
        const V2BlockEntry &entry = index_.blocks[b];
        fatal_if(entry.fileOffset != offset,
                 "corrupt trace block index in ", path, ": block ", b,
                 " claims offset ", entry.fileOffset, ", expected ",
                 offset);
        fatal_if(entry.encodedBytes == 0 ||
                 offset + entry.encodedBytes > header.indexOffset,
                 "corrupt trace block index in ", path, ": block ", b,
                 " payload overruns the index at offset ",
                 header.indexOffset);
        const uint64_t expect_records =
            b + 1 < blocks
                ? index_.blockRecords
                : header.recordCount - b * index_.blockRecords;
        fatal_if(entry.records != expect_records,
                 "corrupt trace block index in ", path, ": block ", b,
                 " claims ", entry.records, " records, geometry implies ",
                 expect_records);
        fatal_if(entry.instructions + entry.pseudoRecords !=
                 entry.records,
                 "corrupt trace block index in ", path, ": block ", b,
                 " counts ", entry.instructions, " + ",
                 entry.pseudoRecords, " records against ", entry.records);
        offset += entry.encodedBytes;
        records += entry.records;
    }
    fatal_if(offset != header.indexOffset,
             "corrupt trace block index in ", path, ": blocks end at ",
             offset, ", index starts at ", header.indexOffset);
    fatal_if(records != header.recordCount,
             "corrupt trace block index in ", path, ": blocks carry ",
             records, " records, header claims ", header.recordCount);

    cacheKey_ = traceFileIdentity(fd_, path, file_bytes);
    noteTraceBytesOnDisk(cacheKey_, file_bytes);
}

V2TraceFile::~V2TraceFile()
{
#ifdef WEBSLICE_HAVE_PREAD
    if (fd_ >= 0)
        ::close(fd_);
#endif
    if (file_)
        std::fclose(file_);
}

void
V2TraceFile::decodeBlock(size_t b, std::vector<Record> &out) const
{
    panic_if(b >= index_.blocks.size(), "v2 block ", b, " out of range");
    const V2BlockEntry &entry = index_.blocks[b];
    std::vector<uint8_t> payload(entry.encodedBytes);
#ifdef WEBSLICE_HAVE_PREAD
    const ssize_t got = ::pread(fd_, payload.data(), payload.size(),
                                static_cast<off_t>(entry.fileOffset));
    fatal_if(got != static_cast<ssize_t>(payload.size()),
             "cannot read block ", b, " from trace file ", path_,
             " at offset ", entry.fileOffset);
#else
    {
        std::lock_guard<std::mutex> lock(fileMutex_);
        fatal_if(std::fseek(file_, static_cast<long>(entry.fileOffset),
                            SEEK_SET) != 0,
                 "cannot seek in trace file ", path_);
        fatal_if(std::fread(payload.data(), payload.size(), 1, file_) !=
                 1, "cannot read block ", b, " from trace file ", path_,
                 " at offset ", entry.fileOffset);
    }
#endif
    const std::string context = path_ + " (block " +
                                std::to_string(b) + " at offset " +
                                std::to_string(entry.fileOffset) + ")";
    decodeV2Block(payload.data(), payload.size(), entry.rawBytes,
                  entry.records, entry.checkpoint, out, context);
}

// ---- TraceDecodeCache --------------------------------------------------

TraceDecodeCache &
TraceDecodeCache::global()
{
    static TraceDecodeCache cache;
    return cache;
}

void
TraceDecodeCache::setBudget(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = bytes;
    evictLocked();
}

uint64_t
TraceDecodeCache::budget() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
}

std::shared_ptr<const std::vector<Record>>
TraceDecodeCache::lookupLocked(const Key &key)
{
    auto &registry = MetricRegistry::global();
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++counters_.misses;
        registry.counter("trace.block_cache_misses").add();
        return nullptr;
    }
    ++counters_.hits;
    registry.counter("trace.block_cache_hits").add();
    lru_.erase(it->second.lruIt);
    lru_.push_front(key);
    it->second.lruIt = lru_.begin();
    return it->second.block;
}

std::shared_ptr<const std::vector<Record>>
TraceDecodeCache::find(const V2TraceFile &file, size_t b)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lookupLocked({file.cacheKey(), b});
}

std::shared_ptr<const std::vector<Record>>
TraceDecodeCache::acquire(const V2TraceFile &file, size_t b)
{
    const Key key{file.cacheKey(), b};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto hit = lookupLocked(key))
            return hit;
    }

    // Decode outside the lock: a concurrent miss on the same block may
    // decode twice, but never blocks every other reader on the decode.
    auto block = std::make_shared<std::vector<Record>>();
    file.decodeBlock(b, *block);

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end())
        return it->second.block; // racer inserted first; keep theirs
    CacheEntry entry;
    entry.block = block;
    entry.bytes = block->size() * sizeof(Record);
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
    bytes_ += entry.bytes;
    entries_.emplace(key, std::move(entry));
    evictLocked();
    return block;
}

void
TraceDecodeCache::evictLocked()
{
    while (bytes_ > budget_ && lru_.size() > 1) {
        const Key victim = lru_.back();
        auto it = entries_.find(victim);
        bytes_ -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++counters_.evictions;
        MetricRegistry::global()
            .counter("trace.block_cache_evictions")
            .add();
    }
}

void
TraceDecodeCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
}

TraceDecodeCache::Stats
TraceDecodeCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = counters_;
    out.entries = entries_.size();
    out.bytes = bytes_;
    return out;
}

// ---- V2WriterBackend ---------------------------------------------------

V2WriterBackend::V2WriterBackend(std::FILE *file, std::string path)
    : file_(file), path_(std::move(path))
{
    V2Header header; // counts and index offset patched in finish()
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "cannot write trace header to ", path_);
    index_.blockRecords = kTraceIndexBlockRecords;
    block_.reserve(kTraceIndexBlockRecords);
}

void
V2WriterBackend::append(const Record &rec)
{
    block_.push_back(rec);
    if (block_.size() >= kTraceIndexBlockRecords)
        flushBlock();
}

void
V2WriterBackend::flushBlock()
{
    if (block_.empty())
        return;
    V2BlockEntry entry;
    entry.fileOffset = sizeof(V2Header);
    for (const V2BlockEntry &prev : index_.blocks)
        entry.fileOffset += prev.encodedBytes;
    entry.checkpoint = state_;
    entry.records = static_cast<uint32_t>(block_.size());
    for (const Record &rec : block_) {
        if (rec.isPseudo())
            ++entry.pseudoRecords;
        else
            ++entry.instructions;
    }
    encoded_.clear();
    entry.rawBytes =
        encodeV2Block(block_.data(), block_.size(), state_, encoded_);
    entry.encodedBytes = static_cast<uint32_t>(encoded_.size());
    fatal_if(std::fwrite(encoded_.data(), 1, encoded_.size(), file_) !=
             encoded_.size(), "short write to trace file ", path_);
    written_ += block_.size();
    index_.blocks.push_back(entry);
    block_.clear();
}

void
V2WriterBackend::finish()
{
    flushBlock();
    uint64_t index_offset = sizeof(V2Header);
    for (const V2BlockEntry &entry : index_.blocks)
        index_offset += entry.encodedBytes;

    V2IndexHeader index_header;
    index_header.blockRecords = index_.blockRecords;
    index_header.blockCount = index_.blocks.size();
    fatal_if(std::fwrite(&index_header, sizeof(index_header), 1, file_) !=
             1, "cannot write trace block index to ", path_);
    if (!index_.blocks.empty()) {
        fatal_if(std::fwrite(index_.blocks.data(), sizeof(V2BlockEntry),
                             index_.blocks.size(),
                             file_) != index_.blocks.size(),
                 "cannot write trace block index to ", path_);
    }

    V2Header header;
    header.recordCount = written_;
    header.indexOffset = index_offset;
    fatal_if(std::fseek(file_, 0, SEEK_SET) != 0,
             "cannot seek in trace file ", path_);
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "cannot patch trace header in ", path_);
}

} // namespace trace
} // namespace webslice
