/**
 * @file
 * A sparse set of bytes over a 64-bit address space.
 *
 * This is the data structure behind the slicer's live-memory set: byte
 * granular (the trace records exact access addresses and sizes, which is
 * what lets the profiler sidestep memory aliasing), hash-chunked so that
 * memory use is proportional to the number of live bytes, not to the
 * address-space span.
 *
 * Chunks live in an open-addressing FlatMap64 (the backward pass probes
 * this map once or twice per trace record, making it the profiler's
 * hottest structure). A one-entry last-chunk cache short-circuits the
 * common case of consecutive records touching the same 64-byte chunk.
 */

#ifndef WEBSLICE_SUPPORT_SPARSE_BYTE_SET_HH
#define WEBSLICE_SUPPORT_SPARSE_BYTE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "support/flat_map.hh"

namespace webslice {

/**
 * Set of individual byte addresses, stored as 64-byte chunks with one
 * presence bit per byte, indexed by chunk base in a FlatMap64.
 */
class SparseByteSet
{
  public:
    SparseByteSet() = default;

    // Copies reset the last-chunk cache: the cached slot pointer aims
    // into the *source* set's chunk storage, and the copied generation
    // counter would make it look valid. The epoch-plan replay snapshots
    // live sets at epoch boundaries, so copies must be safe.
    SparseByteSet(const SparseByteSet &other)
        : chunks_(other.chunks_), population_(other.population_)
    {
    }

    SparseByteSet &
    operator=(const SparseByteSet &other)
    {
        if (this != &other) {
            chunks_ = other.chunks_;
            population_ = other.population_;
            cacheBase_ = kNoBase;
            cachePtr_ = nullptr;
            cacheGen_ = 0;
        }
        return *this;
    }

    /** Insert the byte range [addr, addr + size). */
    void
    insert(uint64_t addr, uint64_t size)
    {
        forEachChunk(addr, size, [this](uint64_t base, uint64_t mask) {
            uint64_t &bits = chunkFor(base);
            population_ += popcount(mask & ~bits);
            bits |= mask;
        });
    }

    /** Remove the byte range [addr, addr + size). */
    void
    erase(uint64_t addr, uint64_t size)
    {
        forEachChunk(addr, size, [this](uint64_t base, uint64_t mask) {
            uint64_t *bits = chunks_.find(base);
            if (!bits)
                return;
            population_ -= popcount(*bits & mask);
            *bits &= ~mask;
            if (*bits == 0)
                chunks_.erase(base);
        });
    }

    /** True if any byte of [addr, addr + size) is present. */
    bool
    intersects(uint64_t addr, uint64_t size) const
    {
        bool hit = false;
        forEachChunk(addr, size, [this, &hit](uint64_t base, uint64_t mask) {
            if (hit)
                return;
            const uint64_t *bits = findChunk(base);
            if (bits && (*bits & mask) != 0)
                hit = true;
        });
        return hit;
    }

    /**
     * Atomically test-and-erase: remove any present bytes of the range and
     * report whether at least one was present. This is the slicer's "kill"
     * step for a store into live memory.
     */
    bool
    testAndErase(uint64_t addr, uint64_t size)
    {
        bool hit = false;
        forEachChunk(addr, size, [this, &hit](uint64_t base, uint64_t mask) {
            uint64_t *bits = chunks_.find(base);
            if (!bits)
                return;
            const uint64_t present = *bits & mask;
            if (present) {
                hit = true;
                population_ -= popcount(present);
                *bits &= ~mask;
                if (*bits == 0)
                    chunks_.erase(base);
            }
        });
        return hit;
    }

    /** True if the single byte at addr is present. */
    bool
    contains(uint64_t addr) const
    {
        const uint64_t *bits = findChunk(addr >> 6);
        if (!bits)
            return false;
        return (*bits >> (addr & 63)) & 1;
    }

    /** Number of bytes in the set. */
    size_t size() const { return population_; }

    bool empty() const { return population_ == 0; }

    void
    clear()
    {
        chunks_.clear();
        population_ = 0;
    }

    /** Number of 64-byte chunks currently allocated (for diagnostics). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Bytes of heap storage held by the chunk index (diagnostics). */
    size_t heapBytes() const { return chunks_.heapBytes(); }

    /** Chunk-index probe total. */
    uint64_t probeCount() const { return chunks_.probeCount(); }

    /** Chunk-index rehash total. */
    uint64_t resizeCount() const { return chunks_.resizeCount(); }

  private:
    static int
    popcount(uint64_t x)
    {
        return __builtin_popcountll(x);
    }

    /** Impossible chunk base (real bases are addr >> 6, max 2^58 - 1). */
    static constexpr uint64_t kNoBase = ~0ull;

    /**
     * Chunk slot for base, creating it when absent, via the one-entry
     * cache. The cache key is (base, map generation): any operation that
     * can move entries bumps the generation and so invalidates the
     * cached pointer.
     */
    uint64_t &
    chunkFor(uint64_t base)
    {
        if (cacheBase_ == base && cacheGen_ == chunks_.generation())
            return *cachePtr_;
        uint64_t &bits = chunks_.findOrInsert(base);
        cacheBase_ = base;
        cachePtr_ = &bits;
        cacheGen_ = chunks_.generation();
        return bits;
    }

    /** Cache-aware lookup; nullptr when the chunk is absent. */
    const uint64_t *
    findChunk(uint64_t base) const
    {
        if (cacheBase_ == base && cacheGen_ == chunks_.generation())
            return cachePtr_;
        const uint64_t *bits = chunks_.find(base);
        if (bits) {
            cacheBase_ = base;
            cachePtr_ = const_cast<uint64_t *>(bits);
            cacheGen_ = chunks_.generation();
        }
        return bits;
    }

    /**
     * Decompose [addr, addr + size) into (chunk base, bit mask) pieces and
     * invoke fn for each. A chunk covers 64 consecutive bytes.
     */
    template <typename Fn>
    static void
    forEachChunk(uint64_t addr, uint64_t size, Fn &&fn)
    {
        while (size > 0) {
            const uint64_t base = addr >> 6;
            const unsigned offset = addr & 63;
            const uint64_t span = std::min<uint64_t>(size, 64 - offset);
            uint64_t mask;
            if (span == 64) {
                mask = ~0ull;
            } else {
                mask = ((1ull << span) - 1) << offset;
            }
            fn(base, mask);
            addr += span;
            size -= span;
        }
    }

    FlatMap64 chunks_;
    size_t population_ = 0;

    mutable uint64_t cacheBase_ = kNoBase;
    mutable uint64_t *cachePtr_ = nullptr;
    mutable uint32_t cacheGen_ = 0;
};

} // namespace webslice

#endif // WEBSLICE_SUPPORT_SPARSE_BYTE_SET_HH
