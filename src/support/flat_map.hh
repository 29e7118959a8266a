/**
 * @file
 * Open-addressing hash containers for the profiler's hottest probes.
 *
 * FlatMap64 maps uint64_t keys to uint64_t values in two flat,
 * power-of-two-sized arrays with linear probing and backward-shift
 * deletion (no tombstones, so probe chains never rot). Compared to
 * std::unordered_map this removes one pointer chase and one allocation
 * per entry, which is what the backward slicing pass spends most of its
 * time on: every trace record probes the live-memory chunk map, and
 * every in-slice record probes the pending-branch set.
 *
 * The key ~0ull is reserved as the empty-slot marker. Both of the
 * profiler's key domains stay clear of it: live-set chunk bases are
 * addr >> 6 (max 2^58 - 1) and branch pcs are 32-bit.
 */

#ifndef WEBSLICE_SUPPORT_FLAT_MAP_HH
#define WEBSLICE_SUPPORT_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webslice {

class FlatMap64
{
  public:
    /** Reserved key marking an empty slot. */
    static constexpr uint64_t kEmptyKey = ~0ull;

    FlatMap64() = default;

    /** Value slot for key, or nullptr when absent. */
    const uint64_t *
    find(uint64_t key) const
    {
        if (size_ == 0)
            return nullptr;
        const size_t slot = probe(key);
        return keys_[slot] == key ? &vals_[slot] : nullptr;
    }

    uint64_t *
    find(uint64_t key)
    {
        return const_cast<uint64_t *>(
            static_cast<const FlatMap64 *>(this)->find(key));
    }

    /**
     * find() that writes nothing, not even the probe counter: the one
     * lookup that is safe to call from many threads at once on a map
     * that nobody mutates.
     */
    const uint64_t *
    peek(uint64_t key) const
    {
        if (size_ == 0)
            return nullptr;
        const size_t slot = slotOf(key);
        return keys_[slot] == key ? &vals_[slot] : nullptr;
    }

    /**
     * Value slot for key, inserting a zero-initialized entry when absent.
     * The returned reference is invalidated by the next rehash or erase.
     */
    uint64_t &
    findOrInsert(uint64_t key)
    {
        if (capacity() == 0 || (size_ + 1) * 4 > capacity() * 3)
            grow();
        size_t slot = probe(key);
        if (keys_[slot] != key) {
            keys_[slot] = key;
            vals_[slot] = 0;
            ++size_;
        }
        return vals_[slot];
    }

    /** Remove key; true if it was present. */
    bool
    erase(uint64_t key)
    {
        if (size_ == 0)
            return false;
        size_t slot = probe(key);
        if (keys_[slot] != key)
            return false;

        // Backward-shift deletion: slide later entries of the probe chain
        // into the hole so lookups never need tombstones.
        const size_t mask = capacity() - 1;
        size_t hole = slot;
        size_t cursor = slot;
        while (true) {
            cursor = (cursor + 1) & mask;
            if (keys_[cursor] == kEmptyKey)
                break;
            const size_t ideal = mix(keys_[cursor]) & mask;
            if (((cursor - ideal) & mask) >= ((cursor - hole) & mask)) {
                keys_[hole] = keys_[cursor];
                vals_[hole] = vals_[cursor];
                hole = cursor;
            }
        }
        keys_[hole] = kEmptyKey;
        --size_;
        ++generation_;
        return true;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return keys_.size(); }

    void
    clear()
    {
        keys_.assign(keys_.size(), kEmptyKey);
        // vals_ left as-is: slots are re-zeroed on insert.
        size_ = 0;
        ++generation_;
    }

    /** Pre-size so `n` entries fit without rehashing. */
    void
    reserve(size_t n)
    {
        size_t cap = capacity() ? capacity() : kMinCapacity;
        while (n * 4 > cap * 3)
            cap <<= 1;
        if (cap != capacity())
            rehash(cap);
    }

    /**
     * Bumped whenever existing entries may have moved (rehash, erase,
     * clear); lets callers keep one-entry caches of value pointers.
     */
    uint32_t generation() const { return generation_; }

    /** Invoke fn(key, value) for every entry (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmptyKey)
                fn(keys_[i], vals_[i]);
        }
    }

    /** Bytes of heap storage currently held (diagnostics). */
    size_t
    heapBytes() const
    {
        return (keys_.capacity() + vals_.capacity()) * sizeof(uint64_t);
    }

    /** Total find/insert/erase probes over this map's lifetime
     *  (diagnostics; peek() is not counted). */
    uint64_t probeCount() const { return probes_; }

    /** Total rehashes (growth + reserve) over this map's lifetime. */
    uint64_t resizeCount() const { return resizes_; }

  private:
    static constexpr size_t kMinCapacity = 16;

    /** splitmix64 finalizer: full-avalanche 64-bit mix. */
    static uint64_t
    mix(uint64_t x)
    {
        x += 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }

    /** Slot holding key, or the empty slot where it would be inserted. */
    size_t
    slotOf(uint64_t key) const
    {
        const size_t mask = capacity() - 1;
        size_t slot = mix(key) & mask;
        while (keys_[slot] != kEmptyKey && keys_[slot] != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** slotOf(), counted in probeCount(). */
    size_t
    probe(uint64_t key) const
    {
        ++probes_;
        return slotOf(key);
    }

    void
    grow()
    {
        rehash(capacity() ? capacity() * 2 : kMinCapacity);
    }

    void
    rehash(size_t new_capacity)
    {
        ++resizes_;
        std::vector<uint64_t> old_keys = std::move(keys_);
        std::vector<uint64_t> old_vals = std::move(vals_);
        keys_.assign(new_capacity, kEmptyKey);
        vals_.assign(new_capacity, 0);
        const size_t mask = new_capacity - 1;
        for (size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey)
                continue;
            size_t slot = mix(old_keys[i]) & mask;
            while (keys_[slot] != kEmptyKey)
                slot = (slot + 1) & mask;
            keys_[slot] = old_keys[i];
            vals_[slot] = old_vals[i];
        }
        ++generation_;
    }

    std::vector<uint64_t> keys_;
    std::vector<uint64_t> vals_;
    size_t size_ = 0;
    uint32_t generation_ = 0;
    mutable uint64_t probes_ = 0;
    uint64_t resizes_ = 0;
};

/** Set of uint64_t keys on top of FlatMap64 (values unused). */
class FlatSet64
{
  public:
    /** Insert key; true if it was newly added. */
    bool
    insert(uint64_t key)
    {
        const size_t before = map_.size();
        map_.findOrInsert(key);
        return map_.size() != before;
    }

    bool contains(uint64_t key) const { return map_.find(key) != nullptr; }

    /** contains() that writes nothing (see FlatMap64::peek). */
    bool peek(uint64_t key) const { return map_.peek(key) != nullptr; }

    /** Remove key; true if it was present. */
    bool erase(uint64_t key) { return map_.erase(key); }

    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void clear() { map_.clear(); }
    void reserve(size_t n) { map_.reserve(n); }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        map_.forEach([&fn](uint64_t key, uint64_t) { fn(key); });
    }

    uint64_t probeCount() const { return map_.probeCount(); }
    uint64_t resizeCount() const { return map_.resizeCount(); }

  private:
    FlatMap64 map_;
};

} // namespace webslice

#endif // WEBSLICE_SUPPORT_FLAT_MAP_HH
