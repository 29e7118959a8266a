#include "support/lz.hh"

#include <cstring>

namespace webslice {

namespace {

// Stream shape (LZ4-flavoured): a sequence of
//   token byte: (literalLen:4 | matchLen:4)
//   [literalLen extension bytes of 255 while the nibble is 15]
//   literal bytes
//   2-byte LE match offset (absent after the final literals)
//   [matchLen extension bytes of 255 while the nibble is 15]
// Match length nibble encodes (length - kMinMatch).
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 0xFFFF;
constexpr unsigned kHashBits = 13;

uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
putLength(size_t len, std::vector<uint8_t> &out)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<uint8_t>(len));
}

void
emitSequence(const uint8_t *literals, size_t literal_len, size_t offset,
             size_t match_len, std::vector<uint8_t> &out)
{
    const uint8_t lit_nibble =
        static_cast<uint8_t>(literal_len < 15 ? literal_len : 15);
    size_t match_code = 0;
    uint8_t match_nibble = 0;
    if (match_len) {
        match_code = match_len - kMinMatch;
        match_nibble =
            static_cast<uint8_t>(match_code < 15 ? match_code : 15);
    }
    out.push_back(static_cast<uint8_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15)
        putLength(literal_len - 15, out);
    out.insert(out.end(), literals, literals + literal_len);
    if (!match_len)
        return; // final literal run: no offset, no match extension
    out.push_back(static_cast<uint8_t>(offset & 0xFF));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_nibble == 15)
        putLength(match_code - 15, out);
}

} // namespace

void
lzCompress(const uint8_t *src, size_t size, std::vector<uint8_t> &out)
{
    // Final-literals convention: the stream always ends with a
    // match-less token, so empty input encodes as a single zero token.
    uint32_t table[1u << kHashBits];
    std::memset(table, 0xFF, sizeof(table)); // 0xFFFFFFFF = empty slot

    size_t pos = 0;
    size_t literal_start = 0;
    // Stop matching kMinMatch short of the end so hash4 stays in range.
    const size_t match_limit = size >= kMinMatch ? size - kMinMatch + 1 : 0;
    while (pos < match_limit) {
        const uint32_t h = hash4(src + pos);
        const uint32_t candidate = table[h];
        table[h] = static_cast<uint32_t>(pos);
        if (candidate != 0xFFFFFFFFu && pos - candidate <= kMaxOffset &&
            std::memcmp(src + candidate, src + pos, kMinMatch) == 0) {
            size_t len = kMinMatch;
            while (pos + len < size && src[candidate + len] == src[pos + len])
                ++len;
            emitSequence(src + literal_start, pos - literal_start,
                         pos - candidate, len, out);
            // Seed the table inside the match so the next search can
            // find overlapping repetitions (cheap, big win on the
            // near-periodic delta columns).
            const size_t end = pos + len;
            pos += 1;
            while (pos < end && pos < match_limit) {
                table[hash4(src + pos)] = static_cast<uint32_t>(pos);
                pos += 2;
            }
            pos = end;
            literal_start = pos;
        } else {
            ++pos;
        }
    }
    emitSequence(src + literal_start, size - literal_start, 0, 0, out);
}

namespace {

/** Read a 255-extended length; false on truncation. */
bool
readLength(const uint8_t *&p, const uint8_t *end, size_t &len)
{
    while (true) {
        if (p >= end)
            return false;
        const uint8_t b = *p++;
        len += b;
        if (b != 255)
            return true;
    }
}

/** `len` rounded up to a whole number of `Stride`-byte chunks. */
template <size_t Stride>
size_t
strideSpan(size_t len)
{
    return (len + Stride - 1) & ~(Stride - 1);
}

/**
 * Copy `len` bytes in whole `Stride`-byte chunks, front to back. The
 * last chunk may run up to Stride - 1 bytes past `len`, so the caller
 * guarantees strideSpan<Stride>(len) readable bytes at `from` and
 * writable bytes at `to`. A chunk never overlaps its own source when
 * `to - from >= Stride`, so a match at such an offset may use it: each
 * chunk reads only bytes written before it.
 */
template <size_t Stride>
void
copyStrided(uint8_t *to, const uint8_t *from, size_t len)
{
    for (size_t i = 0; i < len; i += Stride)
        std::memcpy(to + i, from + i, Stride);
}

/**
 * Copy `len` literal bytes. Chunked copies may read and write past the
 * literal's end (into bytes the next sequence overwrites) only while
 * `src_room` and `dst_room` cover the whole chunk.
 */
void
copyLiterals(uint8_t *to, const uint8_t *from, size_t len, size_t src_room,
             size_t dst_room)
{
    const size_t room = src_room < dst_room ? src_room : dst_room;
    if (len <= 16 && room >= 16)
        std::memcpy(to, from, 16);
    else if (strideSpan<32>(len) <= room)
        copyStrided<32>(to, from, len); // len 0 lands here: no copy
    else
        std::memcpy(to, from, len); // len >= 1: both pointers are real
}

/**
 * Replay a match `offset` bytes back. Overlapping matches
 * (offset < len) must repeat bytes as they are produced, which every
 * branch does: offset 1 is a run of one byte, the chunked copies only
 * run at offsets of at least their chunk, and the rest go byte by byte.
 */
void
copyMatch(uint8_t *to, size_t offset, size_t len, size_t dst_room)
{
    const uint8_t *from = to - offset;
    if (offset == 1)
        std::memset(to, *from, len);
    else if (offset >= 32 && strideSpan<32>(len) <= dst_room)
        copyStrided<32>(to, from, len);
    else if (offset >= 16 && strideSpan<16>(len) <= dst_room)
        copyStrided<16>(to, from, len);
    else if (offset >= 8 && strideSpan<8>(len) <= dst_room)
        copyStrided<8>(to, from, len);
    else
        for (size_t i = 0; i < len; ++i)
            to[i] = from[i];
}

} // namespace

bool
lzDecompress(const uint8_t *src, size_t src_size, uint8_t *dst,
             size_t dst_size)
{
    const uint8_t *p = src;
    const uint8_t *const src_end = src + src_size;
    size_t out = 0;
    while (true) {
        if (p >= src_end)
            return false; // stream ended without a final-literals token
        const uint8_t token = *p++;
        size_t literal_len = token >> 4;
        if (literal_len == 15 && !readLength(p, src_end, literal_len))
            return false;
        const size_t src_room = static_cast<size_t>(src_end - p);
        if (literal_len > src_room || literal_len > dst_size - out)
            return false;
        copyLiterals(dst + out, p, literal_len, src_room, dst_size - out);
        p += literal_len;
        out += literal_len;

        if (p == src_end) {
            // Stream end is only legal on a match-less final token.
            return (token & 0x0F) == 0 && out == dst_size;
        }
        if (src_end - p < 2)
            return false;
        const size_t offset = static_cast<size_t>(p[0]) |
                              (static_cast<size_t>(p[1]) << 8);
        p += 2;
        size_t match_len = (token & 0x0F);
        if (match_len == 15 && !readLength(p, src_end, match_len))
            return false;
        match_len += kMinMatch;
        if (offset == 0 || offset > out || match_len > dst_size - out)
            return false;
        copyMatch(dst + out, offset, match_len, dst_size - out);
        out += match_len;
    }
}

} // namespace webslice
