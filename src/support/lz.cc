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
        if (literal_len > static_cast<size_t>(src_end - p) ||
            literal_len > dst_size - out)
            return false;
        // An empty payload has no output buffer (dst may be null), and
        // memcpy's pointers must be valid even for zero bytes.
        if (literal_len)
            std::memcpy(dst + out, p, literal_len);
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
        // Overlapping copy (offset < match_len) must replay bytes as
        // they are produced: copy strictly forward.
        const uint8_t *from = dst + out - offset;
        uint8_t *to = dst + out;
        for (size_t i = 0; i < match_len; ++i)
            to[i] = from[i];
        out += match_len;
    }
}

} // namespace webslice
