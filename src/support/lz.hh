/**
 * @file
 * Small self-contained LZ block codec (LZ4-style byte stream).
 *
 * The columnar trace format compresses each column-encoded block with
 * this codec before it hits disk. The format is a classic
 * token/literals/match sequence stream: greedy matching against a
 * single-entry hash table, 16-bit match offsets (64 KiB window), and a
 * 4-byte minimum match. That is deliberately the simple end of the LZ
 * family — there is no entropy stage, and decode copies literals and
 * matches in fixed 8-, 16- and 32-byte chunks wherever the buffers
 * leave room (a one-byte run is a memset), so the decode path (the hot
 * side: every block seek pays it) runs at memcpy order of magnitude,
 * while the repetitive delta-varint columns the trace encoder produces
 * still compress by several x.
 *
 * The codec is format-stable: compressed blocks are persisted in .trc
 * v2 files, so the byte stream below must not change shape.
 */

#ifndef WEBSLICE_SUPPORT_LZ_HH
#define WEBSLICE_SUPPORT_LZ_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webslice {

/**
 * Compress `size` bytes at `src` into `out` (appended; `out` is not
 * cleared). Always succeeds; incompressible input degrades to literal
 * runs with a bounded overhead of ~1/255 plus a few bytes.
 */
void lzCompress(const uint8_t *src, size_t size, std::vector<uint8_t> &out);

/**
 * Decompress a stream produced by lzCompress into exactly `dst_size`
 * bytes at `dst`.
 * @retval false when the stream is malformed or does not decode to
 *         exactly dst_size bytes (truncated/corrupt input); the caller
 *         owns the loud failure path with file context.
 */
bool lzDecompress(const uint8_t *src, size_t src_size, uint8_t *dst,
                  size_t dst_size);

} // namespace webslice

#endif // WEBSLICE_SUPPORT_LZ_HH
