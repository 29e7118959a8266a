/**
 * @file
 * The webslice-serve-v1 wire protocol.
 *
 * Transport: length-prefixed JSON frames over a stream socket (Unix
 * domain by default, optionally loopback TCP). A frame is a 4-byte
 * little-endian payload length followed by exactly that many bytes of
 * UTF-8 JSON — one value per frame. Lengths of zero or beyond
 * kMaxFrameBytes are protocol violations and close the connection;
 * nothing in the protocol requires buffering more than one frame.
 *
 * Requests are objects with an "op" member:
 *   {"op":"ping"}
 *   {"op":"stats"}
 *   {"op":"shutdown"}                       — begin graceful drain
 *   {"op":"batch","prefix":P,"queries":[Q…]} — slice queries, see
 *       SliceQuery for the per-query members.
 *
 * A batch answers with one {"op":"result","id":i,…} frame per query —
 * streamed as results become available, in submission order — followed
 * by a closing {"op":"batch_done",…} summary. Every response object
 * carries "schema":"webslice-serve-v1" and "status". Errors never kill
 * the daemon: a malformed request or a failed artifact load turns into
 * a status:"error" response whose "error" string carries the loader's
 * file+offset diagnostic verbatim.
 */

#ifndef WEBSLICE_SERVICE_PROTOCOL_HH
#define WEBSLICE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/json.hh"
#include "slicer/slicer.hh"

namespace webslice {
namespace service {

/** Schema tag stamped on every response frame. */
constexpr char kServeSchema[] = "webslice-serve-v1";

/** Hard ceiling on a frame payload; beyond it the peer is misbehaving. */
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/** Outcome of one frame read. */
enum class FrameRead
{
    Ok,    ///< A complete frame was read.
    Eof,   ///< The peer closed cleanly between frames.
    Error, ///< I/O error or protocol violation (see error string).
};

/**
 * Read one length-prefixed frame from `fd` into `payload`. A clean EOF
 * before any prefix byte reports Eof; a truncated prefix or payload, a
 * zero length, or a length above `max_bytes` reports Error.
 */
FrameRead readFrame(int fd, std::string &payload, std::string &error,
                    uint32_t max_bytes = kMaxFrameBytes);

/**
 * Write one length-prefixed frame; false (with error) on failure. The
 * validity rules mirror readFrame exactly — empty payloads and payloads
 * beyond `max_bytes` are refused before any byte hits the wire, so a
 * conforming writer can never produce a frame a conforming reader
 * rejects. `errno_out` (optional) receives the errno of a failed
 * write, 0 for a validation refusal — callers use it to tell a
 * vanished peer (EPIPE/ECONNRESET) from a sick socket.
 */
bool writeFrame(int fd, std::string_view payload, std::string &error,
                uint32_t max_bytes = kMaxFrameBytes,
                int *errno_out = nullptr);

/** One slicing criterion of a batch request. */
struct SliceQuery
{
    slicer::CriteriaMode mode = slicer::CriteriaMode::PixelBuffer;

    /** Ignore the metadata load-complete window (profile --no-window). */
    bool noWindow = false;

    /** Extra window cap (exclusive record index); UINT64_MAX = none. */
    uint64_t endIndex = UINT64_MAX;

    /** Accepted on the wire (SlicerOptions::backwardJobs); the value no
     *  longer changes how the query runs. */
    int backwardJobs = 1;

    /** Queue deadline in milliseconds; 0 = wait however long it takes.
     *  Checked when the query is dequeued, before its run starts. */
    uint64_t timeoutMs = 0;

    /** Test hook: sleep this long at run start (after dequeue, before
     *  the deadline check of the *next* queued job can pass). */
    uint64_t debugSleepMs = 0;

    /**
     * Canonical identity of the work this query requests against one
     * recording; in-flight requests with equal keys are deduplicated.
     * Excludes timeoutMs — a deadline changes when a caller gives up,
     * not what is computed.
     */
    std::string dedupKey(uint64_t session_identity) const;

    Json toJson() const;

    /** Parse a query object; false + error on malformed members. */
    static bool fromJson(const Json &json, SliceQuery &out,
                         std::string &error);
};

/** One query's response, as carried by a "result" frame. */
struct QueryResult
{
    enum class Status
    {
        Ok,
        Error,    ///< Load or analysis failure; `error` explains.
        Rejected, ///< Bounded queue was full (backpressure).
        Timeout,  ///< Deadline passed while queued.
    };

    Status status = Status::Error;
    std::string error;

    /** Fleet identity: which shard computed this result, and that
     *  shard's generation. Empty/0 outside fleet deployments. A
     *  fleet-aware client uses these to attribute results after a
     *  mid-batch failover. */
    std::string shard;
    uint64_t shardEpoch = 0;

    // Scheduling telemetry.
    bool cacheHit = false; ///< Session served from the cache.
    /** Answered from the result memo: no slice ran, so sliceMs is 0. */
    bool memoHit = false;
    /** Never set; kept because perfbench/src/serve_mixed.cc reads it. */
    bool planHit = false;
    bool deduped = false;  ///< Attached to an identical in-flight query.
    double queueMs = 0.0;
    double runMs = 0.0;
    double sliceMs = 0.0; ///< Backward pass only (inside runMs).

    // Slice summary (valid when status == Ok).
    std::string mode;
    uint64_t records = 0;
    uint64_t windowEnd = 0;
    uint64_t instructionsAnalyzed = 0;
    uint64_t sliceInstructions = 0;
    uint64_t criteriaBytesSeeded = 0;
    double slicePercent = 0.0;
    /** FNV-1a-64 of the per-record verdict bytes — the bit-identity
     *  handle compared against webslice-profile's in_slice_fnv1a. */
    uint64_t inSliceFnv1a = 0;

    // Categorization summary (valid when status == Ok).
    double categoryCoveragePercent = 0.0;
    std::vector<std::pair<std::string, double>> categoryShares;

    static const char *statusName(Status s);

    /** Render as a "result" frame body for query index `id`. */
    Json toJson(size_t id) const;

    /** Parse a "result" frame body (the client's side). */
    static bool fromJson(const Json &json, QueryResult &out,
                         std::string &error);
};

/** Build an error response frame body (non-result, e.g. bad request). */
Json errorResponse(const std::string &message);

} // namespace service
} // namespace webslice

#endif // WEBSLICE_SERVICE_PROTOCOL_HH
