#include "service/protocol.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "support/strings.hh"

namespace webslice {
namespace service {

namespace {

/** Read exactly `n` bytes; returns bytes read (short only on EOF/error). */
ssize_t
readFully(int fd, void *buf, size_t n)
{
    auto *p = static_cast<char *>(buf);
    size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, p + got, n - got);
        if (r == 0)
            break;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        got += static_cast<size_t>(r);
    }
    return static_cast<ssize_t>(got);
}

const char *
modeName(slicer::CriteriaMode mode)
{
    return mode == slicer::CriteriaMode::PixelBuffer ? "pixel-buffer"
                                                     : "syscalls";
}

} // namespace

FrameRead
readFrame(int fd, std::string &payload, std::string &error,
          uint32_t max_bytes)
{
    unsigned char prefix[4];
    const ssize_t got = readFully(fd, prefix, sizeof(prefix));
    if (got == 0)
        return FrameRead::Eof;
    if (got < 0) {
        error = format("frame prefix read failed: %s",
                       std::strerror(errno));
        return FrameRead::Error;
    }
    if (got != sizeof(prefix)) {
        error = format("truncated frame prefix (%zd of 4 bytes)", got);
        return FrameRead::Error;
    }
    const uint32_t length = static_cast<uint32_t>(prefix[0]) |
                            static_cast<uint32_t>(prefix[1]) << 8 |
                            static_cast<uint32_t>(prefix[2]) << 16 |
                            static_cast<uint32_t>(prefix[3]) << 24;
    if (length == 0) {
        error = "zero-length frame";
        return FrameRead::Error;
    }
    if (length > max_bytes) {
        error = format("frame of %u bytes exceeds the %u byte limit",
                       length, max_bytes);
        return FrameRead::Error;
    }
    payload.resize(length);
    const ssize_t body = readFully(fd, payload.data(), length);
    if (body != static_cast<ssize_t>(length)) {
        error = format("truncated frame payload (%zd of %u bytes)",
                       body < 0 ? 0 : body, length);
        return FrameRead::Error;
    }
    return FrameRead::Ok;
}

bool
writeFrame(int fd, std::string_view payload, std::string &error,
           uint32_t max_bytes, int *errno_out)
{
    if (errno_out != nullptr)
        *errno_out = 0;
    // Mirror readFrame's validity rules bit for bit: zero-length and
    // over-limit frames are refused on the way out, not just rejected
    // on the way in.
    if (payload.empty() || payload.size() > max_bytes) {
        error = format("refusing to write a %zu byte frame "
                       "(limit %u, minimum 1)",
                       payload.size(), max_bytes);
        return false;
    }
    const uint32_t length = static_cast<uint32_t>(payload.size());
    unsigned char prefix[4] = {
        static_cast<unsigned char>(length & 0xFF),
        static_cast<unsigned char>((length >> 8) & 0xFF),
        static_cast<unsigned char>((length >> 16) & 0xFF),
        static_cast<unsigned char>((length >> 24) & 0xFF),
    };
    // One contiguous buffer keeps the write atomic-ish for small frames
    // and simplifies the EINTR loop.
    std::string wire;
    wire.reserve(sizeof(prefix) + payload.size());
    wire.append(reinterpret_cast<char *>(prefix), sizeof(prefix));
    wire.append(payload);
    size_t sent = 0;
    while (sent < wire.size()) {
        const ssize_t w = ::write(fd, wire.data() + sent,
                                  wire.size() - sent);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno_out != nullptr)
                *errno_out = errno;
            error = format("frame write failed: %s",
                           std::strerror(errno));
            return false;
        }
        sent += static_cast<size_t>(w);
    }
    return true;
}

std::string
SliceQuery::dedupKey(uint64_t session_identity) const
{
    return format("%016llx|%s|%d|%llu|%d|%llu",
                  static_cast<unsigned long long>(session_identity),
                  modeName(mode), noWindow ? 1 : 0,
                  static_cast<unsigned long long>(endIndex), backwardJobs,
                  static_cast<unsigned long long>(debugSleepMs));
}

Json
SliceQuery::toJson() const
{
    Json j = Json::object();
    j.set("mode", Json::string(modeName(mode)));
    if (noWindow)
        j.set("no_window", Json::boolean(true));
    if (endIndex != UINT64_MAX)
        j.set("end_index", Json::integer(static_cast<int64_t>(endIndex)));
    if (backwardJobs != 1)
        j.set("backward_jobs", Json::integer(backwardJobs));
    if (timeoutMs != 0)
        j.set("timeout_ms",
              Json::integer(static_cast<int64_t>(timeoutMs)));
    if (debugSleepMs != 0)
        j.set("debug_sleep_ms",
              Json::integer(static_cast<int64_t>(debugSleepMs)));
    return j;
}

bool
SliceQuery::fromJson(const Json &json, SliceQuery &out, std::string &error)
{
    if (!json.isObject()) {
        error = "query must be a JSON object";
        return false;
    }
    out = SliceQuery();
    for (const auto &member : json.members()) {
        const std::string &key = member.first;
        const Json &value = member.second;
        if (key == "mode") {
            const std::string &mode = value.asString();
            if (mode == "pixel-buffer" || mode == "pixel") {
                out.mode = slicer::CriteriaMode::PixelBuffer;
            } else if (mode == "syscalls") {
                out.mode = slicer::CriteriaMode::Syscalls;
            } else {
                error = format("unknown criteria mode '%s'",
                               mode.c_str());
                return false;
            }
        } else if (key == "no_window") {
            if (!value.isBool()) {
                error = "no_window must be a boolean";
                return false;
            }
            out.noWindow = value.asBool();
        } else if (key == "end_index") {
            if (!value.isInt() || value.asInt() < 0) {
                error = "end_index must be a non-negative integer";
                return false;
            }
            out.endIndex = static_cast<uint64_t>(value.asInt());
        } else if (key == "backward_jobs") {
            if (!value.isInt() || value.asInt() < 0 ||
                value.asInt() > (1 << 16)) {
                error = "backward_jobs must be an integer in [0, 65536]";
                return false;
            }
            out.backwardJobs = static_cast<int>(value.asInt());
        } else if (key == "timeout_ms") {
            if (!value.isInt() || value.asInt() < 0) {
                error = "timeout_ms must be a non-negative integer";
                return false;
            }
            out.timeoutMs = static_cast<uint64_t>(value.asInt());
        } else if (key == "debug_sleep_ms") {
            if (!value.isInt() || value.asInt() < 0) {
                error = "debug_sleep_ms must be a non-negative integer";
                return false;
            }
            out.debugSleepMs = static_cast<uint64_t>(value.asInt());
        } else {
            // Unknown members are rejected, mirroring the CLIs' strict
            // flag parsing: a typoed criterion must not silently slice
            // something else.
            error = format("unknown query member '%s'", key.c_str());
            return false;
        }
    }
    return true;
}

const char *
QueryResult::statusName(Status s)
{
    switch (s) {
      case Status::Ok: return "ok";
      case Status::Error: return "error";
      case Status::Rejected: return "rejected";
      case Status::Timeout: return "timeout";
    }
    return "error";
}

Json
QueryResult::toJson(size_t id) const
{
    Json j = Json::object();
    j.set("schema", Json::string(kServeSchema));
    j.set("op", Json::string("result"));
    j.set("id", Json::integer(static_cast<int64_t>(id)));
    j.set("status", Json::string(statusName(status)));
    if (!error.empty())
        j.set("error", Json::string(error));
    if (!shard.empty()) {
        j.set("shard", Json::string(shard));
        j.set("shard_epoch",
              Json::integer(static_cast<int64_t>(shardEpoch)));
    }
    j.set("cache_hit", Json::boolean(cacheHit));
    j.set("memo_hit", Json::boolean(memoHit));
    j.set("deduped", Json::boolean(deduped));
    j.set("queue_ms", Json::number(queueMs));
    j.set("run_ms", Json::number(runMs));
    j.set("slice_ms", Json::number(sliceMs));
    if (status != Status::Ok)
        return j;

    Json slice = Json::object();
    slice.set("mode", Json::string(mode));
    slice.set("records", Json::integer(static_cast<int64_t>(records)));
    slice.set("window_end",
              Json::integer(static_cast<int64_t>(windowEnd)));
    slice.set("instructions_analyzed",
              Json::integer(static_cast<int64_t>(instructionsAnalyzed)));
    slice.set("slice_instructions",
              Json::integer(static_cast<int64_t>(sliceInstructions)));
    slice.set("criteria_bytes_seeded",
              Json::integer(static_cast<int64_t>(criteriaBytesSeeded)));
    slice.set("slice_percent", Json::number(slicePercent));
    slice.set("in_slice_fnv1a",
              Json::string(format("0x%016llx",
                                  static_cast<unsigned long long>(
                                      inSliceFnv1a))));
    j.set("slice", std::move(slice));

    Json categories = Json::object();
    categories.set("coverage_percent",
                   Json::number(categoryCoveragePercent));
    Json shares = Json::object();
    for (const auto &share : categoryShares)
        shares.set(share.first, Json::number(share.second));
    categories.set("shares", std::move(shares));
    j.set("categories", std::move(categories));
    return j;
}

bool
QueryResult::fromJson(const Json &json, QueryResult &out,
                      std::string &error)
{
    out = QueryResult();
    if (!json.isObject() || !json.find("status")) {
        error = "result frame must be an object with a status";
        return false;
    }
    const std::string &status = json.find("status")->asString();
    if (status == "ok") {
        out.status = Status::Ok;
    } else if (status == "error") {
        out.status = Status::Error;
    } else if (status == "rejected") {
        out.status = Status::Rejected;
    } else if (status == "timeout") {
        out.status = Status::Timeout;
    } else {
        error = format("unknown result status '%s'", status.c_str());
        return false;
    }
    if (const Json *e = json.find("error"))
        out.error = e->asString();
    if (const Json *v = json.find("shard"))
        out.shard = v->asString();
    if (const Json *v = json.find("shard_epoch"))
        out.shardEpoch = static_cast<uint64_t>(v->asInt());
    if (const Json *v = json.find("cache_hit"))
        out.cacheHit = v->asBool();
    if (const Json *v = json.find("memo_hit"))
        out.memoHit = v->asBool();
    if (const Json *v = json.find("deduped"))
        out.deduped = v->asBool();
    if (const Json *v = json.find("queue_ms"))
        out.queueMs = v->asDouble();
    if (const Json *v = json.find("run_ms"))
        out.runMs = v->asDouble();
    if (const Json *v = json.find("slice_ms"))
        out.sliceMs = v->asDouble();
    if (const Json *slice = json.find("slice")) {
        const auto u64 = [&](const char *key) -> uint64_t {
            const Json *v = slice->find(key);
            return v ? static_cast<uint64_t>(v->asInt()) : 0;
        };
        if (const Json *v = slice->find("mode"))
            out.mode = v->asString();
        out.records = u64("records");
        out.windowEnd = u64("window_end");
        out.instructionsAnalyzed = u64("instructions_analyzed");
        out.sliceInstructions = u64("slice_instructions");
        out.criteriaBytesSeeded = u64("criteria_bytes_seeded");
        if (const Json *v = slice->find("slice_percent"))
            out.slicePercent = v->asDouble();
        if (const Json *v = slice->find("in_slice_fnv1a")) {
            const std::string &hex = v->asString();
            out.inSliceFnv1a =
                std::strtoull(hex.c_str(), nullptr, 16);
        }
    }
    if (const Json *categories = json.find("categories")) {
        if (const Json *v = categories->find("coverage_percent"))
            out.categoryCoveragePercent = v->asDouble();
        if (const Json *shares = categories->find("shares")) {
            for (const auto &member : shares->members())
                out.categoryShares.emplace_back(
                    member.first, member.second.asDouble());
        }
    }
    return true;
}

Json
errorResponse(const std::string &message)
{
    Json j = Json::object();
    j.set("schema", Json::string(kServeSchema));
    j.set("op", Json::string("error"));
    j.set("status", Json::string("error"));
    j.set("error", Json::string(message));
    return j;
}

} // namespace service
} // namespace webslice
