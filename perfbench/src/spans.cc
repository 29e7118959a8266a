#include "spans.hh"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <mutex>

#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextId{0};

std::mutex g_mutex;
std::vector<SpanRecord> g_spans; ///< Guarded by g_mutex.
std::string g_phase = "setup";   ///< Guarded by g_mutex.

thread_local Span *tl_current = nullptr;
thread_local uint64_t tl_rid = 0;
thread_local uint64_t tl_rootParent = 0;

uint64_t
newId()
{
    return (static_cast<uint64_t>(::getpid()) << 32) |
           (g_nextId.fetch_add(1, std::memory_order_relaxed) + 1);
}

void
appendEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

} // namespace

int64_t
monoNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace tracer {

void
enable(bool on)
{
    g_enabled.store(on);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setPhase(const std::string &phase)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_phase = phase;
}

void
setRoot(uint64_t parent, uint64_t rid)
{
    tl_rootParent = parent;
    tl_rid = rid;
}

std::vector<SpanRecord>
take()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return std::move(g_spans);
}

std::string
toJson(const std::vector<SpanRecord> &spans)
{
    std::string out = "[";
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out += i ? ",{\"n\":\"" : "{\"n\":\"";
        appendEscaped(out, s.name);
        out += "\",\"ph\":\"";
        appendEscaped(out, s.phase);
        std::snprintf(buf, sizeof(buf),
                      "\",\"id\":%llu,\"p\":%llu,\"r\":%llu,\"s\":%lld,"
                      "\"e\":%lld,\"pid\":%d,\"tid\":%llu,\"a\":{",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.rid),
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs), s.pid,
                      static_cast<unsigned long long>(s.tid));
        out += buf;
        for (size_t a = 0; a < s.args.size(); ++a) {
            out += a ? ",\"" : "\"";
            appendEscaped(out, s.args[a].first);
            std::snprintf(buf, sizeof(buf), "\":%.17g", s.args[a].second);
            out += buf;
        }
        out += "}}";
    }
    out += "]";
    return out;
}

} // namespace tracer

Span::Span(const char *name)
{
    if (!tracer::enabled())
        return;
    on_ = true;
    rec_.name = name;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        rec_.phase = g_phase;
    }
    rec_.id = newId();
    rec_.parent = tl_current ? tl_current->rec_.id : tl_rootParent;
    rec_.rid = tl_rid;
    rec_.pid = static_cast<int>(::getpid());
    rec_.tid = static_cast<uint64_t>(::syscall(SYS_gettid));
    outer_ = tl_current;
    tl_current = this;
    rec_.startNs = monoNs();
}

Span::~Span()
{
    end();
}

void
Span::arg(const char *key, double value)
{
    if (on_)
        rec_.args.emplace_back(key, value);
}

void
Span::end()
{
    if (!on_ || ended_)
        return;
    ended_ = true;
    rec_.endNs = monoNs();
    tl_current = outer_;
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(std::move(rec_));
}

RequestScope::RequestScope(uint64_t rid) : saved_(tl_rid)
{
    tl_rid = rid;
}

RequestScope::~RequestScope()
{
    tl_rid = saved_;
}

} // namespace perfbench
