/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * One Span wraps one call from the benchmark into a layer's public
 * function. A span records its name ("layer.function"), start and end
 * on CLOCK_MONOTONIC (shared by this process and its children, so
 * spans from both line up), the span that encloses it on the same
 * thread, the request id of the profile, member or query it belongs
 * to, and the benchmark phase it ran in. Spans stay in memory and are
 * written once at the end of the run; run.py turns them into Chrome
 * trace-event JSON and computes self times.
 *
 * With tracing off a Span reads no clock and records nothing, so the
 * untraced end-to-end runs pay one branch per call.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** CLOCK_MONOTONIC in nanoseconds. */
int64_t monoNs();

struct SpanRecord
{
    std::string name;
    std::string phase;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t rid = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int pid = 0;
    uint64_t tid = 0;
    std::vector<std::pair<std::string, double>> args;
};

/** Process-wide switches and the span store. */
namespace tracer {

void enable(bool on);
bool enabled();

/** Phase stamped on spans recorded from now on (all threads). */
void setPhase(const std::string &phase);

/**
 * Parent and request id for spans opened on this thread when no span
 * is open; a child process uses them to hang its spans under the
 * parent's profile span.
 */
void setRoot(uint64_t parent, uint64_t rid);

/** Remove and return every recorded span. */
std::vector<SpanRecord> take();

/** Append the spans as a JSON array (no surrounding key). */
std::string toJson(const std::vector<SpanRecord> &spans);

} // namespace tracer

/** Scoped span; records itself on destruction when tracing is on. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric argument (ignored when tracing is off). */
    void arg(const char *key, double value);

    /** End the span now instead of at scope exit. */
    void end();

    uint64_t id() const { return rec_.id; }

  private:
    bool on_ = false;
    bool ended_ = false;
    SpanRecord rec_;
    Span *outer_ = nullptr;
};

/** Sets this thread's request id for the spans opened in its scope. */
class RequestScope
{
  public:
    explicit RequestScope(uint64_t rid);
    ~RequestScope();

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    uint64_t saved_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
