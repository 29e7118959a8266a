/**
 * @file
 * Process-wide metrics for the profiler pipeline.
 *
 * The paper's profiler runs for hours on a single trace; this registry is
 * what makes such a run observable instead of a black box. Three metric
 * kinds cover the pipeline's needs:
 *
 *  - Counter: a monotonically increasing total (records fed, transitions
 *    filtered, prefetch hits). Hot paths accumulate into local variables
 *    and publish once per phase, so metrics collection stays off the
 *    per-record critical path.
 *  - Gauge: a sampled value where the maximum is usually what matters
 *    (live-memory chunk high-water mark, pending-branch peak).
 *  - PhaseSpan: one wall-clock interval per pipeline phase (load, forward
 *    feed, postdom+CDG, backward pass, attribution) with the process's
 *    peak RSS sampled at phase end.
 *
 * MetricRegistry::global() is the process-wide instance every layer
 * publishes into; local instances exist for tests. metricsReportJson()
 * renders a registry (plus tool-specific extra sections) into the
 * machine-readable run report behind every tool's `--metrics-json`.
 */

#ifndef WEBSLICE_SUPPORT_METRICS_HH
#define WEBSLICE_SUPPORT_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace webslice {

/** Monotonically increasing event total. */
class Counter
{
  public:
    void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Sampled value; setMax keeps the high-water mark. */
class Gauge
{
  public:
    void set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

    void
    setMax(uint64_t v)
    {
        uint64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v &&
               !value_.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed)) {
        }
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** One completed pipeline phase. */
struct PhaseSpan
{
    std::string name;
    double wallSeconds = 0.0;
    /** Process peak RSS sampled when the phase closed (0 if unknown). */
    uint64_t peakRssBytes = 0;
};

/**
 * Named counters, gauges, and phase spans. Registration is mutex
 * protected; the returned Counter/Gauge references are stable for the
 * registry's lifetime, so hot code looks a metric up once and keeps the
 * reference.
 */
class MetricRegistry
{
  public:
    /** The process-wide registry every pipeline layer publishes into. */
    static MetricRegistry &global();

    /** Find-or-create a counter. */
    Counter &counter(const std::string &name);

    /** Find-or-create a gauge. */
    Gauge &gauge(const std::string &name);

    /** Record one completed phase (spans keep insertion order). */
    void addSpan(PhaseSpan span);

    /** Drop every metric; for tests and repeated benchmark sections. */
    void reset();

    /** Sorted (name, value) snapshots. */
    std::vector<std::pair<std::string, uint64_t>> counterValues() const;
    std::vector<std::pair<std::string, uint64_t>> gaugeValues() const;
    std::vector<PhaseSpan> spans() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::vector<PhaseSpan> spans_;
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(std::string_view text);

/**
 * Render the machine-readable run report: schema tag, tool name, phase
 * spans, counters, and gauges from `reg`, followed by tool-specific
 * sections given as (key, raw JSON value) pairs, in order. Tools with
 * their own report contract (webslice-check) pass their own schema tag.
 */
std::string metricsReportJson(
    const MetricRegistry &reg, std::string_view tool,
    const std::vector<std::pair<std::string, std::string>> &extras = {},
    std::string_view schema = "webslice-metrics-v1");

/**
 * Write metricsReportJson() to a file; fatal on I/O failure. The path
 * "-" writes the report to stdout instead (followed by a newline), so
 * callers can pipe `--metrics-json -` straight into a consumer.
 */
void writeMetricsReport(
    const std::string &path, const MetricRegistry &reg,
    std::string_view tool,
    const std::vector<std::pair<std::string, std::string>> &extras = {},
    std::string_view schema = "webslice-metrics-v1");

/** Current resident set size in bytes (0 when the platform hides it). */
uint64_t currentRssBytes();

/** Process-lifetime peak resident set size in bytes (0 if unknown). */
uint64_t peakRssBytes();

/** Size and FNV-1a-64 content digest of an artifact file. */
struct FileDigest
{
    bool ok = false;
    uint64_t bytes = 0;
    uint64_t fnv1a = 0;
};

/** Digest a file's contents (streamed; ok=false when unreadable). */
FileDigest digestFile(const std::string &path);

/**
 * Digest the contents of an open file from offset 0 (positional reads,
 * so the descriptor's own offset is left alone); equals digestFile of
 * the same bytes.
 */
FileDigest digestDescriptor(int fd);

/** FNV-1a-64 offset basis (the seed digestFile starts from). */
constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;

/**
 * FNV-1a-64 over an in-memory buffer, chainable via `seed`. Matches
 * digestFile byte for byte, so an in-memory hash of a file's contents
 * equals the file's digest.
 */
uint64_t fnv1a64(const void *data, size_t bytes,
                 uint64_t seed = kFnv1a64Offset);

} // namespace webslice

#endif // WEBSLICE_SUPPORT_METRICS_HH
