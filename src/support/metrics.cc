#include "support/metrics.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define WEBSLICE_HAVE_RUSAGE 1
#endif

#include "support/logging.hh"

namespace webslice {

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

void
MetricRegistry::addSpan(PhaseSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    spans_.clear();
}

std::vector<std::pair<std::string, uint64_t>>
MetricRegistry::counterValues() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &kv : counters_)
        out.emplace_back(kv.first, kv.second->value());
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
MetricRegistry::gaugeValues() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(gauges_.size());
    for (const auto &kv : gauges_)
        out.emplace_back(kv.first, kv.second->value());
    return out;
}

std::vector<PhaseSpan>
MetricRegistry::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
metricsReportJson(
    const MetricRegistry &reg, std::string_view tool,
    const std::vector<std::pair<std::string, std::string>> &extras,
    std::string_view schema)
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"" + jsonEscape(schema) + "\",\n";
    out += "  \"tool\": \"" + jsonEscape(tool) + "\",\n";

    out += "  \"phases\": [\n";
    const auto spans = reg.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                      "\"peak_rss_bytes\": %llu}%s\n",
                      jsonEscape(spans[i].name).c_str(),
                      spans[i].wallSeconds,
                      static_cast<unsigned long long>(spans[i].peakRssBytes),
                      i + 1 < spans.size() ? "," : "");
        out += buf;
    }
    out += "  ],\n";

    const auto emitMap =
        [&out](const char *key,
               const std::vector<std::pair<std::string, uint64_t>> &vals) {
            out += "  \"";
            out += key;
            out += "\": {\n";
            for (size_t i = 0; i < vals.size(); ++i) {
                char buf[256];
                std::snprintf(buf, sizeof(buf), "    \"%s\": %llu%s\n",
                              jsonEscape(vals[i].first).c_str(),
                              static_cast<unsigned long long>(
                                  vals[i].second),
                              i + 1 < vals.size() ? "," : "");
                out += buf;
            }
            out += "  }";
        };

    emitMap("counters", reg.counterValues());
    out += ",\n";
    emitMap("gauges", reg.gaugeValues());

    for (const auto &extra : extras) {
        out += ",\n  \"" + jsonEscape(extra.first) + "\": ";
        out += extra.second;
    }
    out += "\n}\n";
    return out;
}

void
writeMetricsReport(
    const std::string &path, const MetricRegistry &reg,
    std::string_view tool,
    const std::vector<std::pair<std::string, std::string>> &extras,
    std::string_view schema)
{
    const std::string json = metricsReportJson(reg, tool, extras, schema);
    if (path == "-") {
        // Stdout mode: the report is the tool's pipeable output.
        fatal_if(std::fwrite(json.data(), 1, json.size(), stdout) !=
                     json.size(),
                 "short write of metrics report to stdout");
        std::fputc('\n', stdout);
        std::fflush(stdout);
        return;
    }
    std::FILE *file = std::fopen(path.c_str(), "w");
    fatal_if(!file, "cannot write metrics report ", path);
    fatal_if(std::fwrite(json.data(), 1, json.size(), file) != json.size(),
             "short write to metrics report ", path);
    std::fclose(file);
}

uint64_t
currentRssBytes()
{
#if defined(__linux__)
    // /proc/self/statm: size resident shared ... in pages.
    std::FILE *statm = std::fopen("/proc/self/statm", "r");
    if (!statm)
        return 0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(statm, "%llu %llu", &size, &resident);
    std::fclose(statm);
    if (got != 2)
        return 0;
    return resident * 4096ull;
#else
    return 0;
#endif
}

uint64_t
peakRssBytes()
{
#ifdef WEBSLICE_HAVE_RUSAGE
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(usage.ru_maxrss); // bytes on macOS
#else
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024ull; // KiB on Linux
#endif
#else
    return 0;
#endif
}

FileDigest
digestFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return {};
    const FileDigest digest = digestDescriptor(fd);
    ::close(fd);
    return digest;
}

FileDigest
digestDescriptor(int fd)
{
    FileDigest digest;
    uint64_t hash = kFnv1a64Offset;
    char buf[1 << 16];
    while (true) {
        const ssize_t got = ::pread(fd, buf, sizeof(buf),
                                    static_cast<off_t>(digest.bytes));
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            return {};
        if (got == 0)
            break;
        hash = fnv1a64(buf, static_cast<size_t>(got), hash);
        digest.bytes += static_cast<uint64_t>(got);
    }
    digest.fnv1a = hash;
    digest.ok = true;
    return digest;
}

uint64_t
fnv1a64(const void *data, size_t bytes, uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ull; // FNV-1a prime
    }
    return hash;
}

} // namespace webslice
