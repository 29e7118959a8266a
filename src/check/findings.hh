/**
 * @file
 * Shared finding accumulator for the verification passes.
 *
 * Every checker counts all violations it sees but keeps only the first
 * `cap` messages: a corrupted artifact typically breaks thousands of
 * invariants at once, and the report needs the pointed first few, not a
 * megabyte of repetition.
 */

#ifndef WEBSLICE_CHECK_FINDINGS_HH
#define WEBSLICE_CHECK_FINDINGS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/metrics.hh"

namespace webslice {
namespace check {

/** Bounded list of human-readable violations. */
struct Findings
{
    uint64_t total = 0;
    size_t cap = 24;
    std::vector<std::string> messages;

    void
    add(std::string message)
    {
        ++total;
        if (messages.size() < cap)
            messages.push_back(std::move(message));
    }

    bool ok() const { return total == 0; }
};

/** The findings array of the tools' JSON reports, as raw JSON:
 *  {"total": N, "messages": ["...", ...]}. */
inline std::string
findingsJson(const Findings &findings)
{
    std::string out = "{\"total\": " + std::to_string(findings.total) +
                      ", \"messages\": [";
    for (size_t i = 0; i < findings.messages.size(); ++i)
        out += (i ? ", \"" : "\"") + jsonEscape(findings.messages[i]) + '"';
    return out + "]}";
}

} // namespace check
} // namespace webslice

#endif // WEBSLICE_CHECK_FINDINGS_HH
