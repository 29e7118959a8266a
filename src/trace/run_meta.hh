/**
 * @file
 * The recording metadata sidecar (<prefix>.meta): benchmark name,
 * load-complete record index, load-only flag, and thread names, as
 * written by webslice-record. RunMeta::windowEnd is the one rule every
 * tool and the slicing service use for the analysis window.
 */

#ifndef WEBSLICE_TRACE_RUN_META_HH
#define WEBSLICE_TRACE_RUN_META_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace webslice {
namespace trace {

/** Contents of one <prefix>.meta file. */
struct RunMeta
{
    std::string benchmark;
    size_t loadCompleteIndex = SIZE_MAX;
    bool loadOnly = false;
    std::vector<std::string> threadNames;

    /**
     * End of the analysis window over a trace of `records` records: a
     * load-only recording stops at its load-complete index (unless
     * use_window is false), and an explicit end_cap (SIZE_MAX for none)
     * caps it further.
     */
    size_t
    windowEnd(size_t records, bool use_window, size_t end_cap) const
    {
        const size_t load_end =
            use_window && loadOnly ? loadCompleteIndex : SIZE_MAX;
        return std::min({records, load_end, end_cap});
    }
};

/**
 * Load a metadata sidecar. A missing file is fine (recordings without
 * metadata are legal); a present file must parse completely — malformed
 * values and unknown keys fail with the offending line instead of being
 * silently skipped.
 */
RunMeta loadRunMeta(const std::string &path);

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_RUN_META_HH
