/**
 * @file
 * webslice-record: run a built-in session and write its artifacts —
 * the trace, symbol table, criteria sidecar, metadata and scenario —
 * the same hand-off the paper's Pin tool performs for the offline
 * profiler.
 *
 *   webslice-record <benchmark> <output-prefix> [--format=F]
 *   webslice-record --list
 *
 *   benchmark: one of the built-in scenarios, the .scn files under
 *   scenarios/ embedded at build time (--list enumerates them, one id
 *   per line).
 *
 * Writes <prefix>.trc (records), <prefix>.sym (symbols), <prefix>.crit
 * (pixel criteria), <prefix>.meta (thread names + load-complete index)
 * and <prefix>.scn (the session, which webslice-check re-executes to
 * obtain concrete values). --format selects the trace encoding: v1
 * (default) is the flat record array, v2 the columnar compressed
 * format. The trace is always published atomically: written to
 * <prefix>.trc.tmp and renamed into place after an fsync, so a crash
 * mid-record never leaves a loadable truncation.
 */

#include <cstdio>
#include <cstring>

#include "scenario/builtins.hh"
#include "scenario/recording.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

using namespace webslice;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <benchmark> <output-prefix> "
                 "[--format=v1|v2]\n"
                 "       %s --list\n"
                 "  benchmark: a built-in scenario id (--list "
                 "enumerates them)\n"
                 "  --format: trace encoding; v1 = flat records "
                 "(default), v2 = columnar compressed\n",
                 argv0, argv0);
}

int
listBuiltins()
{
    for (const auto &builtin : scenario::builtins())
        std::printf("%s\n", builtin.id.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--list") == 0)
        return listBuiltins();
    if (argc < 3) {
        usage(argv[0]);
        return 1;
    }
    trace::TraceFormat format = trace::TraceFormat::V1;
    for (int a = 3; a < argc; ++a) {
        if (std::strcmp(argv[a], "--format=v1") == 0) {
            format = trace::TraceFormat::V1;
        } else if (std::strcmp(argv[a], "--format=v2") == 0) {
            format = trace::TraceFormat::V2;
        } else {
            usage(argv[0]);
            return 1;
        }
    }

    if (!scenario::findBuiltin(argv[1])) {
        std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n",
                     argv[1]);
        usage(argv[0]);
        return 1;
    }
    const scenario::Scenario sc = scenario::builtinScenario(argv[1]);
    std::fprintf(stderr, "recording '%s'...\n", sc.name.c_str());

    const std::string prefix = argv[2];
    const auto summary = scenario::recordScenario(sc, prefix, format);
    std::fprintf(stderr,
                 "wrote %s.{trc,sym,crit,meta,scn}: %s records, %zu "
                 "markers, load complete at index %s\n",
                 prefix.c_str(), withCommas(summary.records).c_str(),
                 summary.markers,
                 withCommas(summary.loadCompleteIndex).c_str());
    return 0;
}
