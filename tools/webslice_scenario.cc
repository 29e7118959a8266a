/**
 * @file
 * webslice-scenario: the scenario subsystem's command-line front end.
 *
 *   webslice-scenario describe
 *       Enumerate the built-in scenarios (one id per line, with the
 *       scenario's name) and the generator's knobs.
 *
 *   webslice-scenario generate --seed N [--knob key=value]... [-o F]
 *   webslice-scenario generate --builtin <id> [-o F]
 *       Deterministically synthesize a scenario (or export a built-in)
 *       and print/write its canonical .scn text. The same seed+knobs
 *       always emit the same bytes; the built-ins are the files under
 *       scenarios/, which are canonical, so --builtin prints them
 *       verbatim.
 *
 *   webslice-scenario run <file.scn | builtin-id> <output-prefix>
 *                     [--format=v1|v2] [--metrics-json F]
 *       Record one scenario: writes <prefix>.trc/.sym/.crit/.meta/.scn
 *       through the same publish function as webslice-record, so every
 *       downstream tool (webslice-profile, webslice-check,
 *       webslice-static, the service fleet) consumes the artifacts
 *       unchanged. Refuses a prefix whose .scn is the input file.
 *
 *   webslice-scenario sweep --seeds A..B [--knob key=v1,v2]...
 *                     --out-dir D [--metrics-json F]
 *       Cross-product of every knob value list against every seed; each
 *       member gets its recorded artifacts (its .scn included) under D.
 *       The metrics report (schema webslice-scenario-v1) carries one
 *       entry per recording: record count, trace bytes + digest, load
 *       index.
 */

#include <cstdio>
#include <cstring>
#include <fstream>

#include "scenario/builtins.hh"
#include "scenario/generator.hh"
#include "scenario/recording.hh"
#include "scenario/scenario.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

using namespace webslice;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s describe\n"
        "       %s generate --seed N [--knob key=value]... [-o file]\n"
        "       %s generate --builtin <id> [-o file]\n"
        "       %s run <file.scn | builtin-id> <output-prefix>\n"
        "             [--format=v1|v2] [--metrics-json F]\n"
        "       %s sweep --seeds A..B [--knob key=v1,v2]... --out-dir D\n"
        "             [--format=v1|v2] [--metrics-json F]\n",
        argv0, argv0, argv0, argv0, argv0);
}

int
describe()
{
    std::printf("built-in scenarios (webslice-scenario run <id>, "
                "webslice-record <id>):\n");
    for (const auto &builtin : scenario::builtins())
        std::printf("%-16s %s\n", builtin.id.c_str(), builtin.name.c_str());
    std::printf("\ngenerator knobs (--knob key=value):\n%s",
                scenario::describeKnobs().c_str());
    return 0;
}

/** Per-recording stats destined for the metrics report. */
struct RecordingStats
{
    std::string name;
    std::string prefix;
    size_t records = 0;
    size_t loadCompleteIndex = 0;
    uint64_t traceBytes = 0;
    uint64_t traceDigest = 0;
    double recordSeconds = 0.0;
};

/**
 * Record one scenario and publish its artifacts under `prefix`;
 * `source` is the .scn file it came from, if any.
 */
RecordingStats
recordOne(const scenario::Scenario &sc, const std::string &prefix,
          trace::TraceFormat format, const std::string &source = {})
{
    const auto summary =
        scenario::recordScenario(sc, prefix, format, source);

    RecordingStats stats;
    stats.name = sc.name;
    stats.prefix = prefix;
    stats.records = summary.records;
    stats.loadCompleteIndex = summary.loadCompleteIndex;
    const auto digest = digestFile(prefix + ".trc");
    stats.traceBytes = digest.bytes;
    stats.traceDigest = digest.fnv1a;
    stats.recordSeconds = summary.runSeconds;

    std::fprintf(stderr,
                 "recorded '%s' -> %s.{trc,sym,crit,meta,scn}: %s "
                 "records\n",
                 sc.name.c_str(), prefix.c_str(),
                 withCommas(stats.records).c_str());
    return stats;
}

std::string
recordingsJson(const std::vector<RecordingStats> &all)
{
    std::string json = "[";
    for (size_t i = 0; i < all.size(); ++i) {
        const auto &r = all[i];
        json += format(
            "%s\n    {\"name\": \"%s\", \"prefix\": \"%s\", "
            "\"records\": %zu, \"load_complete_index\": %zu, "
            "\"trace_bytes\": %llu, \"trace_digest\": \"%016llx\", "
            "\"record_seconds\": %.3f}",
            i ? "," : "", jsonEscape(r.name).c_str(),
            jsonEscape(r.prefix).c_str(), r.records,
            r.loadCompleteIndex,
            static_cast<unsigned long long>(r.traceBytes),
            static_cast<unsigned long long>(r.traceDigest),
            r.recordSeconds);
    }
    json += "\n  ]";
    return json;
}

void
maybeWriteMetrics(const std::string &path,
                  const std::vector<RecordingStats> &all)
{
    if (path.empty())
        return;
    writeMetricsReport(path, MetricRegistry::global(),
                       "webslice-scenario",
                       {{"recordings", recordingsJson(all)}},
                       "webslice-scenario-v1");
}

struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** "a,b,c" -> {a, b, c}. */
std::vector<std::string>
splitValues(const std::string &list)
{
    std::vector<std::string> values;
    std::string cur;
    for (char c : list) {
        if (c == ',') {
            values.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    values.push_back(cur);
    return values;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 1;
    }
    const std::string cmd = argv[1];

    if (cmd == "describe")
        return describe();

    if (cmd == "generate") {
        uint64_t seed = 1;
        bool have_seed = false;
        scenario::Knobs knobs;
        std::string out_path, builtin_id;
        for (int a = 2; a < argc; ++a) {
            const std::string arg = argv[a];
            if (arg == "--seed" && a + 1 < argc) {
                seed = parseCount("--seed", argv[++a], UINT64_MAX);
                have_seed = true;
            } else if (arg == "--builtin" && a + 1 < argc) {
                builtin_id = argv[++a];
            } else if (arg == "--knob" && a + 1 < argc) {
                const std::string kv = argv[++a];
                const size_t eq = kv.find('=');
                fatal_if(eq == std::string::npos,
                         "--knob needs key=value, got '", kv, "'");
                scenario::applyKnob(knobs, kv.substr(0, eq),
                                    kv.substr(eq + 1));
            } else if (arg == "-o" && a + 1 < argc) {
                out_path = argv[++a];
            } else {
                usage(argv[0]);
                return 1;
            }
        }
        if (have_seed == !builtin_id.empty()) { // exactly one source
            usage(argv[0]);
            return 1;
        }
        const scenario::Scenario sc =
            builtin_id.empty() ? scenario::generateScenario(seed, knobs)
                               : scenario::builtinScenario(builtin_id);
        const std::string text = scenario::serializeScenario(sc);
        if (out_path.empty()) {
            std::fputs(text.c_str(), stdout);
        } else {
            std::ofstream out(out_path);
            fatal_if(!out, "cannot write ", out_path);
            out << text;
        }
        return 0;
    }

    if (cmd == "run") {
        if (argc < 4) {
            usage(argv[0]);
            return 1;
        }
        trace::TraceFormat trace_format = trace::TraceFormat::V1;
        std::string metrics_path;
        for (int a = 4; a < argc; ++a) {
            const std::string arg = argv[a];
            if (arg == "--format=v1") {
                trace_format = trace::TraceFormat::V1;
            } else if (arg == "--format=v2") {
                trace_format = trace::TraceFormat::V2;
            } else if (arg == "--metrics-json" && a + 1 < argc) {
                metrics_path = argv[++a];
            } else {
                usage(argv[0]);
                return 1;
            }
        }
        // A built-in id, else a .scn file.
        const std::string what = argv[2];
        const auto stats =
            scenario::findBuiltin(what)
                ? recordOne(scenario::builtinScenario(what), argv[3],
                            trace_format)
                : recordOne(scenario::parseScenarioFile(what), argv[3],
                            trace_format, what);
        maybeWriteMetrics(metrics_path, {stats});
        return 0;
    }

    if (cmd == "sweep") {
        uint64_t seed_lo = 1, seed_hi = 0;
        std::vector<SweepAxis> axes;
        std::string out_dir, metrics_path;
        trace::TraceFormat trace_format = trace::TraceFormat::V1;
        for (int a = 2; a < argc; ++a) {
            const std::string arg = argv[a];
            if (arg == "--seeds" && a + 1 < argc) {
                const std::string range = argv[++a];
                const size_t dots = range.find("..");
                fatal_if(dots == std::string::npos,
                         "--seeds needs A..B, got '", range, "'");
                seed_lo = parseCount(
                    "--seeds", range.substr(0, dots).c_str(), UINT64_MAX);
                seed_hi = parseCount("--seeds", range.c_str() + dots + 2,
                                     UINT64_MAX);
                fatal_if(seed_hi < seed_lo, "--seeds range '", range,
                         "' is empty");
            } else if (arg == "--knob" && a + 1 < argc) {
                const std::string kv = argv[++a];
                const size_t eq = kv.find('=');
                fatal_if(eq == std::string::npos,
                         "--knob needs key=v1[,v2...], got '", kv, "'");
                axes.push_back(
                    {kv.substr(0, eq), splitValues(kv.substr(eq + 1))});
            } else if (arg == "--out-dir" && a + 1 < argc) {
                out_dir = argv[++a];
            } else if (arg == "--format=v1") {
                trace_format = trace::TraceFormat::V1;
            } else if (arg == "--format=v2") {
                trace_format = trace::TraceFormat::V2;
            } else if (arg == "--metrics-json" && a + 1 < argc) {
                metrics_path = argv[++a];
            } else {
                usage(argv[0]);
                return 1;
            }
        }
        if (out_dir.empty() || seed_hi < seed_lo) {
            usage(argv[0]);
            return 1;
        }

        // Cross-product of the knob value lists (one setting per axis).
        std::vector<scenario::Knobs> settings = {scenario::Knobs{}};
        for (const auto &axis : axes) {
            std::vector<scenario::Knobs> expanded;
            for (const auto &base : settings) {
                for (const auto &value : axis.values) {
                    scenario::Knobs next = base;
                    scenario::applyKnob(next, axis.key, value);
                    expanded.push_back(next);
                }
            }
            settings = std::move(expanded);
        }

        std::vector<RecordingStats> all;
        for (const auto &knobs : settings) {
            for (uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
                const auto sc = scenario::generateScenario(seed, knobs);
                const std::string prefix = format(
                    "%s/%s_seed%llu", out_dir.c_str(),
                    scenario::knobsLabel(knobs).c_str(),
                    static_cast<unsigned long long>(seed));
                all.push_back(recordOne(sc, prefix, trace_format));
            }
        }
        maybeWriteMetrics(metrics_path, all);
        std::fprintf(stderr, "sweep complete: %zu recording(s) in %s\n",
                     all.size(), out_dir.c_str());
        return 0;
    }

    usage(argv[0]);
    return 1;
}
