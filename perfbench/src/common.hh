/**
 * @file
 * Shared pieces of perfbench-workloads: run options, the raw-output
 * JSON writer, process and host measurements, and the two pipeline
 * sequences every workload is built from — record-and-publish (as
 * webslice-record / webslice-scenario write artifacts) and the offline
 * profile (as webslice-profile runs it).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/scenario.hh"
#include "slicer/slicer.hh"
#include "trace/trace_file.hh"

namespace perfbench {

/** Command-line options shared by the three workloads. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string repo = ".";  ///< Checkout root (holds scenarios/).
    std::string work;        ///< Scratch directory for artifacts.
    std::string out;         ///< Where the raw JSON report goes.
    std::string self;        ///< This binary, for child processes.
};

/** Minimal streaming JSON writer for the raw report. */
class JsonOut
{
  public:
    JsonOut &beginObject();
    JsonOut &endObject();
    JsonOut &beginArray();
    JsonOut &endArray();
    JsonOut &key(std::string_view name);
    JsonOut &value(double v);
    JsonOut &value(uint64_t v);
    JsonOut &value(int64_t v);
    JsonOut &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonOut &value(bool v);
    JsonOut &value(std::string_view v);
    JsonOut &value(const char *v) { return value(std::string_view(v)); }
    JsonOut &value(const std::string &v) { return value(std::string_view(v)); }
    /** Insert an already-serialized JSON value. */
    JsonOut &raw(std::string_view json);

    template <typename T>
    JsonOut &field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    const std::string &str() const { return out_; }

  private:
    void separate();
    void writeString(std::string_view v);

    std::string out_;
    std::vector<bool> first_;
    bool afterKey_ = false;
};

/** "0x" + 16 hex digits, the form webslice-profile prints digests in. */
std::string hex64(uint64_t v);

const char *modeName(webslice::slicer::CriteriaMode mode);

/**
 * A fixed CPU-and-memory loop that does not touch the program, timed in
 * milliseconds; run.py reports its median as host.probe_ms so host
 * drift can be told apart from program change.
 */
double hostProbeMs();

/** User + system CPU seconds of this process and its waited children. */
double cpuSeconds();

/**
 * Peak RSS of this process so far, in MiB. Every workload runs its
 * set-up and warm-up before the timed phase and reads this right after
 * it, so the value is the timed phase's peak whenever that phase holds
 * at least as much as set-up did, which each workload's design ensures.
 */
double peakRssMb();

/** Outcome of one child process run to completion. */
struct ChildRun
{
    int exitCode = -1;  ///< -1 when the child did not exit normally.
    std::string out;    ///< Everything it wrote to stdout.
    int64_t wallNs = 0; ///< Spawn to reaped.
};

/** Spawn `argv` with stdout on a pipe, read it all, and reap it. */
ChildRun runChild(const std::vector<std::string> &argv);

/**
 * One timed phase. A run times one untraced phase of --seconds, or with
 * --trace 1 an untraced half and then a traced half (phases()). A Phase
 * switches tracing on or off to match and notes the clocks and the
 * registry counters it starts from.
 */
class Phase
{
  public:
    /** (traced, seconds) of each timed phase of a run, in order. */
    static std::vector<std::pair<bool, double>> phases(const Options &opt);

    Phase(bool traced, double seconds);

    /** "untraced" or "timed" (the traced phase), as stamped on spans. */
    const std::string &name() const { return name_; }

    int64_t deadlineNs() const { return startNs_ + lengthNs_; }

    /**
     * Whether to start iteration `done` + 1: always for the first two,
     * then only while one more of the last one's length still fits.
     */
    bool another(int done, int64_t last_iteration_ns) const;

    /**
     * Append this phase's summary to the comma-separated `list`: name,
     * wall_s up to `end_ns`, cpu_s, iterations, process_peak_rss_mb,
     * the counter deltas, and the raw `extra` members if any.
     */
    void finish(std::string &list, int64_t end_ns, int iterations,
                const std::string &extra = "") const;

  private:
    std::string name_;
    int64_t startNs_ = 0;
    int64_t lengthNs_ = 0;
    double cpuS_ = 0.0;
    std::vector<uint64_t> counters_;
};

/** Registry counters the per-layer metrics are computed from. */
const std::vector<std::string> &trackedCounters();

/** Current values of trackedCounters(), in the same order. */
std::vector<uint64_t> readCounters();

/** Write `after - before` as a JSON object keyed by counter name. */
void writeCounterDelta(JsonOut &out, const std::vector<uint64_t> &before,
                       const std::vector<uint64_t> &after);

/** One checked-in paper scenario. */
struct PaperScenario
{
    std::string id;   ///< amazon-desktop | amazon-mobile | maps | bing
    std::string path; ///< <repo>/scenarios/<file>.scn
};

/** The four paper scenarios (fatal if a file is missing). */
std::vector<PaperScenario> loadPaperScenarios(const std::string &repo);

/** What record-and-publish produced. */
struct RecordOutcome
{
    uint64_t records = 0;
    uint64_t traceBytes = 0;
    int64_t recordNs = 0;  ///< runScenario plus publishing every artifact.
};

/**
 * Record one scenario with scenario::runScenario and publish
 * <prefix>.trc/.sym/.crit/.meta exactly as webslice-scenario does:
 * block-indexed trace written atomically in `format`, then the
 * sidecars.
 */
RecordOutcome recordAndPublish(const webslice::scenario::Scenario &sc,
                               const std::string &prefix,
                               webslice::trace::TraceFormat format);

/** What one offline profile produced. */
struct ProfileOutcome
{
    uint64_t records = 0;      ///< Records in the trace.
    uint64_t window = 0;       ///< Analyzed window end.
    uint64_t digest = 0;       ///< in_slice_fnv1a.
    uint64_t peakLiveMem = 0;
    int64_t sliceColdNs = 0;   ///< First computeSliceFromFile call.
    int64_t sliceWarmNs = 0;   ///< Second call (warm_recall only).
};

/**
 * Profile a recording with webslice-profile's call sequence:
 * loadArtifactSidecars, buildCfgsFromFile, buildControlDeps,
 * computeSliceFromFile (windowed at loadCompleteIndex for load-only
 * recordings), then MappedTrace and the three attribution passes.
 * `jobs` sets both the forward and backward job counts. With
 * warm_recall the backward pass runs a second time (traced runs only).
 */
ProfileOutcome profileRecording(const std::string &prefix,
                                webslice::slicer::CriteriaMode mode,
                                int jobs, bool warm_recall);

/** mkdir -p; fatal on failure. */
void makeDirs(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
