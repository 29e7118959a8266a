/**
 * @file
 * Workload sweep-synth: a seeded family of generated scenarios,
 * recorded and profiled in one long-lived process.
 *
 * Each iteration records every member with scenario::runScenario,
 * publishes it as v2 columnar artifacts (as `webslice-scenario sweep
 * --format=v2` does), and profiles it with pixel criteria at the CLI
 * defaults (jobs = backward_jobs = 1). Iterations write to fresh
 * directories that live until the run ends, so the process-wide v2
 * block decode cache never serves a previous iteration's file. After
 * the timed phase every member is recomputed in memory with the
 * sequential slicer as the oracle.
 */

#include "workloads.hh"

#include "graph/cfg.hh"
#include "graph/control_deps.hh"
#include "scenario/generator.hh"
#include "scenario/run.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "support/strings.hh"

namespace perfbench {

using namespace webslice;

namespace {

/**
 * Sixteen small members: half worker-heavy (workers=4), half
 * script-heavy (js_hotness=hi), the other knobs at lo. Member sizes and
 * per-record costs vary with the seed by about 15%; sixteen of them
 * average that down to a few percent per family.
 */
constexpr int kMembers = 16;

scenario::Knobs
memberKnobs(int i)
{
    scenario::Knobs knobs;
    for (const char *key : {"dom_depth", "css_volume", "images"})
        scenario::applyKnob(knobs, key, "lo");
    if (i % 2 == 0)
        scenario::applyKnob(knobs, "workers", "4");
    else
        scenario::applyKnob(knobs, "js_hotness", "hi");
    return knobs;
}

/**
 * The family for `seed`, each member with its own derived generator
 * seed. The scenarios go through the .scn text round trip that a
 * sweep's emitted files take.
 */
std::vector<scenario::Scenario>
makeFamily(uint64_t seed)
{
    std::vector<scenario::Scenario> family;
    Rng rng(seed ^ 0x5eedfa3117ull);
    for (int i = 0; i < kMembers; ++i) {
        const auto generated =
            scenario::generateScenario(rng.next(), memberKnobs(i));
        family.push_back(scenario::parseScenarioText(
            scenario::serializeScenario(generated),
            format("member-%d.scn", i)));
    }
    return family;
}

} // namespace

void
runSweepSynth(const Options &opt, JsonOut &out)
{
    std::vector<scenario::Scenario> family;

    // Set-up, three times: generate the family, then bring the pipeline
    // up (record, publish, profile once) on a reference member that
    // does not depend on the seed, so set-up time follows the program
    // rather than the family drawn.
    const auto reference = scenario::generateScenario(1, memberKnobs(0));
    std::vector<double> setup_s;
    for (int rep = 0; rep < 3; ++rep) {
        const int64_t t0 = monoNs();
        family = makeFamily(opt.seed);
        const std::string prefix = opt.work + format("/setup-%d", rep);
        recordAndPublish(reference, prefix, trace::TraceFormat::V2);
        profileRecording(prefix, slicer::CriteriaMode::PixelBuffer, 1,
                         false);
        setup_s.push_back(static_cast<double>(monoNs() - t0) / 1e9);
    }

    // Discarded warm-up: one whole iteration, so the heap and the v2
    // block decode cache have grown before anything is timed.
    {
        const std::string dir = opt.work + "/warmup";
        makeDirs(dir);
        for (int m = 0; m < kMembers; ++m) {
            const std::string prefix = dir + format("/m%d", m);
            recordAndPublish(family[m], prefix, trace::TraceFormat::V2);
            profileRecording(prefix, slicer::CriteriaMode::PixelBuffer, 1,
                             false);
        }
    }

    out.key("members").beginArray();
    std::string phases;
    int iteration = 0;
    uint64_t rid = 0;
    for (const auto &[traced, seconds] : Phase::phases(opt)) {
        const Phase phase(traced, seconds);
        int64_t last_iteration_ns = 0;
        int phase_iterations = 0;
        while (phase.another(phase_iterations, last_iteration_ns)) {
            const int64_t i0 = monoNs();
            const std::string dir = opt.work + format("/iter-%d", iteration);
            makeDirs(dir);
            for (int m = 0; m < kMembers; ++m) {
                const std::string prefix = dir + format("/m%d", m);
                RequestScope request(++rid);
                Span span("sweep.member");
                span.arg("member", m);
                const auto rec = recordAndPublish(family[m], prefix,
                                                  trace::TraceFormat::V2);
                const int64_t p0 = monoNs();
                const auto prof = profileRecording(
                    prefix, slicer::CriteriaMode::PixelBuffer, 1, false);
                const int64_t profile_ns = monoNs() - p0;
                span.end();
                const auto file = digestFile(prefix + ".trc");
                out.beginObject()
                    .field("phase", phase.name())
                    .field("iteration", iteration)
                    .field("member", m)
                    .field("records", rec.records)
                    .field("record_ns", rec.recordNs)
                    .field("profile_ns", profile_ns)
                    .field("trace_bytes", rec.traceBytes)
                    .field("trace_digest", hex64(file.fnv1a))
                    .field("profiled_records", prof.records)
                    .field("window", prof.window)
                    .field("digest", hex64(prof.digest))
                    .field("peak_live_mem", prof.peakLiveMem)
                    .endObject();
            }
            last_iteration_ns = monoNs() - i0;
            ++iteration;
            ++phase_iterations;
        }
        phase.finish(phases, monoNs(), phase_iterations);
    }
    out.endArray();
    tracer::enable(opt.trace);
    tracer::setPhase("verify");

    // Oracle: every member again, recorded in memory and sliced by the
    // sequential in-memory walk, sharing no file I/O or codec with the
    // timed path.
    out.key("oracle").beginArray();
    for (int m = 0; m < kMembers; ++m) {
        const auto run = scenario::runScenario(family[m]);
        const auto cfgs =
            graph::buildCfgs(run.records(), run.machine->symtab(), 1);
        const auto deps = graph::buildControlDeps(cfgs, 1);
        slicer::SlicerOptions options;
        options.backwardJobs = 1;
        if (scenario::isLoadOnly(family[m]))
            options.endIndex = run.loadCompleteIndex;
        const auto slice =
            slicer::computeSlice(run.records(), cfgs, deps,
                                 run.machine->pixelCriteria(), options);
        out.beginObject()
            .field("member", m)
            .field("records", static_cast<uint64_t>(run.records().size()))
            .field("window", slice.analyzedWindowEnd)
            .field("digest",
                   hex64(fnv1a64(slice.inSlice.data(), slice.inSlice.size())))
            .endObject();
    }
    out.endArray();

    out.key("setup_s").beginArray();
    for (double s : setup_s)
        out.value(s);
    out.endArray();
    out.key("phases").raw("[" + phases + "]");
}

} // namespace perfbench
