#include "scenario/recording.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "scenario/run.hh"
#include "support/logging.hh"

namespace webslice {
namespace scenario {

RecordingSummary
recordScenario(const Scenario &sc, const std::string &prefix,
               trace::TraceFormat format, const std::string &source)
{
    const std::string scn_path = prefix + ".scn";
    std::error_code ec; // a missing file is not the source
    fatal_if(!source.empty() &&
                 std::filesystem::equivalent(source, scn_path, ec),
             "refusing to record to prefix '", prefix, "': ", scn_path,
             " is the scenario file ", source,
             ", which the recording's .scn would overwrite");

    const auto t0 = std::chrono::steady_clock::now();
    const workloads::RunResult run = runScenario(sc);
    const auto t1 = std::chrono::steady_clock::now();

    {
        // The block index gives readers per-block work counts without a
        // scan; TraceWriter's atomic publication (temp file + fsync +
        // rename) keeps a crashed recording from leaving a half-written
        // .trc behind.
        trace::TraceWriter writer(prefix + ".trc", /*block_index=*/true,
                                  format);
        for (const auto &rec : run.records())
            writer.append(rec);
        writer.close();
    }
    run.machine->symtab().save(prefix + ".sym");
    run.machine->pixelCriteria().save(prefix + ".crit");

    std::ofstream meta(prefix + ".meta");
    meta << "benchmark " << run.spec.name << '\n';
    meta << "loadCompleteIndex " << run.loadCompleteIndex << '\n';
    meta << "loadOnly " << (isLoadOnly(sc) ? 1 : 0) << '\n';
    const auto thread_names = run.threadNames();
    for (size_t t = 0; t < thread_names.size(); ++t)
        meta << "thread " << t << ' ' << thread_names[t] << '\n';
    meta.close();
    fatal_if(!meta, "cannot write ", prefix, ".meta");

    std::ofstream scn(scn_path);
    scn << serializeScenario(sc);
    scn.close();
    fatal_if(!scn, "cannot write ", scn_path);

    RecordingSummary summary;
    summary.records = run.records().size();
    summary.markers = run.machine->pixelCriteria().markerCount();
    summary.loadCompleteIndex = run.loadCompleteIndex;
    summary.runSeconds = std::chrono::duration<double>(t1 - t0).count();
    return summary;
}

std::optional<trace::ValueLog>
reexecuteRecording(const std::string &prefix,
                   std::span<const trace::Record> records)
{
    const std::string scn_path = prefix + ".scn";
    const std::string trc_path = prefix + ".trc";
    if (!std::filesystem::exists(scn_path))
        return std::nullopt;

    Scenario sc = parseScenarioFile(scn_path);
    sc.site.captureValues = true;
    const workloads::RunResult run = runScenario(sc);

    const std::vector<trace::Record> &rerun = run.records();
    const size_t common = std::min(rerun.size(), records.size());
    for (size_t i = 0; i < common; ++i) {
        fatal_if(rerun[i] != records[i], "re-executing ", scn_path,
                 " does not reproduce ", trc_path, ": record ", i,
                 " differs");
    }
    fatal_if(rerun.size() != records.size(), "re-executing ", scn_path,
             " does not reproduce ", trc_path, ": record ", common,
             " is missing from ",
             rerun.size() < records.size() ? "the re-execution"
                                           : trc_path,
             " (", trc_path, " holds ", records.size(),
             " records, the re-execution ", rerun.size(), ")");
    return *run.machine->valueLog();
}

} // namespace scenario
} // namespace webslice
