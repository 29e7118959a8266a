/**
 * @file
 * The benchmark's workloads and the child-process entry points they
 * spawn. Each workload writes its raw samples into the report object
 * main() has open; run.py turns them into metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

void runProfileCli(const Options &opt, JsonOut &out);
void runSweepSynth(const Options &opt, JsonOut &out);
void runServeMixed(const Options &opt, JsonOut &out);

/**
 * Record every paper scenario to <dir>/<id> in its own record-one child
 * (set-up repetition `rep`), appending one entry per child to the open
 * `children` array.
 */
void recordPaper(const Options &opt, const std::vector<PaperScenario> &paper,
                 const std::string &dir, int rep, JsonOut &children);

/** `record-one key=value...`: record one .scn to v1 artifacts. */
int recordOneChild(int argc, char **argv);

/** `profile-one key=value...`: one offline profile, report on stdout. */
int profileOneChild(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
