/**
 * @file
 * perfbench-workloads: runs one benchmark workload and writes its raw
 * samples as one JSON document.
 *
 *   perfbench-workloads <profile-cli|sweep-synth|serve-mixed>
 *       --seed N --seconds S --trace 0|1 --repo DIR --work DIR --out FILE
 *
 * run.py builds this binary, runs it, and derives every metric from the
 * report; this program itself judges nothing. The record-one and
 * profile-one subcommands are the child processes profile-cli and
 * serve-mixed spawn.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "spans.hh"
#include "support/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

constexpr char kUsage[] =
    "usage: %s <profile-cli|sweep-synth|serve-mixed> --seed N --seconds S\n"
    "          --trace 0|1 --repo DIR --work DIR --out FILE\n";

std::string
selfPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    fatal_if(n <= 0, "perfbench: cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<size_t>(n));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && !std::strcmp(argv[1], "record-one"))
        return recordOneChild(argc, argv);
    if (argc >= 2 && !std::strcmp(argv[1], "profile-one"))
        return profileOneChild(argc, argv);

    Options opt;
    if (argc < 2) {
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }
    opt.workload = argv[1];
    for (int a = 2; a + 1 < argc; a += 2) {
        const std::string flag = argv[a];
        const char *value = argv[a + 1];
        if (flag == "--seed") {
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--repo") {
            opt.repo = value;
        } else if (flag == "--work") {
            opt.work = value;
        } else if (flag == "--out") {
            opt.out = value;
        } else {
            std::fprintf(stderr, kUsage, argv[0]);
            return 1;
        }
    }
    if ((argc % 2) != 0 || opt.work.empty() || opt.out.empty() ||
        opt.seconds <= 0) {
        std::fprintf(stderr, kUsage, argv[0]);
        return 1;
    }
    opt.self = selfPath();
    makeDirs(opt.work);

    tracer::enable(opt.trace);
    tracer::setPhase("setup");

    JsonOut out;
    out.beginObject()
        .field("workload", opt.workload)
        .field("seed", opt.seed)
        .field("traced", opt.trace);
    std::vector<double> probes;
    for (int i = 0; i < 3; ++i)
        probes.push_back(hostProbeMs());

    if (opt.workload == "profile-cli") {
        runProfileCli(opt, out);
    } else if (opt.workload == "sweep-synth") {
        runSweepSynth(opt, out);
    } else if (opt.workload == "serve-mixed") {
        runServeMixed(opt, out);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 1;
    }

    for (int i = 0; i < 3; ++i)
        probes.push_back(hostProbeMs());
    out.key("probe_ms").beginArray();
    for (double p : probes)
        out.value(p);
    out.endArray();
    out.key("spans").raw(tracer::toJson(tracer::take()));
    out.endObject();

    std::ofstream file(opt.out);
    file << out.str() << '\n';
    file.close();
    fatal_if(!file, "perfbench: cannot write ", opt.out);
    return 0;
}
