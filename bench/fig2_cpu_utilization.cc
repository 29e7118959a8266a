/**
 * @file
 * Figure 2 — "CPU utilization by the main thread of the tab process
 * while browsing amazon.com."
 *
 * Replays the paper's session (load, scroll down and up a little, two
 * photo-roll clicks, a menu open) and prints the main thread's
 * utilization per 100 ms of virtual time as an ASCII bar chart. The
 * expected shape: a tall plateau during load, near-idle gaps between
 * interactions, and short spikes at each user action.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "support/strings.hh"

using namespace webslice;

int
main()
{
    bench::printHeader(
        "fig2_cpu_utilization: Figure 2 reproduction (amazon.com "
        "browsing session)");

    const auto run = scenario::runScenario(scenario::builtinScenario("fig2"));
    const auto &spec = run.spec;
    const auto &machine = *run.machine;

    const auto &timeline =
        machine.threadTimeline(run.tab->threads().main);
    const uint64_t bucket_cycles = timeline.bucketWidth();
    const uint64_t cycles_per_ms = spec.browser.cyclesPerMs;
    const uint64_t bucket_ms = bucket_cycles / cycles_per_ms;

    // Aggregate buckets into 100 ms bins.
    const uint64_t bin_ms = 100;
    const uint64_t buckets_per_bin =
        std::max<uint64_t>(1, bin_ms / std::max<uint64_t>(1, bucket_ms));

    std::printf("session: %s\n", spec.name.c_str());
    std::printf("load complete at %llu ms; interactions at 3000/3800/"
                "4800 (scrolls), 6200/7400 (photo roll), 9000 (menu)\n\n",
                static_cast<unsigned long long>(run.tab->loadCompleteMs()));
    std::printf("%8s  %6s  %s\n", "time(ms)", "util%", "main-thread CPU");

    const size_t bins =
        (timeline.bucketCount() + buckets_per_bin - 1) / buckets_per_bin;
    for (size_t bin = 0; bin < bins; ++bin) {
        double executed = 0;
        for (uint64_t b = 0; b < buckets_per_bin; ++b)
            executed += timeline.sum(bin * buckets_per_bin + b);
        const double capacity = static_cast<double>(
            buckets_per_bin * bucket_cycles);
        const double util = 100.0 * executed / capacity;

        std::string bar(static_cast<size_t>(util / 2.0), '#');
        const uint64_t t = bin * bin_ms;
        const char *mark = "";
        if (t <= run.tab->loadCompleteMs() &&
            run.tab->loadCompleteMs() < t + bin_ms) {
            mark = "  <- page loaded";
        }
        std::printf("%8llu  %5.1f%%  %s%s\n",
                    static_cast<unsigned long long>(t), util, bar.c_str(),
                    mark);
    }

    std::printf("\nShape check (paper): utilization is pegged during "
                "load, then mostly idle\nwith brief spikes at each user "
                "interaction.\n");
    return 0;
}
