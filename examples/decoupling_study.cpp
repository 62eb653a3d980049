/**
 * @file decoupling_study.cpp
 * The decoupled front-end in action: how FTQ depth converts into
 * prefetch lookahead. Sweeps the FTQ from 2 to 64 entries on one
 * workload and prints the occupancy distribution at each point —
 * the intuition behind the paper's FTQ design choice.
 *
 * Run: ./decoupling_study [workload]   (default: groff)
 */

#include <cstdio>
#include <string>

#include "common/table.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

using namespace fdip;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "groff";

    Runner runner(150 * 1000, 600 * 1000);
    AsciiTable t({"FTQ", "FDP speedup", "coverage", "mean occ",
                  "% FTQ full"});

    for (unsigned depth : {2u, 4u, 8u, 16u, 32u, 64u}) {
        auto tweak = [depth](SimConfig &cfg) {
            cfg.ftqEntries = depth;
        };
        std::string key = "d";
        key += std::to_string(depth);
        const SimResults &base =
            runner.run(workload, PrefetchScheme::None, key, tweak);
        const SimResults &r = runner.run(
            workload, PrefetchScheme::FdpRemove, key, tweak);
        double sp = speedupOver(base, r);
        t.addRow({AsciiTable::integer(depth),
                  AsciiTable::pct(sp),
                  AsciiTable::pct(r.prefetchCoverage),
                  AsciiTable::num(r.ftqOccupancy.mean(), 1),
                  AsciiTable::pct(r.ftqOccupancy.fraction(depth))});
    }

    std::printf("FTQ decoupling study on '%s'\n\n%s\n",
                workload.c_str(), t.render().c_str());

    const SimResults &deep = runner.run(
        workload, PrefetchScheme::FdpRemove, "d32",
        [](SimConfig &cfg) { cfg.ftqEntries = 32; });
    std::printf("%s", deep.ftqOccupancy.render(
        workload + " FTQ occupancy (32 entries, FDP)").c_str());
    return 0;
}
