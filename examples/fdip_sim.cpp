/**
 * @file fdip_sim.cpp
 * Command-line front end for the simulator: pick a workload, a
 * prefetch scheme, and machine knobs, and get the full statistics
 * dump. This is the "daily driver" binary for exploring the design
 * space beyond the canned experiments.
 *
 * Usage:
 *   fdip_sim [--workload NAME] [--scheme NAME] [--insts N]
 *            [--warmup N] [--l1i-kb N] [--ftq N] [--pfbuf N]
 *            [--tag-ports N] [--l2-lat N] [--dram-lat N]
 *            [--partitioned-btb ENTRIES] [--full-stats] [--list]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/report.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

/** Every registered scheme name, joined by @p sep. */
std::string
schemeList(const char *sep)
{
    std::string out;
    for (PrefetchScheme s : allPrefetchSchemes())
        out += (out.empty() ? "" : sep) + std::string(schemeName(s));
    return out;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME    workload profile (default gcc)\n"
        "  --scheme NAME      one of: %s\n"
        "  --insts N          measured instructions (default 1000000)\n"
        "  --warmup N         warmup instructions (default 300000)\n"
        "  --l1i-kb N         L1-I capacity in KB (default 16)\n"
        "  --ftq N            FTQ entries (default 32)\n"
        "  --pfbuf N          prefetch buffer entries (default 32)\n"
        "  --tag-ports N      L1-I tag ports (default 2)\n"
        "  --l2-lat N         L2 hit latency (default 12)\n"
        "  --dram-lat N       DRAM latency (default 70)\n"
        "  --partitioned-btb E  conventional front-end, partitioned BTB\n"
        "                     sized against an E-entry unified BTB\n"
        "  --full-stats       dump every raw counter\n"
        "  --list             list workloads and schemes, then exit\n",
        argv0, schemeList(", ").c_str());
}

PrefetchScheme
parseScheme(const std::string &name)
{
    if (auto s = schemeFromName(name))
        return *s;
    std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    bool full_stats = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto want_value = [&](const char *flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(1);
            }
            return std::string(argv[++i]);
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list") {
            std::printf("workloads:");
            for (const auto &n : allWorkloadNames())
                std::printf(" %s", n.c_str());
            std::printf("\nschemes: %s\n", schemeList(" ").c_str());
            return 0;
        } else if (arg == "--workload") {
            cfg.workload = want_value("--workload");
        } else if (arg == "--scheme") {
            cfg.scheme = parseScheme(want_value("--scheme"));
        } else if (arg == "--insts") {
            cfg.measureInsts = std::strtoull(
                want_value("--insts").c_str(), nullptr, 10);
        } else if (arg == "--warmup") {
            cfg.warmupInsts = std::strtoull(
                want_value("--warmup").c_str(), nullptr, 10);
        } else if (arg == "--l1i-kb") {
            cfg.mem.l1i.sizeBytes = 1024 * std::strtoull(
                want_value("--l1i-kb").c_str(), nullptr, 10);
        } else if (arg == "--ftq") {
            cfg.ftqEntries = std::strtoull(
                want_value("--ftq").c_str(), nullptr, 10);
        } else if (arg == "--pfbuf") {
            cfg.mem.prefetchBufferEntries = std::strtoul(
                want_value("--pfbuf").c_str(), nullptr, 10);
        } else if (arg == "--tag-ports") {
            cfg.mem.l1TagPorts = std::strtoul(
                want_value("--tag-ports").c_str(), nullptr, 10);
        } else if (arg == "--l2-lat") {
            cfg.mem.l2HitLatency = std::strtoull(
                want_value("--l2-lat").c_str(), nullptr, 10);
        } else if (arg == "--dram-lat") {
            cfg.mem.dramLatency = std::strtoull(
                want_value("--dram-lat").c_str(), nullptr, 10);
        } else if (arg == "--partitioned-btb") {
            applyPartitionedBudget(cfg, std::strtoul(
                want_value("--partitioned-btb").c_str(), nullptr, 10));
        } else if (arg == "--full-stats") {
            full_stats = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    SimResults r = simulate(cfg);
    std::printf("%s\n", summarizeRun(r).c_str());
    std::printf("cycles=%llu insts=%llu membus=%.1f%% "
                "cond-mispredict/KI=%.2f\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                r.memBusUtil * 100.0, r.condMispredictPerKilo);
    if (full_stats)
        std::printf("\n%s", r.stats.dump().c_str());
    return 0;
}
