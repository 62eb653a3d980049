/**
 * @file profile.hh
 * Knobs describing one synthetic workload. Profiles are named after the
 * SPEC95-class programs used in the MICRO-32 FDIP evaluation; each
 * profile controls exactly the properties instruction prefetching is
 * sensitive to: static code footprint, basic-block geometry, branch mix
 * and predictability, call-graph reuse skew, and phase behaviour.
 */

#ifndef FDIP_TRACE_PROFILE_HH
#define FDIP_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace fdip
{

struct WorkloadProfile
{
    std::string name;
    std::uint64_t seed = 1;

    /** Static code footprint in bytes (drives L1-I pressure). */
    std::uint64_t codeFootprintBytes = 128 * 1024;

    /** Mean basic-block size in instructions (terminator included). */
    double meanBlockInsts = 6.0;
    /** Mean number of basic blocks per function. */
    double meanBlocksPerFn = 12.0;

    /** Call-graph depth (number of levels; no recursion). */
    unsigned callLevels = 6;
    /** Zipf skew for callee popularity; higher = hotter hot code. */
    double calleeZipf = 0.8;

    /** Terminator mix (relative weights; Return is structural). */
    double wCond = 0.55;
    double wJump = 0.10;
    double wCall = 0.18;
    double wIndCall = 0.04;
    double wFallthrough = 0.13;

    /** Of conditional branches: fraction that are loop back-edges. */
    double loopFraction = 0.30;
    /** Mean loop trip count. */
    double meanTripCount = 9.0;
    /** Of non-loop conditionals: fraction driven by a bit pattern. */
    double patternFraction = 0.35;
    /** Bias range for i.i.d. conditionals: taken prob in [lo, hi]. */
    double biasLo = 0.05;
    double biasHi = 0.95;

    /**
     * Working-set phase length in dynamic instructions; 0 disables
     * phases. Each phase rotates indirect-call target popularity,
     * shifting the hot code region.
     */
    std::uint64_t phaseLen = 0;

    /** Number of call sites in the top-level dispatcher loop. */
    unsigned dispatcherSites = 48;

    /** Field by field, so sharedProgram() tells every field apart. */
    bool operator==(const WorkloadProfile &) const = default;
};

/** The ten-workload suite used by every experiment in this repo. */
const std::vector<WorkloadProfile> &workloadSuite();

/** Lookup a suite profile by name; fatal() on unknown name. */
const WorkloadProfile &findProfile(const std::string &name);

/** Names of the large-footprint subset used by sweep benches. */
std::vector<std::string> largeFootprintNames();

/** Names of every suite workload. */
std::vector<std::string> allWorkloadNames();

} // namespace fdip

#endif // FDIP_TRACE_PROFILE_HH
