/**
 * @file telemetry.hh
 * Telemetry front door: per-simulator ownership of the IntervalSampler
 * and Tracer pillars plus the process-wide file sinks they write
 * through. Everything here is passive — it reads simulator state and
 * never feeds anything back, so enabling it cannot change simulated
 * results (enforced by the parity tests).
 *
 * Knobs (environment wins over SimConfig::obs):
 *   FDIP_SAMPLES=path          enable interval sampling (JSONL, or CSV
 *                              when the path ends in ".csv")
 *   FDIP_SAMPLE_INTERVAL=N     sample interval in cycles
 *   FDIP_TRACE=path            enable Chrome trace_event output
 *
 * Concurrent Runner threads may share one output file: sinks are
 * keyed by path in a process-wide registry and serialize writes; each
 * run gets a distinct trace pid / sample "run" id.
 */

#ifndef FDIP_OBS_TELEMETRY_HH
#define FDIP_OBS_TELEMETRY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/sampler.hh"
#include "obs/tracer.hh"

namespace fdip
{

class SampleSink;
class TraceSink;

/** Observability knobs. Carried on SimConfig but deliberately EXCLUDED
 *  from SimConfig::fingerprint(): telemetry is passive, so it must not
 *  invalidate result caches or differentiate grid points. */
struct ObsConfig
{
    std::string samplesPath; ///< empty = sampling off
    std::string tracePath;   ///< empty = tracing off
    Cycle sampleIntervalCycles = 10000;

    /** Overlay FDIP_SAMPLES / FDIP_TRACE / FDIP_SAMPLE_INTERVAL on top
     *  of the programmatic settings. */
    void applyEnv();

    bool enabled() const { return !samplesPath.empty() || !tracePath.empty(); }
};

/**
 * One simulation run's telemetry: owns the sampler and/or tracer the
 * config asks for and routes their output to the shared sinks.
 */
class Telemetry
{
  public:
    Telemetry(const ObsConfig &cfg, const std::string &workload,
              const std::string &scheme);
    ~Telemetry();

    /** Non-null when sampling is on. */
    IntervalSampler *sampler() { return sampler_.get(); }

    /** Non-null when tracing is on. */
    Tracer *tracer() { return tracer_.get(); }

    /** Take the sample due at @p now and write it out. */
    void recordSample(Cycle now, const StatSet &cum, std::uint64_t occCount,
                      std::uint64_t occWeighted, std::uint64_t walksQueued);

    /** FTQ occupancy histogram was reset (warmup boundary). */
    void rebaselineOccupancy();

    /** Drain the trace ring to the file. Idempotent; also runs from
     *  the destructor. */
    void flush();

  private:
    /** Trace ring capacity in events; the oldest drop past it. */
    static constexpr std::size_t kTraceCapacity = 65536;

    ObsConfig cfg;
    std::string workload;
    std::string scheme;
    std::uint64_t runId;

    std::unique_ptr<IntervalSampler> sampler_;
    std::unique_ptr<Tracer> tracer_;
    std::shared_ptr<SampleSink> sampleSink_;
    std::shared_ptr<TraceSink> traceSink_;
};

} // namespace fdip

#endif // FDIP_OBS_TELEMETRY_HH
