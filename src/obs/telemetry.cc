#include "obs/telemetry.hh"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace fdip
{

namespace
{

/** Distinct id per simulation run in this process; used as the trace
 *  pid and the samples "run" field so concurrent Runner threads
 *  sharing one output file stay distinguishable. */
std::atomic<std::uint64_t> nextRunId{1};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void
ObsConfig::applyEnv()
{
    if (const char *env = std::getenv("FDIP_SAMPLES");
        env != nullptr && env[0] != '\0') {
        samplesPath = env;
    }
    if (const char *env = std::getenv("FDIP_TRACE");
        env != nullptr && env[0] != '\0') {
        tracePath = env;
    }
    // Malformed values warn and keep the config's default (the shared
    // envUint contract) instead of killing the process: telemetry is
    // passive and must never take a simulation down with it.
    sampleIntervalCycles =
        envUint("FDIP_SAMPLE_INTERVAL", sampleIntervalCycles, 1);
}

/**
 * Append-only sample file shared by every run targeting one path.
 * JSONL by default, CSV when the path ends in ".csv". The first open
 * in the process truncates; the CSV header is written once.
 */
class SampleSink
{
  public:
    explicit SampleSink(const std::string &path)
        : csv(endsWith(path, ".csv")),
          out(path, std::ios::out | std::ios::trunc)
    {
        if (!out.is_open()) {
            warn("cannot open FDIP_SAMPLES file '%s'; sampling output "
                 "dropped", path.c_str());
            return;
        }
        if (csv) {
            out << "run,workload,scheme,cycle,interval_cycles,insts,ipc,"
                   "mpki,pf_accuracy,ftq_occ_mean,walks_queued,"
                   "prefetches_issued\n";
        }
    }

    void
    write(std::uint64_t runId, const std::string &workload,
          const std::string &scheme, const SampleRow &row)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!out.is_open())
            return;
        if (csv) {
            out << runId << ',' << workload << ',' << scheme << ','
                << row.cycle << ',' << row.intervalCycles << ','
                << row.insts << ',' << row.ipc << ',' << row.mpki << ','
                << row.pfAccuracy << ',' << row.ftqOccMean << ','
                << row.walksQueued << ',' << row.prefetchesIssued << '\n';
        } else {
            out << "{\"run\":" << runId
                << ",\"workload\":\"" << jsonEscape(workload)
                << "\",\"scheme\":\"" << jsonEscape(scheme)
                << "\",\"cycle\":" << row.cycle
                << ",\"interval_cycles\":" << row.intervalCycles
                << ",\"insts\":" << row.insts
                << ",\"ipc\":" << row.ipc
                << ",\"mpki\":" << row.mpki
                << ",\"pf_accuracy\":" << row.pfAccuracy
                << ",\"ftq_occ_mean\":" << row.ftqOccMean
                << ",\"walks_queued\":" << row.walksQueued
                << ",\"prefetches_issued\":" << row.prefetchesIssued
                << "}\n";
        }
        out.flush();
    }

  private:
    bool csv;
    std::ofstream out;
    std::mutex mtx;
};

/**
 * Chrome trace_event file shared by every run targeting one path. The
 * file is kept valid JSON after every flush: each batch rewinds over
 * the previous `]}` trailer, appends its events, and writes the
 * trailer again.
 */
class TraceSink
{
  public:
    explicit TraceSink(const std::string &path)
        : out(path, std::ios::out | std::ios::trunc)
    {
        if (!out.is_open()) {
            warn("cannot open FDIP_TRACE file '%s'; trace output dropped",
                 path.c_str());
            return;
        }
        out << "{\"traceEvents\":[";
        bodyEnd = out.tellp();
        out << "]}";
        out.flush();
    }

    /** Emit per-run process/thread naming metadata (once per run). */
    void
    beginRun(std::uint64_t runId, const std::string &label)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (!out.is_open())
            return;
        std::string meta;
        meta += metadataEvent(runId, 0, "process_name", label);
        meta += metadataEvent(runId, kTidFrontend, "thread_name", "frontend");
        meta += metadataEvent(runId, kTidPrefetch, "thread_name", "prefetch");
        meta += metadataEvent(runId, kTidMem, "thread_name", "mem");
        meta += metadataEvent(runId, kTidVm, "thread_name", "vm");
        appendRaw(meta);
    }

    void
    append(std::uint64_t runId, const std::vector<TraceEvent> &events)
    {
        if (events.empty())
            return;
        std::lock_guard<std::mutex> lock(mtx);
        if (!out.is_open())
            return;
        std::string batch;
        for (const TraceEvent &e : events)
            batch += serialize(runId, e);
        appendRaw(batch);
    }

  private:
    std::string
    metadataEvent(std::uint64_t runId, std::uint32_t tid, const char *name,
                  const std::string &value)
    {
        std::string s = anyWritten ? "," : "";
        anyWritten = true;
        s += "{\"name\":\"";
        s += name;
        s += "\",\"ph\":\"M\",\"pid\":" + std::to_string(runId) +
            ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"" +
            jsonEscape(value) + "\"}}";
        return s;
    }

    std::string
    serialize(std::uint64_t runId, const TraceEvent &e)
    {
        std::string s = anyWritten ? "," : "";
        anyWritten = true;
        s += "{\"name\":\"";
        s += e.name;
        s += "\",\"ph\":\"";
        s += e.ph;
        s += "\",\"pid\":" + std::to_string(runId) +
            ",\"tid\":" + std::to_string(e.tid) +
            ",\"ts\":" + std::to_string(e.ts);
        if (e.ph == 'X')
            s += ",\"dur\":" + std::to_string(e.dur);
        if (e.ph == 'i')
            s += ",\"s\":\"t\"";
        if (e.argKey != nullptr || e.strKey != nullptr) {
            s += ",\"args\":{";
            bool first = true;
            if (e.argKey != nullptr) {
                s += "\"";
                s += e.argKey;
                s += "\":" + std::to_string(e.argVal);
                first = false;
            }
            if (e.strKey != nullptr) {
                if (!first)
                    s += ",";
                s += "\"";
                s += e.strKey;
                s += "\":\"";
                s += e.strVal != nullptr ? e.strVal : "";
                s += "\"";
            }
            s += "}";
        }
        s += "}";
        return s;
    }

    /** Rewind over the `]}` trailer, append, re-write the trailer. */
    void
    appendRaw(const std::string &payload)
    {
        out.seekp(bodyEnd);
        out << payload;
        bodyEnd = out.tellp();
        out << "]}";
        out.flush();
    }

    std::ofstream out;
    std::ofstream::pos_type bodyEnd;
    bool anyWritten = false;
    std::mutex mtx;
};

namespace
{

/** Process-wide path -> sink registries (Runner threads share files). */
template <typename Sink>
std::shared_ptr<Sink>
sinkFor(const std::string &path)
{
    static std::mutex mtx;
    static std::map<std::string, std::shared_ptr<Sink>> registry;
    std::lock_guard<std::mutex> lock(mtx);
    auto it = registry.find(path);
    if (it != registry.end())
        return it->second;
    auto sink = std::make_shared<Sink>(path);
    registry.emplace(path, sink);
    return sink;
}

} // namespace

Telemetry::Telemetry(const ObsConfig &config, const std::string &wl,
                     const std::string &sc)
    : cfg(config), workload(wl), scheme(sc),
      runId(nextRunId.fetch_add(1, std::memory_order_relaxed))
{
    if (!cfg.samplesPath.empty()) {
        sampler_ = std::make_unique<IntervalSampler>(cfg.sampleIntervalCycles);
        sampleSink_ = sinkFor<SampleSink>(cfg.samplesPath);
    }
    if (!cfg.tracePath.empty()) {
        tracer_ = std::make_unique<Tracer>(kTraceCapacity);
        traceSink_ = sinkFor<TraceSink>(cfg.tracePath);
        traceSink_->beginRun(runId, workload + "/" + scheme);
    }
}

Telemetry::~Telemetry()
{
    flush();
}

void
Telemetry::recordSample(Cycle now, const StatSet &cum,
                        std::uint64_t occCount, std::uint64_t occWeighted,
                        std::uint64_t walksQueued)
{
    if (sampler_ == nullptr)
        return;
    SampleRow row =
        sampler_->record(now, cum, occCount, occWeighted, walksQueued);
    if (sampleSink_ != nullptr)
        sampleSink_->write(runId, workload, scheme, row);
}

void
Telemetry::rebaselineOccupancy()
{
    if (sampler_ != nullptr)
        sampler_->rebaselineOccupancy();
}

void
Telemetry::flush()
{
    if (tracer_ == nullptr || traceSink_ == nullptr)
        return;
    std::uint64_t dropped = tracer_->dropped();
    std::vector<TraceEvent> events = tracer_->drain();
    if (dropped > 0) {
        TraceEvent note;
        note.name = "trace_dropped";
        note.ph = 'i';
        note.tid = 0;
        note.ts = tracer_->now();
        note.argKey = "dropped";
        note.argVal = dropped;
        events.push_back(note);
        warn("trace ring overflowed: %llu events dropped (%s/%s); trace "
             "a shorter run",
             static_cast<unsigned long long>(dropped), workload.c_str(),
             scheme.c_str());
    }
    traceSink_->append(runId, events);
}

} // namespace fdip
