#include "sim/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <tuple>

#include "common/env.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "sim/report.hh"

namespace fdip
{

namespace
{

/** "R-F2" < "R-F10": digit runs compare numerically. */
bool
naturalLess(const std::string &a, const std::string &b)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (std::isdigit(static_cast<unsigned char>(a[i])) &&
            std::isdigit(static_cast<unsigned char>(b[j]))) {
            std::size_t ie = i, je = j;
            while (ie < a.size() &&
                   std::isdigit(static_cast<unsigned char>(a[ie])))
                ++ie;
            while (je < b.size() &&
                   std::isdigit(static_cast<unsigned char>(b[je])))
                ++je;
            unsigned long an = std::stoul(a.substr(i, ie - i));
            unsigned long bn = std::stoul(b.substr(j, je - j));
            if (an != bn)
                return an < bn;
            i = ie;
            j = je;
            continue;
        }
        if (a[i] != b[j])
            return a[i] < b[j];
        ++i;
        ++j;
    }
    return a.size() < b.size();
}

void
put(const std::string &s)
{
    std::fputs(s.c_str(), stdout);
    std::fflush(stdout);
}

std::string
join(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

std::vector<std::string>
schemeNames(const std::vector<PrefetchScheme> &schemes)
{
    std::vector<std::string> out;
    for (auto s : schemes)
        out.push_back(schemeName(s));
    return out;
}

std::string
variantSummary(const TweakVariant &v)
{
    std::string key = v.key.empty() ? "(default)" : v.key;
    if (v.label.empty())
        return key;
    return key + " = " + v.label;
}

std::string
runLengthLine(const ExperimentSpec &spec)
{
    if (spec.measure == 0)
        return "no timed simulation (static analysis)";
    return strprintf("%llu warmup + %llu measured instructions per "
                     "point",
                     static_cast<unsigned long long>(spec.warmup),
                     static_cast<unsigned long long>(spec.measure));
}

/** The forEachMetric() fields of one result row as JSON members. */
std::string
metricsJson(const SimResults &r)
{
    std::string out;
    forEachMetric(r, [&out](const char *name, auto value) {
        out += strprintf("%s\"%s\": %s", out.empty() ? "" : ", ", name,
                         metricText(value).c_str());
    });
    return out;
}

/**
 * Machine-readable export of every grid point (--stats-json): one JSON
 * object with the run lengths and a record per declared point. Every
 * read is a memo hit (the sweep just ran), so this adds no simulation
 * time; the fingerprint ties each record back to the exact SimConfig,
 * letting downstream tooling join records across runs and cache
 * entries. A multi-core point carries its per-core rows.
 */
std::string
statsJson(const ExperimentSpec &spec, const Sweep &sweep,
          std::uint64_t warmup, std::uint64_t measure)
{
    std::string out = "{\n";
    out += strprintf("  \"experiment\": \"%s\",\n",
                     jsonEscape(spec.id).c_str());
    out += strprintf("  \"warmup\": %llu,\n",
                     static_cast<unsigned long long>(warmup));
    out += strprintf("  \"measure\": %llu,\n",
                     static_cast<unsigned long long>(measure));
    out += "  \"points\": [";

    for (std::size_t i = 0; i < sweep.points().size(); ++i) {
        const Sweep::Point &p = sweep.points()[i];
        const SimResults &r = sweep.run(p.workload, p.scheme, p.variant);
        out += i == 0 ? "\n    {" : ",\n    {";
        out += strprintf("\"workload\": \"%s\", \"scheme\": \"%s\", "
                         "\"variant\": \"%s\", "
                         "\"fingerprint\": \"%016llx\",\n     ",
                         jsonEscape(p.workload).c_str(),
                         schemeName(p.scheme),
                         jsonEscape(p.variant).c_str(),
                         static_cast<unsigned long long>(
                             p.cfg.fingerprint()));
        if (r.status != RunStatus::Ok) {
            // Sentinel metrics are NaNs, which is not JSON; failed
            // points export a status + error instead.
            out += strprintf(
                "\"status\": \"%s\", \"error\": \"%s\"}",
                r.status == RunStatus::TimedOut ? "timeout" : "failed",
                jsonEscape(r.failReason).c_str());
            continue;
        }
        out += metricsJson(r);
        out += strprintf(",\n     \"host_seconds\": %s, "
                         "\"host_kcycles_per_sec\": %s, "
                         "\"skipped_cycles\": %s, \"total_cycles\": %s",
                         metricText(r.hostSeconds).c_str(),
                         metricText(r.hostKcyclesPerSec).c_str(),
                         metricText(r.skippedCycles).c_str(),
                         metricText(r.totalCycles).c_str());
        if (!r.perCore.empty()) {
            out += ",\n     \"per_core\": [";
            for (std::size_t c = 0; c < r.perCore.size(); ++c) {
                out += strprintf("%s{\"workload\": \"%s\", %s}",
                                 c == 0 ? "" : ", ",
                                 jsonEscape(r.perCore[c].workload).c_str(),
                                 metricsJson(r.perCore[c]).c_str());
            }
            out += "]";
        }
        out += "}";
    }
    out += sweep.points().empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(ExperimentSpec spec)
{
    fatal_if(spec.id.empty(), "experiment spec needs an id");
    fatal_if(find(spec.id) != nullptr,
             "duplicate experiment id '%s'", spec.id.c_str());
    specs.push_back(std::move(spec));
}

const ExperimentSpec *
ExperimentRegistry::find(const std::string &id) const
{
    for (const auto &s : specs) {
        if (s.id == id)
            return &s;
    }
    return nullptr;
}

std::vector<const ExperimentSpec *>
ExperimentRegistry::all() const
{
    std::vector<const ExperimentSpec *> out;
    for (const auto &s : specs)
        out.push_back(&s);
    std::sort(out.begin(), out.end(),
              [](const ExperimentSpec *a, const ExperimentSpec *b) {
                  return naturalLess(a->id, b->id);
              });
    return out;
}

ExperimentRegistrar::ExperimentRegistrar(ExperimentSpec (*maker)())
{
    ExperimentRegistry::instance().add(maker());
}

void
forEachGridPoint(
    const ExperimentSpec &spec,
    const std::function<void(const std::string &, PrefetchScheme,
                             const TweakVariant &)> &fn)
{
    static const TweakVariant untweaked{};
    for (const auto &grid : spec.grids) {
        std::size_t nvariants =
            grid.variants.empty() ? 1 : grid.variants.size();
        for (std::size_t vi = 0; vi < nvariants; ++vi) {
            const TweakVariant &v =
                grid.variants.empty() ? untweaked : grid.variants[vi];
            for (const auto &w : grid.workloads) {
                for (auto s : grid.schemes) {
                    if (grid.withBaseline)
                        fn(w, PrefetchScheme::None, v);
                    fn(w, s, v);
                }
            }
        }
    }
}

Sweep::Sweep(Runner &runner, const ExperimentSpec &spec,
             std::uint64_t warmup, std::uint64_t measure)
    : runner_(runner), specId_(spec.id)
{
    forEachGridPoint(spec, [&](const std::string &w, PrefetchScheme s,
                               const TweakVariant &v) {
        SimConfig cfg = gridConfig(w, s, warmup, measure, v.tweak);
        auto [it, fresh] =
            index_.emplace(std::make_tuple(w, s, v.key), points_.size());
        if (fresh)
            points_.push_back({w, s, v.key, cfg});
        fatal_if(!fresh && points_[it->second].cfg.fingerprint() !=
                               cfg.fingerprint(),
                 "%s: grids bind (%s, %s, '%s') to two different "
                 "machines; give each tweak its own variant key",
                 specId_.c_str(), w.c_str(), schemeName(s),
                 v.key.c_str());
        runner_.enqueue(cfg, v.key);
    });
}

const Sweep::Point &
Sweep::find(const std::string &workload, PrefetchScheme scheme,
            const std::string &variant) const
{
    auto it = index_.find(std::make_tuple(workload, scheme, variant));
    fatal_if(it == index_.end(),
             "%s: render reads (%s, %s, '%s'), which no grid declares",
             specId_.c_str(), workload.c_str(), schemeName(scheme),
             variant.c_str());
    return points_[it->second];
}

const SimResults &
Sweep::run(const std::string &workload, PrefetchScheme scheme,
           const std::string &variant) const
{
    const Point &p = find(workload, scheme, variant);
    return runner_.run(p.cfg, p.variant);
}

double
Sweep::speedup(const std::string &workload, PrefetchScheme scheme,
               const std::string &variant) const
{
    return speedupOver(run(workload, PrefetchScheme::None, variant),
                       run(workload, scheme, variant));
}

std::size_t
countDistinctPoints(const ExperimentSpec &spec)
{
    // The Runner's identity: shared baselines, overlapping grids and
    // variants that rebuild another point's machine are one
    // simulation.
    std::set<std::uint64_t> seen;
    forEachGridPoint(spec, [&](const std::string &w, PrefetchScheme s,
                               const TweakVariant &v) {
        seen.insert(gridConfig(w, s, spec.warmup, spec.measure, v.tweak)
                        .fingerprint());
    });
    return seen.size();
}

std::string
describeExperiment(const ExperimentSpec &spec)
{
    std::string out;
    out += spec.id + ": " + spec.title + "\n";
    out += "  reproduces: " + spec.paperRef + "\n";
    if (!spec.question.empty())
        out += "  question:   " + spec.question + "\n";
    out += "  expected:   " + spec.shape + "\n";
    out += "  run:        " + runLengthLine(spec) + "\n";
    for (std::size_t g = 0; g < spec.grids.size(); ++g) {
        const ExperimentGrid &grid = spec.grids[g];
        out += strprintf(
            "  grid %zu:     %zu workloads x %zu schemes", g + 1,
            grid.workloads.size(), grid.schemes.size());
        if (!grid.variants.empty())
            out += strprintf(" x %zu variants", grid.variants.size());
        out += grid.withBaseline ? " (+ no-prefetch baselines)\n"
                                 : " (direct runs)\n";
        out += "    workloads: " + join(grid.workloads, " ") + "\n";
        out += "    schemes:   " + join(schemeNames(grid.schemes), " ") +
               "\n";
        if (!grid.variants.empty()) {
            std::vector<std::string> vs;
            for (const auto &v : grid.variants)
                vs.push_back(variantSummary(v));
            out += "    variants:  " + join(vs, ", ") + "\n";
        }
    }
    if (!spec.grids.empty()) {
        out += strprintf("  points:     %zu distinct simulations\n",
                         countDistinctPoints(spec));
    }
    if (!spec.notes.empty())
        out += "  notes:      " + spec.notes + "\n";
    return out;
}

std::string
listExperiments(const std::vector<const ExperimentSpec *> &specs)
{
    std::string out;
    for (const ExperimentSpec *s : specs) {
        out += strprintf("%-7s %5zu points  %s\n", s->id.c_str(),
                         countDistinctPoints(*s), s->title.c_str());
    }
    return out;
}

std::string
experimentCatalogMarkdown(
    const std::vector<const ExperimentSpec *> &specs)
{
    std::string md;
    md += "# Experiment catalog\n\n";
    md += "<!-- Generated by fdip_experiments from the ExperimentSpec\n"
          "     registry (sim/experiment.hh). Do not edit by hand.\n"
          "     Regenerate with (X-T3's default trace paths follow\n"
          "     TMPDIR):\n"
          "         TMPDIR=/tmp FDIP_TRACE_PATHS= \\\n"
          "             ./build/fdip_experiments > docs/EXPERIMENTS.md\n"
          "     test_experiment fails when this file drifts from the\n"
          "     registry. -->\n"
          "\n";
    md += "Every figure and table of the reproduction is one experiment\n"
          "whose sweep is declared once, as data, in an\n"
          "`ExperimentSpec` (`src/sim/experiment.hh`).\n"
          "`fdip_experiments run <id>...` (or `run --all`) simulates\n"
          "them on one runner and takes `--jobs N`, `--warmup N`,\n"
          "`--measure N`; `--list` and `--describe <id>` introspect.\n"
          "\"Points\" counts distinct simulations: grid points that\n"
          "build the same machine (the same config fingerprint) share\n"
          "one, within an experiment and across the experiments of one\n"
          "run; with `FDIP_CACHE_DIR` set, points an earlier run\n"
          "simulated are served from the on-disk result cache,\n"
          "except points that replay a trace file.\n\n";

    md += "| id | reproduces | points | title |\n";
    md += "|----|------------|-------:|-------|\n";
    for (const ExperimentSpec *s : specs) {
        std::string points =
            s->grids.empty() ? "-"
                             : strprintf("%zu",
                                         countDistinctPoints(*s));
        md += strprintf("| %s | %s | %s | %s |\n", s->id.c_str(),
                        s->paperRef.c_str(), points.c_str(),
                        s->title.c_str());
    }
    md += "\n";

    for (const ExperimentSpec *s : specs) {
        md += strprintf("## %s: %s\n\n", s->id.c_str(),
                        s->title.c_str());
        md += strprintf("- **reproduces:** %s\n", s->paperRef.c_str());
        if (!s->question.empty())
            md += strprintf("- **question:** %s\n", s->question.c_str());
        md += strprintf("- **expected shape:** %s\n", s->shape.c_str());
        md += strprintf("- **run lengths:** %s\n",
                        runLengthLine(*s).c_str());
        if (s->grids.empty()) {
            md += "- **grid:** none (no simulated sweep)\n";
        } else {
            for (std::size_t g = 0; g < s->grids.size(); ++g) {
                const ExperimentGrid &grid = s->grids[g];
                md += strprintf("- **grid %zu:** ", g + 1);
                md += strprintf("%zu workloads x %zu schemes",
                                grid.workloads.size(),
                                grid.schemes.size());
                if (!grid.variants.empty())
                    md += strprintf(" x %zu variants",
                                    grid.variants.size());
                md += grid.withBaseline ? " (+ no-prefetch baselines)"
                                        : " (direct runs)";
                md += "\n";
                md += "  - workloads: " + join(grid.workloads, ", ") +
                      "\n";
                md += "  - schemes: " +
                      join(schemeNames(grid.schemes), ", ") + "\n";
                if (!grid.variants.empty()) {
                    std::vector<std::string> vs;
                    for (const auto &v : grid.variants)
                        vs.push_back("`" +
                                     (v.key.empty() ? std::string("-")
                                                    : v.key) +
                                     "`" +
                                     (v.label.empty()
                                          ? ""
                                          : " (" + v.label + ")"));
                    md += "  - variants: " + join(vs, ", ") + "\n";
                }
            }
            md += strprintf("- **distinct simulations:** %zu\n",
                            countDistinctPoints(*s));
        }
        if (!s->notes.empty())
            md += strprintf("- **notes:** %s\n", s->notes.c_str());
        md += "\n";
    }
    return md;
}

namespace
{

constexpr const char *kUsage =
    "usage: fdip_experiments [--list | --describe ID | "
    "run (ID... | --all) [--jobs N] [--warmup N] [--measure N] "
    "[--stats-json PATH]]";

/** One parsed experimentMain() command line. */
struct Command
{
    enum class Kind { Catalog, List, Describe, Run };
    Kind kind = Kind::Catalog;
    /** "" when --stats-json is not given. */
    std::string statsJsonPath;
    /** --describe's id, or run's ids. */
    std::vector<std::string> ids;
    bool all = false;
    std::optional<unsigned> jobs;
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;
};

Command
parseCommand(int argc, char **argv)
{
    Command cmd;
    int i = 1;
    if (argc > 1 && std::strcmp(argv[1], "run") == 0) {
        cmd.kind = Command::Kind::Run;
        i = 2;
    }
    auto setKind = [&cmd](Command::Kind kind, const char *flag) {
        fatal_if(cmd.kind != Command::Kind::Catalog,
                 "%s cannot be combined with another command", flag);
        cmd.kind = kind;
    };
    for (; i < argc; ++i) {
        const char *arg = argv[i];
        auto needsValue = [&]() {
            fatal_if(i + 1 >= argc, "%s requires a value", arg);
            return argv[++i];
        };
        auto uintValue = [&]() {
            const char *text = needsValue();
            std::optional<std::uint64_t> v = parseUint(text);
            fatal_if(!v, "%s: '%s' is not a non-negative integer", arg,
                     text);
            return *v;
        };
        if (std::strcmp(arg, "--list") == 0) {
            setKind(Command::Kind::List, arg);
        } else if (std::strcmp(arg, "--describe") == 0) {
            setKind(Command::Kind::Describe, arg);
            cmd.ids.push_back(needsValue());
        } else if (std::strcmp(arg, "--jobs") == 0) {
            std::uint64_t n = uintValue();
            fatal_if(n == 0 || n > std::numeric_limits<unsigned>::max(),
                     "--jobs must be between 1 and %u",
                     std::numeric_limits<unsigned>::max());
            cmd.jobs = static_cast<unsigned>(n);
        } else if (std::strcmp(arg, "--warmup") == 0) {
            cmd.warmup = uintValue();
        } else if (std::strcmp(arg, "--measure") == 0) {
            cmd.measure = uintValue();
            fatal_if(*cmd.measure == 0, "--measure must be >= 1");
        } else if (std::strcmp(arg, "--stats-json") == 0) {
            cmd.statsJsonPath = needsValue();
        } else if (std::strcmp(arg, "--all") == 0) {
            cmd.all = true;
        } else if (cmd.kind == Command::Kind::Run && arg[0] != '-') {
            cmd.ids.push_back(arg);
        } else {
            fatal("unknown argument '%s' (%s)", arg, kUsage);
        }
    }
    if (cmd.kind == Command::Kind::Run) {
        fatal_if(cmd.all == !cmd.ids.empty(),
                 "run takes experiment ids or --all, not both or "
                 "neither (%s)", kUsage);
    } else {
        fatal_if(cmd.all || cmd.jobs || cmd.warmup || cmd.measure ||
                     !cmd.statsJsonPath.empty(),
                 "--all/--jobs/--warmup/--measure/--stats-json apply to "
                 "run only (%s)", kUsage);
    }
    return cmd;
}

const ExperimentSpec &
findSpec(const std::vector<const ExperimentSpec *> &specs,
         const std::string &id)
{
    for (const ExperimentSpec *s : specs) {
        if (s->id == id)
            return *s;
    }
    fatal("unknown experiment id '%s' (try --list)", id.c_str());
}

/**
 * The "failed points:" block of one sweep: each distinct point of it
 * that raised SimError, in the order the spec declares it, under the
 * variant name the spec gives it. "" when every point ran cleanly.
 */
std::string
failedPointsText(const Sweep &sweep)
{
    std::string out;
    std::set<std::uint64_t> listed;
    for (const Sweep::Point &p : sweep.points()) {
        const SimResults &r = sweep.run(p.workload, p.scheme, p.variant);
        if (r.status == RunStatus::Ok ||
            !listed.insert(p.cfg.fingerprint()).second)
            continue;
        out += strprintf("  %s (%s, %s, '%s'): %s\n",
                         r.status == RunStatus::TimedOut ? "TIMEOUT"
                                                         : "FAIL",
                         p.cfg.workload.c_str(), schemeName(p.cfg.scheme),
                         p.variant.c_str(), r.failReason.c_str());
    }
    return out.empty() ? out : "\nfailed points:\n" + out;
}

/** `run`: every chosen spec's Sweep on one Runner, one runPending(). */
int
runExperiments(const std::vector<const ExperimentSpec *> &specs,
               const Command &cmd)
{
    std::vector<const ExperimentSpec *> chosen;
    if (cmd.all)
        chosen = specs;
    for (const std::string &id : cmd.ids)
        chosen.push_back(&findSpec(specs, id));
    fatal_if(!cmd.statsJsonPath.empty() && chosen.size() != 1,
             "--stats-json exports one experiment; run names %zu",
             chosen.size());

    // Each Sweep brings its spec's run lengths; the Runner's own are
    // unused.
    Runner runner;
    if (cmd.jobs)
        runner.setJobs(*cmd.jobs);
    std::vector<Sweep> sweeps;
    sweeps.reserve(chosen.size());
    for (const ExperimentSpec *spec : chosen) {
        sweeps.emplace_back(runner, *spec,
                            cmd.warmup.value_or(spec->warmup),
                            cmd.measure.value_or(spec->measure));
    }
    bool swept = runner.pendingRuns() > 0;
    runner.runPending();
    if (swept)
        put(runner.sweepSummary());

    for (std::size_t i = 0; i < chosen.size(); ++i) {
        const ExperimentSpec &spec = *chosen[i];
        put(experimentBanner(spec.id, spec.title, spec.shape));
        if (spec.render)
            spec.render(sweeps[i]);
        put(failedPointsText(sweeps[i]));
    }

    if (!cmd.statsJsonPath.empty()) {
        const ExperimentSpec &spec = *chosen[0];
        std::ofstream out(cmd.statsJsonPath,
                          std::ios::binary | std::ios::trunc);
        fatal_if(!out, "cannot open --stats-json file '%s'",
                 cmd.statsJsonPath.c_str());
        out << statsJson(spec, sweeps[0],
                         cmd.warmup.value_or(spec.warmup),
                         cmd.measure.value_or(spec.measure));
        fatal_if(!out, "failed writing --stats-json file '%s'",
                 cmd.statsJsonPath.c_str());
        std::printf("stats: wrote %s\n", cmd.statsJsonPath.c_str());
    }
    // 0 = clean; 3 = the sweep completed but some points failed (the
    // tables above have FAIL/TIMEOUT cells).
    return runner.failures().empty() ? 0 : 3;
}

/** experimentMain() minus the fatal-mode bracket around it. */
int
runCommand(const std::vector<const ExperimentSpec *> &specs, int argc,
           char **argv)
{
    fatal_if(specs.empty(), "no experiments registered");
    Command cmd = parseCommand(argc, argv);
    switch (cmd.kind) {
      case Command::Kind::Catalog:
        put(experimentCatalogMarkdown(specs));
        return 0;
      case Command::Kind::List:
        put(listExperiments(specs));
        return 0;
      case Command::Kind::Describe:
        put(describeExperiment(findSpec(specs, cmd.ids[0])));
        return 0;
      case Command::Kind::Run:
        return runExperiments(specs, cmd);
    }
    return 1;
}

} // namespace

int
experimentMain(const std::vector<const ExperimentSpec *> &specs,
               int argc, char **argv)
{
    // In Throw mode fatal() and the watchdogs raise SimError: inside a
    // grid point the Runner turns it into a FAIL/TIMEOUT cell, and one
    // raised anywhere else (a bad flag, a tweak failing while a point
    // is built, a render reading an undeclared point) ends the command
    // here.
    const FatalMode caller_mode = fatalMode();
    setFatalMode(FatalMode::Throw);
    int rc = 1;
    try {
        rc = runCommand(specs, argc, argv);
    } catch (const SimError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "fatal: %s\n", e.what());
    }
    setFatalMode(caller_mode);
    return rc;
}

} // namespace fdip
