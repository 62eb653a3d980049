/**
 * @file experiment.hh
 * Declarative experiment grids: every figure reproduction states its
 * sweep as one ExperimentSpec — axes (workloads x schemes x knob
 * variants), run lengths, and a render callback for its custom table
 * columns — and one executable expands the specs into Runner
 * enqueues, executes the sweep, and prints the tables.
 *
 * The spec is the only statement of the grid. experimentMain builds
 * every point's SimConfig once (a Sweep); the render callback reads
 * points back by their (workload, scheme, variant) name, never by
 * re-stating a tweak, and the Runner identifies each point by its
 * config fingerprint, so a point several specs declare is simulated
 * once per run.
 *
 * The same registry powers:
 *  - the one experiment executable, fdip_experiments
 *    (bench/gen_experiments.cc): `run <id>...`, the catalog
 *    (docs/EXPERIMENTS.md), --list and --describe, and
 *  - the expansion-parity and CLI tests (tests/test_experiment.cc).
 */

#ifndef FDIP_SIM_EXPERIMENT_HH
#define FDIP_SIM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/runner.hh"

namespace fdip
{

/** One point on a grid's tweak axis. */
struct TweakVariant
{
    /** The variant's name in render lookups; "" names the un-tweaked
     *  baseline machine. */
    std::string key;
    /** Human-readable description for --describe and the catalog. */
    std::string label;
    Runner::Tweak tweak;
};

/**
 * One cartesian block of a sweep: workloads x schemes x variants.
 * An empty variant list means a single un-tweaked point per
 * (workload, scheme). Most experiments are one grid; benches whose
 * hand-written loops mixed shapes (e.g. per-variant scheme sets) use
 * several.
 */
struct ExperimentGrid
{
    std::vector<std::string> workloads;
    std::vector<PrefetchScheme> schemes;
    std::vector<TweakVariant> variants;
    /** true: each (workload, scheme, variant) point also enqueues its
     *  no-prefetch baseline, which Sweep::speedup() divides by;
     *  false: only the listed schemes. */
    bool withBaseline = true;
};

class Sweep;

struct ExperimentSpec
{
    std::string id;       ///< e.g. "R-F9"
    std::string title;    ///< banner headline
    std::string shape;    ///< banner "expected shape" text
    std::string paperRef; ///< which paper figure/table this reproduces
    /** One-line "what question does this answer" blurb, shown in
     *  --describe and the generated catalog (extension benches set
     *  it; reproduction benches are self-describing via paperRef). */
    std::string question;
    std::uint64_t warmup = 0;  ///< default warmup instructions
    std::uint64_t measure = 0; ///< default measured instructions
    std::vector<ExperimentGrid> grids;
    /** Prints the experiment's tables from the swept points; it can
     *  read only points the grids above declare. */
    std::function<void(const Sweep &)> render;
    /** Optional catalog footnote (methodology caveats etc.). */
    std::string notes;
};

/** Process-wide spec registry, filled by static registrars. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register a spec; duplicate ids are fatal. */
    void add(ExperimentSpec spec);

    const ExperimentSpec *find(const std::string &id) const;

    /** All specs, naturally sorted by id (R-F2 before R-F10). */
    std::vector<const ExperimentSpec *> all() const;

  private:
    std::vector<ExperimentSpec> specs;
};

/** Registers maker()'s spec at static-initialization time. */
struct ExperimentRegistrar
{
    explicit ExperimentRegistrar(ExperimentSpec (*maker)());
};

#define FDIP_REGISTER_EXPERIMENT(maker)                                      \
    static const ::fdip::ExperimentRegistrar                                 \
        fdip_experiment_registrar_##maker{maker}

/** Visit every (workload, scheme, variant) enqueue the spec's grids
 *  produce, baselines included, in deterministic expansion order. */
void forEachGridPoint(
    const ExperimentSpec &spec,
    const std::function<void(const std::string &workload,
                             PrefetchScheme scheme,
                             const TweakVariant &variant)> &fn);

/**
 * A spec's grids, materialized: every declared (workload, scheme,
 * variant) name bound to the SimConfig it simulates, built once. The
 * render callback reads results by name; what the Runner memoizes and
 * the result cache stores is the config's fingerprint.
 */
class Sweep
{
  public:
    struct Point
    {
        std::string workload;
        PrefetchScheme scheme;
        std::string variant;
        SimConfig cfg;
    };

    /** Materialize every grid point of @p spec at the given run
     *  lengths and enqueue it on @p runner; runner.runPending() then
     *  simulates them. A name the grids bind to two different
     *  machines is fatal. */
    Sweep(Runner &runner, const ExperimentSpec &spec,
          std::uint64_t warmup, std::uint64_t measure);

    /** Results of a declared point; fatal for a name the spec's grids
     *  never declare. */
    const SimResults &run(const std::string &workload,
                          PrefetchScheme scheme,
                          const std::string &variant = "") const;

    /** Speedup of a declared point over its no-prefetch twin (the
     *  grid must declare both, as withBaseline grids do). */
    double speedup(const std::string &workload, PrefetchScheme scheme,
                   const std::string &variant = "") const;

    /** Distinct declared points, in grid expansion order. */
    const std::vector<Point> &points() const { return points_; }

  private:
    const Point &find(const std::string &workload, PrefetchScheme scheme,
                      const std::string &variant) const;

    Runner &runner_;
    std::string specId_;
    std::vector<Point> points_;
    /** (workload, scheme, variant) -> index into points_. */
    std::map<std::tuple<std::string, PrefetchScheme, std::string>,
             std::size_t>
        index_;
};

/** Distinct simulations the spec expands to: its points' distinct
 *  config fingerprints at the spec's run lengths. */
std::size_t countDistinctPoints(const ExperimentSpec &spec);

/** Multi-line, stable description of one spec (--describe). */
std::string describeExperiment(const ExperimentSpec &spec);

/** One summary line per spec (--list). */
std::string listExperiments(
    const std::vector<const ExperimentSpec *> &specs);

/** The generated docs/EXPERIMENTS.md content. */
std::string experimentCatalogMarkdown(
    const std::vector<const ExperimentSpec *> &specs);

/**
 * The experiment command line, over @p specs (fdip_experiments passes
 * the whole registry):
 *
 *   (no arguments)       print the catalog markdown
 *   --list               one summary line per spec
 *   --describe ID        full description of one spec
 *   run ID... | run --all [--jobs N] [--warmup N] [--measure N]
 *                        [--stats-json PATH]
 *
 * `run` builds each named spec's Sweep on one Runner, at that spec's
 * own run lengths unless --warmup/--measure override them, and
 * simulates every distinct point once. It prints one sweep footer,
 * then each spec's banner, tables and failed points, in order.
 * --stats-json exports the per-point metrics of a single spec.
 *
 * Runs in FatalMode::Throw and restores the caller's mode on return.
 * Returns 0 for a clean run, 3 when the sweep completed around failed
 * points (FAIL/TIMEOUT cells), and 1 after printing "fatal: ..." for
 * a SimError raised outside any grid point, such as a malformed flag,
 * an unknown id or a tweak that fails while a point is built.
 */
int experimentMain(const std::vector<const ExperimentSpec *> &specs,
                   int argc, char **argv);

} // namespace fdip

#endif // FDIP_SIM_EXPERIMENT_HH
