/**
 * @file gen_experiments.cc
 * fdip_experiments, the one experiment executable: links every
 * bench_*.cc ExperimentSpec and hands the registry to
 * experimentMain() (sim/experiment.hh), which runs experiments
 * (`run <id>...`, `run --all`), emits docs/EXPERIMENTS.md, and
 * introspects specs (--list, --describe).
 */

#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    return fdip::experimentMain(fdip::ExperimentRegistry::instance().all(),
                                argc, argv);
}
