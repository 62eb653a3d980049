/**
 * @file synth_builder.hh
 * Turns a WorkloadProfile into a concrete synthetic Program: a layered
 * (acyclic) call graph of functions, each a structured CFG of basic
 * blocks with loops, forward branches, direct and indirect calls.
 */

#ifndef FDIP_TRACE_SYNTH_BUILDER_HH
#define FDIP_TRACE_SYNTH_BUILDER_HH

#include <memory>

#include "trace/profile.hh"
#include "trace/program.hh"

namespace fdip
{

/**
 * Build the program for @p profile. Deterministic in profile.seed.
 * The returned program is laid out and validated.
 */
std::unique_ptr<Program> buildProgram(const WorkloadProfile &profile);

/**
 * The program for @p profile, built once per process and shared: every
 * caller with an equal profile gets the same immutable program.
 * Thread-safe. A build that raises SimError stores nothing, so the
 * next call builds again. Programs live until the process exits: one
 * per distinct (profile, seed) the process simulates, 19 for a full
 * reproduction (`fdip_experiments run --all`).
 */
std::shared_ptr<const Program> sharedProgram(const WorkloadProfile &profile);

} // namespace fdip

#endif // FDIP_TRACE_SYNTH_BUILDER_HH
