/**
 * @file synth_builder.hh
 * Turns a WorkloadProfile into a concrete synthetic Program: a layered
 * (acyclic) call graph of functions, each a structured CFG of basic
 * blocks with loops, forward branches, direct and indirect calls. Also
 * the process-wide memo of built programs and fast-forwarded executors
 * that simulators share.
 */

#ifndef FDIP_TRACE_SYNTH_BUILDER_HH
#define FDIP_TRACE_SYNTH_BUILDER_HH

#include <cstdint>
#include <memory>

#include "trace/executor.hh"
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

/**
 * An executor over sharedProgram(@p profile) that has already emitted
 * its first @p skip instructions, fast-forwarded once per process and
 * shared: every caller with an equal profile and skip gets the same
 * start. It is never advanced; a simulator copies it and runs the copy
 * (copies are independent, see SyntheticExecutor). Thread-safe, under
 * sharedProgram()'s lock. A fast-forward that raises SimError stores
 * nothing. Starts live until the process exits, beside their
 * programs: one per distinct (profile, seed, skip) the process
 * simulates, also 19 for a full reproduction, whose synthetic points
 * all enter at skip 0.
 */
std::shared_ptr<const SyntheticExecutor>
sharedStart(const WorkloadProfile &profile, std::uint64_t skip);

} // namespace fdip

#endif // FDIP_TRACE_SYNTH_BUILDER_HH
