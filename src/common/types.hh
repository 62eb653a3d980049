/**
 * @file types.hh
 * Fundamental scalar types shared by every simulator component.
 */

#ifndef FDIP_COMMON_TYPES_HH
#define FDIP_COMMON_TYPES_HH

#include <cstdint>

namespace fdip
{

/** Byte address in the simulated 48-bit virtual address space. */
using Addr = std::uint64_t;

/** Virtual address width, for the storage accounting of the BTBs
 *  and MANA's table. */
constexpr unsigned vaBits = 48;

/** Simulation time in front-end clock cycles. */
using Cycle = std::uint64_t;

/** Monotone per-trace instruction sequence number. */
using InstSeqNum = std::uint64_t;

/** Architectural instruction size: fixed 4 bytes (RISC, word aligned). */
constexpr unsigned instBytes = 4;

/** An address value that no valid instruction can have. */
constexpr Addr invalidAddr = ~Addr(0);

/** A cycle value meaning "never" / "not scheduled". */
constexpr Cycle neverCycle = ~Cycle(0);

/**
 * Quiescence-protocol alias for @c neverCycle: a component whose
 * nextEventCycle() returns @c kNever cannot change state on its own
 * and only reacts to other components' events.
 */
constexpr Cycle kNever = neverCycle;

} // namespace fdip

#endif // FDIP_COMMON_TYPES_HH
