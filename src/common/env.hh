/**
 * @file env.hh
 * Shared, validated parsing of unsigned integers from the outside: the
 * FDIP_* environment knobs and the bench command-line flags.
 *
 * Every numeric knob goes through envUint() so a malformed value (a
 * typo, a stray unit suffix, a negative number) is surfaced as one
 * clear warn() naming the variable, the rejected text, and the
 * documented fallback — never silently accepted the way atoi-style
 * parsing would. See docs/ENVVARS.md for the knob catalog.
 */

#ifndef FDIP_COMMON_ENV_HH
#define FDIP_COMMON_ENV_HH

#include <cstdint>
#include <optional>

namespace fdip
{

/**
 * @p text as a full non-negative decimal integer; nullopt when it is
 * anything else: empty, signed, space-padded, suffixed, or too large
 * for 64 bits.
 */
std::optional<std::uint64_t> parseUint(const char *text);

/**
 * Parse the environment variable @p name as an unsigned integer.
 * Unset or empty returns @p fallback silently; a value that is not a
 * full non-negative decimal integer, or is below @p min_value, is
 * rejected with a warn() that states the fallback being used.
 */
std::uint64_t envUint(const char *name, std::uint64_t fallback,
                      std::uint64_t min_value = 0);

} // namespace fdip

#endif // FDIP_COMMON_ENV_HH
