/**
 * @file logging.hh
 * gem5-style failure and diagnostic reporting.
 *
 * panic()  -- an internal simulator invariant was violated (a bug in the
 *             simulator itself); aborts.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments); exits with code 1,
 *             or throws SimError in FatalMode::Throw (see
 *             common/error.hh) so sweep harnesses can isolate the
 *             failing point instead of losing the whole process.
 * warn()   -- something is questionable but the simulation can continue.
 * inform() -- plain status output.
 *
 * warn() and inform() go to stderr (bench tables own stdout), pass
 * through the FDIP_LOG verbosity filter, and are serialized under one
 * process-wide mutex so lines from concurrent Runner sweep threads
 * never interleave mid-line. panic() and fatal() are never filtered.
 */

#ifndef FDIP_COMMON_LOGGING_HH
#define FDIP_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace fdip
{

/**
 * Diagnostic verbosity, settable via the FDIP_LOG environment variable
 * ("quiet"/"0", "warn"/"1", "info"/"2") or setLogLevel(). Each level
 * includes the ones below it; the default is Info (everything).
 */
enum class LogLevel : int
{
    Quiet = 0, ///< suppress warn() and inform()
    Warn = 1,  ///< warn() only
    Info = 2,  ///< warn() and inform() (default)
};

/** Current verbosity (FDIP_LOG is read once, on first use). */
LogLevel logLevel();

/** Override the verbosity at runtime (tests; wins over FDIP_LOG). */
void setLogLevel(LogLevel level);

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...);
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...);
void warnImpl(const char *fmt, ...);
void informImpl(const char *fmt, ...);

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);
std::string strprintf(const char *fmt, ...);

} // namespace fdip

#define panic(...) ::fdip::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::fdip::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::fdip::warnImpl(__VA_ARGS__)
#define inform(...) ::fdip::informImpl(__VA_ARGS__)

/** panic() unless the given condition holds. */
#define panic_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            panic(__VA_ARGS__);                                              \
    } while (0)

#define fatal_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            fatal(__VA_ARGS__);                                              \
    } while (0)

#endif // FDIP_COMMON_LOGGING_HH
