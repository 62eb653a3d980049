#include "common/error.hh"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <cstdlib>

#include "common/logging.hh"

namespace fdip
{

namespace
{

std::atomic<FatalMode> currentMode{FatalMode::Abort};

} // namespace

FatalMode
fatalMode()
{
    return currentMode.load(std::memory_order_relaxed);
}

void
setFatalMode(FatalMode mode)
{
    currentMode.store(mode, std::memory_order_relaxed);
}

void
simTimeoutImpl(const char *file, int line, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vstrprintf(fmt, args);
    va_end(args);
    if (fatalMode() == FatalMode::Throw)
        throw SimTimeout(msg + strprintf(" [%s:%d]", file, line));
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::exit(1);
}

namespace
{

/** Quiet NaN (exponent all-ones, quiet bit set) whose mantissa spells
 *  "TOUT" — bit-exact tag for the timed-out sentinel. */
constexpr std::uint64_t kTimedOutBits = 0x7ff8'0000'544f'5554ull;

} // namespace

double
failedSentinel()
{
    return std::numeric_limits<double>::quiet_NaN();
}

double
timedOutSentinel()
{
    return std::bit_cast<double>(kTimedOutBits);
}

bool
isTimedOutSentinel(double v)
{
    return std::isnan(v) && std::bit_cast<std::uint64_t>(v) == kTimedOutBits;
}

} // namespace fdip
