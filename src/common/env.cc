#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace fdip
{

std::optional<std::uint64_t>
parseUint(const char *text)
{
    // strtoull skips leading whitespace and accepts '-'/'+' signs
    // ('-1' wraps to a huge value); require the text to start with a
    // digit so "-1" cannot mean "as many as possible".
    if (text[0] < '0' || text[0] > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return std::nullopt;
    return v;
}

std::uint64_t
envUint(const char *name, std::uint64_t fallback,
        std::uint64_t min_value)
{
    const char *env = std::getenv(name);
    if (env == nullptr || env[0] == '\0')
        return fallback;
    std::optional<std::uint64_t> parsed = parseUint(env);
    if (!parsed) {
        warn("ignoring invalid %s value '%s' (want a non-negative "
             "integer); using %llu",
             name, env, static_cast<unsigned long long>(fallback));
        return fallback;
    }
    std::uint64_t v = *parsed;
    if (v < min_value) {
        warn("ignoring out-of-range %s value '%s' (minimum %llu); "
             "using %llu",
             name, env, static_cast<unsigned long long>(min_value),
             static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

} // namespace fdip
