#include "env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "logging.hh"

namespace rime
{

std::optional<std::string>
envString(const char *name)
{
    const char *value = std::getenv(name);
    if (!value)
        return std::nullopt;
    return std::string(value);
}

double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0')
        fatal("%s='%s' is not a number", name, value);
    if (errno == ERANGE)
        fatal("%s='%s' is out of range", name, value);
    return parsed;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    // strtoull silently wraps negative input; reject it up front.
    const char *p = value;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (*p == '-')
        fatal("%s='%s' must be non-negative", name, value);
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        fatal("%s='%s' is not an unsigned integer", name, value);
    if (errno == ERANGE)
        fatal("%s='%s' is out of range", name, value);
    return static_cast<std::uint64_t>(parsed);
}

} // namespace rime
