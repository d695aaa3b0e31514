/**
 * @file
 * Strict environment-variable parsing.
 *
 * Every RIME_* knob goes through these helpers so a typo'd setting
 * (RIME_BENCH_SCALE=0.5x, RIME_THREADS=four) aborts the run with a
 * clear message instead of silently running a misconfigured
 * simulation.  An unset variable yields the fallback; a set-but-
 * malformed one is a user error and raises fatal().
 */

#ifndef RIME_COMMON_ENV_HH
#define RIME_COMMON_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace rime
{

/** The variable's raw value, or nullopt when unset. */
std::optional<std::string> envString(const char *name);

/**
 * Parse a floating-point variable with strtod and an end-pointer
 * check; fatal() on an empty or partially consumed value.
 */
double envDouble(const char *name, double fallback);

/**
 * Parse an unsigned integer variable with strtoull and an end-pointer
 * check; fatal() on an empty, negative, overflowing, or partially
 * consumed value.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

} // namespace rime

#endif // RIME_COMMON_ENV_HH
