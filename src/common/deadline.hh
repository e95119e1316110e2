/**
 * @file
 * Per-run wall-clock watchdog. A RunDeadline is armed when a sweep run
 * starts and checked cooperatively from the long-running loops
 * (compile, profile, stream capture, and the core cycle loop), so one
 * pathological configuration cannot wedge a worker thread forever: the
 * run fails with a typed DeadlineExceeded that the sweep scheduler
 * contains like any other run failure.
 *
 * The null-deadline fast path is a single pointer test at every seam
 * (callers hold `const RunDeadline *`, null = no budget), so sweeps
 * with watchdogs disabled pay nothing and stay bit-identical.
 */

#ifndef RVP_COMMON_DEADLINE_HH
#define RVP_COMMON_DEADLINE_HH

#include <chrono>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/parse.hh"

namespace rvp
{

/** Longest RunDeadline budget (about 31.7 years): steady_clock's int64
 *  nanoseconds hold 292 years, so now() plus it cannot overflow. */
constexpr double maxDeadlineSeconds = 1e9;

/** Parse a seconds option (deadline or retry backoff): a number in
 *  [0, maxDeadlineSeconds], 0 meaning off; else ConfigError. */
inline double
parseSeconds(std::string_view text, const char *field)
{
    double seconds = parseNumber<double>(text, field);
    if (!(seconds >= 0.0 && seconds <= maxDeadlineSeconds))
        throwConfigError("%s: %g seconds is outside [0, 1e9]", field,
                         seconds);
    return seconds;
}

/** Thrown when a RunDeadline expires; caught per run by the sweep
 *  scheduler, which records the run as failed (and retries it once
 *  under a degraded profile). */
class DeadlineExceeded : public std::runtime_error
{
  public:
    explicit DeadlineExceeded(const std::string &where)
        : std::runtime_error("deadline exceeded (" + where + ")")
    {
    }
};

/** One run attempt's wall-clock budget, armed at construction. */
class RunDeadline
{
  public:
    /** Budget in seconds from now; must be in (0, maxDeadlineSeconds]
     *  (a disabled watchdog is a null RunDeadline pointer, not a zero
     *  budget). */
    explicit RunDeadline(double seconds)
        : deadline_(std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds)))
    {
    }

    bool
    expired() const
    {
        return std::chrono::steady_clock::now() > deadline_;
    }

    /** Throw DeadlineExceeded (tagged with the checking site) if the
     *  budget has run out. */
    void
    check(const char *where) const
    {
        if (expired())
            throw DeadlineExceeded(where);
    }

  private:
    std::chrono::steady_clock::time_point deadline_;
};

} // namespace rvp

#endif // RVP_COMMON_DEADLINE_HH
