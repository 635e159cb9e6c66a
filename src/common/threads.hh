/**
 * @file
 * Worker-pool sizing helpers.
 *
 * The simulator's one thread pool, the shared cost-cache warming
 * pool (ServingSimulator::warmCosts, sized by
 * FleetConfig::calibrationThreads), sizes itself from a user request
 * with a hardware-probe fallback.  The standard allows
 * std::thread::hardware_concurrency() to return 0 ("not
 * computable"); these helpers clamp that case in exactly one place
 * so no caller can ever end up with a zero-thread pool or divide by
 * zero.  The clamp logic is pure (the probe value is a parameter)
 * so the zero-hardware path stays unit-testable without mocking the
 * standard library.
 */

#ifndef HERMES_COMMON_THREADS_HH
#define HERMES_COMMON_THREADS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

namespace hermes {

/**
 * std::thread::hardware_concurrency(), clamped away from the
 * standard-sanctioned 0 return so callers can size pools (and
 * divide) without a special case.  Always >= 1.
 */
inline unsigned
hardwareThreads() noexcept
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

/**
 * The thread count a pool should aim for: the explicit request when
 * positive, otherwise the probed hardware parallelism — which is
 * itself clamped to 1 in case the probe reported "unknown" as 0.
 * Always >= 1.
 */
inline unsigned
effectiveThreads(std::uint32_t requested, unsigned probed) noexcept
{
    if (requested > 0)
        return requested;
    return probed == 0 ? 1 : probed;
}

/**
 * Workers to actually spawn over `jobs` independent jobs: the
 * effective thread count capped by the job count (an idle worker is
 * pure overhead).  Returns 0 only when there is no work at all;
 * callers treat <= 1 as "run serially".
 */
inline std::size_t
resolveWorkerCount(std::uint32_t requested, unsigned probed,
                   std::size_t jobs) noexcept
{
    return std::min<std::size_t>(jobs,
                                 effectiveThreads(requested, probed));
}

} // namespace hermes

#endif // HERMES_COMMON_THREADS_HH
