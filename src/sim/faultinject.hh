/**
 * @file
 * Fault injection for robustness tests. Builds on the scheduler's
 * SweepOptions::runFn seam: makeFaultInjectingRunFn wraps the real
 * runExperiment with a plan that makes chosen grid indices misbehave
 * in controlled ways — throw, sleep past the watchdog deadline,
 * simulate allocation failure during stream capture, or corrupt /
 * truncate the cached committed stream so cursor attach fails
 * integrity verification.
 *
 * Every fault maps to a production recovery path:
 *
 *   Throw            -> retry under the degraded profile, or a
 *                       recorded failure when persistent
 *   SleepPastDeadline-> DeadlineExceeded out of the run, same retry
 *   BadAlloc         -> WorkloadCache::noteCaptureOom (budget halved,
 *                       key pinned live), run completes via live
 *                       emulation with identical stats
 *   CorruptStream /
 *   TruncateStream   -> StreamIntegrityError at cursor attach,
 *                       noteStreamIntegrityFailure, live fallback
 *
 * Test-only: nothing here is linked into sweep_all. The capture hook
 * is process-global, so BadAlloc plans require jobs=1 (documented on
 * armCaptureBadAlloc).
 */

#ifndef RVP_SIM_FAULTINJECT_HH
#define RVP_SIM_FAULTINJECT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "sim/sweep.hh"

namespace rvp
{

// Test-only corruption seams defined in stream/stream.cc (friends of
// CapturedStream). lane: 0=value 1=address 2=taken.
void corruptStreamForTest(const CapturedStream &stream, unsigned lane,
                          std::size_t offset, std::uint8_t xorMask);
void truncateStreamForTest(const CapturedStream &stream, unsigned lane,
                           std::size_t dropBytes);

/** What a targeted run does instead of (or on the way to) running. */
enum class FaultKind
{
    /** Throw std::runtime_error before the run starts. */
    Throw,
    /** Sleep plan.sleepSeconds, then run — an armed watchdog deadline
     *  (SweepOptions::runDeadline < sleepSeconds) expires and the run
     *  fails with DeadlineExceeded at its first check. */
    SleepPastDeadline,
    /** Arm the capture hook to throw std::bad_alloc mid-capture, then
     *  run. Requires jobs=1 (the hook is process-global). */
    BadAlloc,
    /** XOR one byte of the already-cached stream for this config's
     *  StreamKey, then run: cursor attach fails verification and the
     *  run falls back to live emulation. The stream must already be
     *  resolved in the cache (schedule an earlier run with the same
     *  key), otherwise the probe pins a negative entry. */
    CorruptStream,
    /** Drop tail bytes of a cached lane; same recovery path. */
    TruncateStream,
};

/** Which runs fault, and how. */
struct FaultPlan
{
    /** Grid index -> fault. Untargeted indices delegate untouched. */
    std::map<std::size_t, FaultKind> faults;
    /** false: the fault fires on attempt 0 only, so the degraded
     *  retry succeeds (transient fault). true: every attempt faults
     *  (persistent fault -> recorded failure). */
    bool persistent = false;
    /** SleepPastDeadline sleep length, seconds. */
    double sleepSeconds = 0.05;
    /** Corruption target: lane (0..2), byte offset, XOR mask. */
    unsigned corruptLane = 0;
    std::size_t corruptOffset = 0;
    std::uint8_t corruptXor = 0x40;
    /** BadAlloc: capture throws once this many insts are encoded. */
    std::uint64_t oomAfterInsts = 0;
};

/**
 * Arm CapturedStream::captureHook to throw std::bad_alloc once a
 * capture has encoded afterInsts instructions. Process-global: only
 * one capture may run at a time while armed (jobs=1). Pair with
 * disarmCaptureFaults() (RAII: CaptureFaultGuard).
 */
void armCaptureBadAlloc(std::uint64_t afterInsts);

/** Clear the capture hook. Safe to call when not armed. */
void disarmCaptureFaults();

/** Scope guard: disarms the capture hook on destruction. */
struct CaptureFaultGuard
{
    CaptureFaultGuard() = default;
    ~CaptureFaultGuard() { disarmCaptureFaults(); }
    CaptureFaultGuard(const CaptureFaultGuard &) = delete;
    CaptureFaultGuard &operator=(const CaptureFaultGuard &) = delete;
};

/**
 * Shared observer for a fault-injecting runFn: how many faults
 * actually fired (tests assert the fault was exercised, not skipped).
 */
struct FaultLog
{
    std::atomic<unsigned> fired{0};
};

/**
 * Build a SweepOptions::runFn that injects plan's faults and
 * delegates everything else to runExperiment(config, context). The
 * returned callable owns a copy of the plan; log (optional) counts
 * fired faults.
 */
std::function<ExperimentResult(const ExperimentConfig &, WorkloadCache &,
                               const RunContext &)>
makeFaultInjectingRunFn(const FaultPlan &plan,
                        std::shared_ptr<FaultLog> log = nullptr);

} // namespace rvp

#endif // RVP_SIM_FAULTINJECT_HH
