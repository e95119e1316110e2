/**
 * @file
 * Busy-time estimates for layers that run inside a larger public call
 * (decode and prediction inside runSweep/runExperiment, emulation
 * inside CapturedStream::capture): the traced run drives each one by
 * itself, over the same inputs the workload gave it, through its own
 * public interface.
 */

#ifndef RVP_PERFBENCH_ESTIMATE_HH
#define RVP_PERFBENCH_ESTIMATE_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "stream/stream.hh"
#include "vp/predictor.hh"

namespace bench
{

using StreamPtr = std::shared_ptr<const rvp::CapturedStream>;

/** Seconds for StreamCursor::step over n instructions of stream. */
double timeDecode(const StreamPtr &stream, std::uint64_t n);

/**
 * Seconds for StreamCursor::step plus ValuePredictor::onInst over n
 * instructions (the predictor sees each with its pre-state, as at
 * fetch). Subtract timeDecode over the same n for the predictor alone.
 */
double timeDecodeAndPredict(const StreamPtr &stream,
                            rvp::ValuePredictor &predictor,
                            std::uint64_t n);

/**
 * Seconds for Emulator::step over n instructions: the emulation loop
 * CapturedStream::capture runs (LiveEmulatorSource, which also tracks
 * each instruction's pre-state, is the live path neither workload
 * takes, and costs about 2.5 times as much).
 */
double timeEmulate(const rvp::Program &program, std::uint64_t n);

/**
 * The least of `passes` timings of the same work: its cost under the
 * least interference from the host. Estimates taken this way are
 * lower bounds, so the ledger terms derived from them stay honest.
 */
double fastestOf(int passes, const std::function<double()> &time);

} // namespace bench

#endif // RVP_PERFBENCH_ESTIMATE_HH
