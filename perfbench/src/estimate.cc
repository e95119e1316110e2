#include "estimate.hh"

#include <algorithm>

#include "bench.hh"
#include "emu/emulator.hh"

namespace bench
{

namespace
{

/** Keeps the driven loops' results observable. */
volatile std::uint64_t sink = 0;

} // namespace

double
timeDecode(const StreamPtr &stream, std::uint64_t n)
{
    rvp::StreamCursor cursor(stream);
    rvp::DynInst d;
    std::uint64_t acc = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n && cursor.step(d); ++i)
        acc += d.newValue;
    double s = secondsSince(t0);
    sink = sink + acc;
    return s;
}

double
timeDecodeAndPredict(const StreamPtr &stream, rvp::ValuePredictor &predictor,
                     std::uint64_t n)
{
    rvp::StreamCursor cursor(stream);
    rvp::DynInst d;
    std::uint64_t acc = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n && cursor.step(d); ++i) {
        acc += d.newValue;
        acc += predictor.onInst(d, cursor.preState()).correct;
    }
    double s = secondsSince(t0);
    sink = sink + acc;
    return s;
}

double
timeEmulate(const rvp::Program &program, std::uint64_t n)
{
    rvp::Emulator emulator(program);
    rvp::DynInst d;
    std::uint64_t acc = 0;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n && emulator.step(d); ++i)
        acc += d.newValue;
    double s = secondsSince(t0);
    sink = sink + acc;
    return s;
}

double
fastestOf(int passes, const std::function<double()> &time)
{
    double best = time();
    for (int i = 1; i < passes; ++i)
        best = std::min(best, time());
    return best;
}

} // namespace bench
