#include "sim/faultinject.hh"

#include <chrono>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "stream/stream.hh"

namespace rvp
{

namespace
{

std::atomic<std::uint64_t> captureOomAfter{~0ull};

void
captureOomHook(std::uint64_t instsSoFar)
{
    if (instsSoFar >= captureOomAfter.load(std::memory_order_relaxed)) {
        disarmCaptureFaults();
        throw std::bad_alloc();
    }
}

} // namespace

void
armCaptureBadAlloc(std::uint64_t afterInsts)
{
    captureOomAfter.store(afterInsts, std::memory_order_relaxed);
    CapturedStream::captureHook.store(&captureOomHook,
                                      std::memory_order_release);
}

void
disarmCaptureFaults()
{
    CapturedStream::captureHook.store(nullptr,
                                      std::memory_order_release);
    captureOomAfter.store(~0ull, std::memory_order_relaxed);
}

std::function<void(const ExperimentConfig &, const RunContext &)>
makeFaultHook(const FaultPlan &plan, std::shared_ptr<FaultLog> log)
{
    return [plan, log](const ExperimentConfig &config,
                       const RunContext &context) {
        auto it = plan.faults.find(context.runIndex);
        bool fires = it != plan.faults.end() &&
                     (plan.persistent || context.attempt == 0);
        if (!fires)
            return;
        if (log)
            log->fired.fetch_add(1, std::memory_order_relaxed);
        switch (it->second) {
          case FaultKind::Throw:
            throw std::runtime_error(
                "injected fault (run " +
                std::to_string(context.runIndex) + ")");
          case FaultKind::SleepPastDeadline:
            // An armed deadline is now expired; preparation's entry
            // check throws DeadlineExceeded.
            std::this_thread::sleep_for(
                std::chrono::duration<double>(plan.sleepSeconds));
            return;
          case FaultKind::BadAlloc:
            armCaptureBadAlloc(plan.oomAfterInsts);
            return;
          case FaultKind::CorruptStream:
          case FaultKind::TruncateStream: {
            // minInsts=0 makes this a pure lookup for any resolved
            // entry.
            WorkloadCache::StreamPtr stream;
            if (context.cache) {
                stream = context.cache->stream(
                    streamKeyFor(config, false), 0,
                    [](std::uint64_t) -> WorkloadCache::StreamPtr {
                        return nullptr;
                    });
            }
            if (!stream) {
                throw std::logic_error(
                    "fault plan error: no cached stream to corrupt "
                    "for run " + std::to_string(context.runIndex));
            }
            if (it->second == FaultKind::CorruptStream) {
                corruptStreamForTest(*stream, plan.corruptLane,
                                     plan.corruptOffset, plan.corruptXor);
            } else {
                truncateStreamForTest(*stream, plan.corruptLane, 1);
            }
            return;
          }
        }
    };
}

} // namespace rvp
