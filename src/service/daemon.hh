/**
 * @file
 * The sweep service: a long-running daemon that listens on a
 * Unix-domain socket, accepts experiment submissions as framed JSONL
 * requests (service/protocol.hh), executes them through runSweep on a
 * background executor thread, and answers from / publishes to a
 * persistent content-addressed result store (service/store.hh).
 *
 * Robustness contract (each clause is fault-injection-tested in
 * tests/test_service.cc):
 *  - malformed or oversized frames get a typed error frame, then the
 *    connection closes; the daemon itself never dies on client input;
 *  - every RunSpec is decoded with checked kinds and numbers, and its
 *    config validated (a ConfigError is answered with a `validation`
 *    frame) before anything is queued; one bad spec rejects the
 *    whole submit;
 *  - per-connection idle deadline and per-request deadline (both
 *    RunDeadline-based) bound slow-loris clients and forgotten
 *    requests;
 *  - identical in-flight runs are deduplicated across clients: the
 *    second submitter subscribes to the first's completion;
 *  - the pending queue is bounded; a submit that does not fit is
 *    rejected whole with a backpressure error (nothing partial);
 *  - SIGTERM (via drainFd) drains gracefully: stop accepting, refuse
 *    new submits, finish in-flight runs, deliver their results,
 *    compact the store, exit; SIGKILL recovery is the store replay on
 *    the next start — completed keys answer byte-identically, from
 *    the store, without re-running.
 */

#ifndef RVP_SERVICE_DAEMON_HH
#define RVP_SERVICE_DAEMON_HH

#include <cstddef>
#include <memory>
#include <string>

#include "common/framing.hh"

namespace rvp
{

struct ServiceOptions
{
    std::string socketPath;
    std::string storePath;
    /** Worker threads of the executor's runSweep batches. */
    unsigned jobs = 1;
    /** Per-run-attempt watchdog, seconds; 0 = none (SweepOptions). */
    double runDeadlineSeconds = 0.0;
    /** Close a connection with no complete frame for this long. */
    double idleSeconds = 30.0;
    /** Error a submit whose results have not all been delivered
     *  within this budget; 0 = none. */
    double requestSeconds = 0.0;
    /** Pending-queue bound: a submit whose fresh runs do not fit is
     *  rejected whole with a backpressure error. */
    std::size_t maxQueuedRuns = 256;
    /** Per-connection frame byte bound (FrameReader). */
    std::size_t maxFrameBytes = defaultMaxFrameBytes;
    /** Per-run progress lines on stderr. */
    bool progress = false;
};

class SweepService
{
  public:
    explicit SweepService(const ServiceOptions &options);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Socket bound and store opened. */
    bool ok() const;

    /**
     * Async-signal-safe drain trigger: write one byte to this fd (a
     * pipe write end) from a signal handler or another thread and the
     * service begins a graceful drain.
     */
    int drainFd() const;

    /** Serve until drained. Returns the process exit code (0 on a
     *  clean drain). */
    int run();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rvp

#endif // RVP_SERVICE_DAEMON_HH
