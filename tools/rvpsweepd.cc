/**
 * @file
 * rvpsweepd — the sweep service daemon. Listens on a Unix-domain
 * socket for framed experiment submissions (see docs/INTERNALS.md,
 * "Sweep service"), executes them through the shared sweep engine,
 * and memoizes every successful run in a crash-recoverable
 * content-addressed store, so identical requests — from any client,
 * across any number of daemon restarts — are answered byte-identically
 * from disk instead of being re-simulated.
 *
 *   rvpsweepd --socket /tmp/rvp.sock --store /tmp/rvp.store.jsonl
 *   sweepctl --socket /tmp/rvp.sock submit --workloads go --schemes lvp
 *
 * SIGTERM/SIGINT drain gracefully: in-flight runs finish, their
 * results are delivered and journaled, the store is compacted, then
 * the process exits 0. SIGKILL is recovered on the next start by
 * replaying the store.
 */

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/deadline.hh"
#include "service/daemon.hh"
#include "sim/journal.hh"

using namespace rvp;

namespace
{

void
usage()
{
    std::cout <<
        "rvpsweepd — sweep-as-a-service daemon\n"
        "\n"
        "  --socket PATH       Unix socket to listen on    (required)\n"
        "  --store PATH        persistent result store     (required)\n"
        "  --jobs N            executor worker threads     (default 1)\n"
        "  --run-deadline S    per-run watchdog, seconds   (default off)\n"
        "  --idle S            per-connection idle deadline (default 30)\n"
        "  --request-deadline S  per-request deadline      (default off)\n"
        "  --max-queued N      pending-run queue bound     (default 256)\n"
        "  --max-frame-bytes N per-frame byte bound  (default 16 MiB)\n"
        "  --progress          per-run progress lines on stderr\n"
        "  --help              this text\n";
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "rvpsweepd: " << msg << "\n";
    std::exit(1);
}

/** Drain-pipe write end, for the async-signal-safe handler. */
volatile int signalFd = -1;

void
onTermSignal(int)
{
    int fd = signalFd;
    if (fd >= 0) {
        char b = 's';
        (void)!write(fd, &b, 1);
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    ServiceOptions opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--store") {
            opts.storePath = next();
        } else if (arg == "--jobs") {
            opts.jobs = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--run-deadline") {
            opts.runDeadlineSeconds = parseSeconds(next(), "--run-deadline");
        } else if (arg == "--idle") {
            opts.idleSeconds = parseSeconds(next(), "--idle");
        } else if (arg == "--request-deadline") {
            opts.requestSeconds = parseSeconds(next(), "--request-deadline");
        } else if (arg == "--max-queued") {
            opts.maxQueuedRuns = parseNumber<std::size_t>(next(), arg);
        } else if (arg == "--max-frame-bytes") {
            opts.maxFrameBytes = parseNumber<std::size_t>(next(), arg);
        } else if (arg == "--progress") {
            opts.progress = true;
        } else {
            die("unknown option '" + arg + "' (see --help)");
        }
    }
    if (opts.socketPath.empty())
        die("--socket is required");
    if (opts.storePath.empty())
        die("--store is required");
    // Before the store is opened: replaying a FIFO would block.
    checkArtifactPath(opts.storePath, "--store");

    SweepService service(opts);
    if (!service.ok())
        die("cannot start (socket or store unavailable)");

    signalFd = service.drainFd();
    struct sigaction sa = {};
    sa.sa_handler = onTermSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    std::cerr << "rvpsweepd: listening on " << opts.socketPath
              << " (store " << opts.storePath << ")\n";
    int rc = service.run();
    std::cerr << "rvpsweepd: drained, exiting\n";
    return rc;
} catch (const ConfigError &e) {
    die(e.what());
}
