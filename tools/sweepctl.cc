/**
 * @file
 * sweepctl — client for rvpsweepd. Submits experiment grids, queries
 * daemon status, and requests graceful shutdown, with retry + capped
 * exponential backoff around every connection attempt and automatic
 * reconnect-and-resubmit when the daemon restarts mid-request (the
 * store + in-flight dedup make a resubmit of already-finished runs
 * free, and their records come back byte-identical).
 *
 *   sweepctl --socket /tmp/rvp.sock status
 *   sweepctl --socket /tmp/rvp.sock submit \
 *       --workloads go,mgrid --schemes lvp,drvp --insts 50000
 *   sweepctl --socket /tmp/rvp.sock shutdown
 *
 * Exit codes: 0 success; 1 bad input (checked before connecting), a
 * run failed, or the daemon rejected the request; 2 could not talk to
 * the daemon at all.
 */

#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "sim/journal.hh"

using namespace rvp;

namespace
{

void
usage()
{
    std::cout <<
        "sweepctl — rvpsweepd client\n"
        "\n"
        "  sweepctl [options] status | submit | shutdown\n"
        "\n"
        "common options:\n"
        "  --socket PATH        daemon socket (required)\n"
        "  --retries N          connection attempts      (default 5)\n"
        "  --backoff S          initial retry backoff, doubled per\n"
        "                       attempt, capped at 2s    (default 0.1)\n"
        "\n"
        "submit options (grid = workloads x schemes):\n"
        "  --workloads A,B,..   workload names           (required)\n"
        "  --schemes X,Y,..     predictor scheme names   (required)\n"
        "  --insts N            timed commit budget  (default 400000)\n"
        "  --profile-insts N    profile budget       (default 300000)\n"
        "  --assist NAME        same|dead|live|dead_lv|live_lv|...\n"
        "  --recovery NAME      refetch|reissue|selective\n"
        "  --all                predict all instructions, not loads\n"
        "  --table-entries N    predictor table size\n"
        "  --counter-threshold N  confidence threshold (0..7)\n"
        "  --vp-params K=V,..   registry param bag for every run\n"
        "  --out FILE           also write record lines (JSONL) here\n";
}

/** Exit 2 (cannot talk to the daemon) or, for bad input found
 *  before connecting, 1. */
[[noreturn]] void
die(const std::string &msg, int code = 2)
{
    std::cerr << "sweepctl: " << msg << "\n";
    std::exit(code);
}

struct Options
{
    std::string socketPath;
    unsigned retries = 5;
    double backoff = 0.1;
    std::string command;
    // submit
    std::vector<std::string> workloads;
    std::vector<std::string> schemes;
    RunSpec base;   ///< shared knobs of every grid spec
    std::string outPath;
};

void
sleepSeconds(double s)
{
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/**
 * Connect with retry + capped exponential backoff. Consumes one
 * attempt per failure; returns false once the budget is spent.
 */
bool
connectWithRetry(ServiceClient &client, const Options &opts,
                 unsigned &attemptsLeft)
{
    double backoff = opts.backoff;
    while (attemptsLeft > 0) {
        --attemptsLeft;
        if (client.connect(opts.socketPath))
            return true;
        if (attemptsLeft == 0)
            break;
        std::cerr << "sweepctl: connect failed (" << client.lastError()
                  << "), retrying in " << backoff << "s\n";
        sleepSeconds(backoff);
        backoff = std::min(backoff * 2.0, 2.0);
    }
    return false;
}

int
runStatus(const Options &opts)
{
    ServiceClient client;
    unsigned attempts = opts.retries;
    if (!connectWithRetry(client, opts, attempts))
        die("cannot connect to " + opts.socketPath + ": " +
            client.lastError());
    if (!client.send(encodeStatusRequest()))
        die("send failed: " + client.lastError());
    std::optional<ServerMsg> msg = client.recv();
    if (!msg || msg->kind != ServerMsg::Kind::Status)
        die("no status reply: " + client.lastError());
    const ServiceStatus &s = msg->status;
    std::cout << "store_entries    " << s.storeEntries << "\n"
              << "queued           " << s.queued << "\n"
              << "inflight         " << s.inflight << "\n"
              << "clients          " << s.clients << "\n"
              << "executed         " << s.executed << "\n"
              << "served_cached    " << s.servedCached << "\n"
              << "dedup_subscribed " << s.dedupSubscribed << "\n"
              << "draining         " << (s.draining ? "yes" : "no")
              << "\n";
    return 0;
}

int
runShutdown(const Options &opts)
{
    ServiceClient client;
    unsigned attempts = opts.retries;
    if (!connectWithRetry(client, opts, attempts))
        die("cannot connect to " + opts.socketPath + ": " +
            client.lastError());
    if (!client.send(encodeShutdownRequest()))
        die("send failed: " + client.lastError());
    std::optional<ServerMsg> msg = client.recv();
    if (!msg || msg->kind != ServerMsg::Kind::Bye)
        die("no shutdown ack: " + client.lastError());
    std::cout << "sweepctl: daemon draining\n";
    return 0;
}

int
runSubmit(const Options &opts)
{
    if (opts.workloads.empty() || opts.schemes.empty())
        die("submit needs --workloads and --schemes", 1);

    std::vector<RunSpec> grid;
    for (const std::string &workload : opts.workloads) {
        for (const std::string &scheme : opts.schemes) {
            RunSpec spec = opts.base;
            spec.workload = workload;
            spec.scheme = scheme;
            grid.push_back(spec);
        }
    }
    // The daemon's own check, run here first: a bad grid exits 1
    // (main's ConfigError handler) without a connection.
    for (const RunSpec &spec : grid)
        validateExperimentConfig(configForSpec(spec));

    // Everything still owed a result, by key. A reconnect resubmits
    // exactly these; completed keys come back from the store with the
    // byte-identical record, so retries never redo finished work.
    std::map<std::string, RunSpec> awaited;
    for (const RunSpec &spec : grid)
        awaited.emplace(runSpecKey(spec), spec);

    std::map<std::string, std::string> records;   ///< key -> line
    bool anyFailed = false;
    unsigned attempts = opts.retries;
    double backoff = opts.backoff;
    unsigned submitSeq = 0;

    while (!awaited.empty()) {
        ServiceClient client;
        if (!connectWithRetry(client, opts, attempts))
            die("cannot connect to " + opts.socketPath + ": " +
                client.lastError());

        std::vector<RunSpec> remaining;
        for (const auto &[key, spec] : awaited)
            remaining.push_back(spec);
        std::string id = "sweepctl-" + std::to_string(getpid()) + "-" +
                         std::to_string(submitSeq++);
        if (!client.send(encodeSubmitRequest(id, remaining)))
            continue;   // reconnect path; attempts already consumed

        bool resubmit = false;
        while (!awaited.empty() && !resubmit) {
            std::optional<ServerMsg> msg;
            try {
                msg = client.recv();
            } catch (const ServiceError &e) {
                die(std::string("protocol error: ") + e.what());
            }
            if (!msg) {
                std::cerr << "sweepctl: connection lost ("
                          << client.lastError() << "), resubmitting "
                          << awaited.size() << " runs\n";
                resubmit = true;
                break;
            }
            switch (msg->kind) {
              case ServerMsg::Kind::Result: {
                auto it = awaited.begin();
                for (; it != awaited.end(); ++it)
                    if (it->first == msg->key)
                        break;
                if (it == awaited.end())
                    break;   // duplicate delivery; already recorded
                records[msg->key] = msg->record;
                std::optional<JournalRecord> rec =
                    parseJournalRunLine(msg->record);
                if (!rec) {
                    std::cerr << "sweepctl: unparseable record for key "
                              << msg->key << "\n";
                    anyFailed = true;
                } else if (rec->result.failed) {
                    std::cerr << "  " << msg->key << " "
                              << rec->variant
                              << ": FAILED: " << rec->result.error
                              << "\n";
                    anyFailed = true;
                } else {
                    std::cout << "  " << msg->key << " " << rec->variant
                              << ": ipc " << rec->result.ipc
                              << (msg->cached ? " (cached)" : "")
                              << "\n";
                }
                awaited.erase(it);
                break;
              }
              case ServerMsg::Kind::Error:
                if (msg->code == ServiceError::Code::Backpressure ||
                    msg->code == ServiceError::Code::Draining) {
                    // Transient by design: back off and resubmit
                    // everything still owed (to this daemon or its
                    // successor).
                    std::cerr << "sweepctl: "
                              << serviceCodeName(msg->code) << " ("
                              << msg->message << "), retrying in "
                              << backoff << "s\n";
                    if (attempts == 0)
                        die("retry budget exhausted: " + msg->message);
                    --attempts;
                    sleepSeconds(backoff);
                    backoff = std::min(backoff * 2.0, 2.0);
                    resubmit = true;
                    break;
                }
                std::cerr << "sweepctl: daemon rejected request ["
                          << serviceCodeName(msg->code)
                          << "]: " << msg->message << "\n";
                return 1;
              default:
                break;   // ignore stray hello/status frames
            }
        }
    }

    if (!opts.outPath.empty()) {
        std::string contents;
        for (const auto &[key, line] : records) {
            contents += line;
            contents += '\n';
        }
        if (!writeFileAtomic(opts.outPath, contents))
            die("cannot write " + opts.outPath);
    }
    std::cout << "sweepctl: " << records.size() << " records"
              << (anyFailed ? " (with failures)" : "") << "\n";
    return anyFailed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg, 1);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--retries") {
            opts.retries = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--backoff") {
            opts.backoff = parseSeconds(next(), "--backoff");
        } else if (arg == "--workloads") {
            opts.workloads = splitCsv(next());
        } else if (arg == "--schemes") {
            opts.schemes = splitCsv(next());
        } else if (arg == "--insts") {
            opts.base.insts = parseNumber<std::uint64_t>(next(), arg);
        } else if (arg == "--profile-insts") {
            opts.base.profileInsts = parseNumber<std::uint64_t>(next(), arg);
        } else if (arg == "--assist") {
            opts.base.assist = next();
        } else if (arg == "--recovery") {
            opts.base.recovery = next();
        } else if (arg == "--all") {
            opts.base.loadsOnly = false;
        } else if (arg == "--table-entries") {
            opts.base.tableEntries = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--counter-threshold") {
            opts.base.counterThreshold = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--vp-params") {
            opts.base.vpParams = next();
        } else if (arg == "--out") {
            opts.outPath = next();
        } else if (arg == "status" || arg == "submit" ||
                   arg == "shutdown") {
            if (!opts.command.empty())
                die("multiple commands given", 1);
            opts.command = arg;
        } else {
            die("unknown option '" + arg + "'", 1);
        }
    }
    if (opts.socketPath.empty())
        die("--socket is required", 1);
    if (opts.command.empty())
        die("no command given (status | submit | shutdown)", 1);
    if (opts.retries == 0)
        opts.retries = 1;

    if (opts.command == "status")
        return runStatus(opts);
    if (opts.command == "shutdown")
        return runShutdown(opts);
    return runSubmit(opts);
} catch (const ConfigError &e) {
    die(e.what(), 1);
}
