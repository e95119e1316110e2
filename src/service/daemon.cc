#include "service/daemon.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/deadline.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "service/protocol.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace rvp
{

namespace
{

void
closeIf(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

struct SweepService::Impl
{
    // ---- construction-time state ------------------------------------

    ServiceOptions opts;
    RunStore store;
    /** One cache across every batch the executor runs, so repeated
     *  grids share compiles/profiles/streams like one big sweep. */
    WorkloadCache cache{WorkloadCache::defaultStreamCacheBytes};
    int listenFd = -1;
    int wakePipe[2] = {-1, -1};   ///< executor -> poll loop
    int drainPipe[2] = {-1, -1};  ///< signal handler -> poll loop

    // ---- main-thread-only connection state --------------------------

    struct Conn
    {
        int fd = -1;
        FrameReader reader;
        std::string out;            ///< unsent frame bytes
        bool closing = false;       ///< close once `out` drains
        std::unique_ptr<RunDeadline> idle;

        Conn(int f, std::size_t maxFrame) : fd(f), reader(f, maxFrame) {}
    };

    struct Sub
    {
        int fd = -1;                ///< subscribing connection
        std::string id;             ///< its submit id
        std::uint64_t index = 0;    ///< run position in that submit
        std::unique_ptr<RunDeadline> deadline;
    };

    std::map<int, Conn> conns;
    std::map<std::string, std::vector<Sub>> subs;  ///< key -> waiters
    bool draining = false;

    // ---- executor-shared state (guarded by mutex) -------------------

    struct PendingRun
    {
        std::string key;
        ExperimentConfig config;
    };

    struct Completion
    {
        std::string key;
        std::string record;   ///< encoded journal line (exact bytes)
    };

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<PendingRun> pendingQ;
    std::set<std::string> pendingKeys;
    std::set<std::string> inflight;
    std::vector<Completion> completions;
    bool stopExecutor = false;
    std::thread executor;

    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> servedCached{0};
    std::atomic<std::uint64_t> dedupSubscribed{0};

    explicit Impl(const ServiceOptions &options)
        : opts(options), store(options.storePath)
    {
        if (::pipe2(wakePipe, O_NONBLOCK | O_CLOEXEC) != 0 ||
            ::pipe2(drainPipe, O_NONBLOCK | O_CLOEXEC) != 0) {
            warn("sweep service: cannot create pipes: %s",
                 std::strerror(errno));
            return;
        }

        sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        if (opts.socketPath.size() >= sizeof(addr.sun_path)) {
            warn("sweep service: socket path too long: %s",
                 opts.socketPath.c_str());
            return;
        }
        std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(opts.socketPath.c_str());
        int fd = ::socket(AF_UNIX,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            warn("sweep service: socket: %s", std::strerror(errno));
            return;
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            warn("sweep service: cannot listen on %s: %s",
                 opts.socketPath.c_str(), std::strerror(errno));
            ::close(fd);
            return;
        }
        listenFd = fd;
    }

    ~Impl()
    {
        // run() joins the executor on every path; this is the
        // never-ran / ctor-failed path.
        if (executor.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                stopExecutor = true;
            }
            cv.notify_all();
            executor.join();
        }
        for (auto &[fd, conn] : conns)
            ::close(conn.fd);
        closeIf(listenFd);
        closeIf(wakePipe[0]);
        closeIf(wakePipe[1]);
        closeIf(drainPipe[0]);
        closeIf(drainPipe[1]);
    }

    bool
    ok() const
    {
        return listenFd >= 0 && store.ok();
    }

    // ---- executor ---------------------------------------------------

    void
    wakeMainLoop()
    {
        char b = 'c';
        // Best-effort: a full pipe already guarantees a pending wake.
        (void)!::write(wakePipe[1], &b, 1);
    }

    void
    publishCompletion(const std::string &key, const std::string &record)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            inflight.erase(key);
            completions.push_back({key, record});
        }
        wakeMainLoop();
    }

    void
    executorLoop()
    {
        for (;;) {
            std::vector<PendingRun> batch;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] {
                    return stopExecutor || !pendingQ.empty();
                });
                if (stopExecutor && pendingQ.empty())
                    return;
                while (!pendingQ.empty()) {
                    batch.push_back(std::move(pendingQ.front()));
                    pendingQ.pop_front();
                }
                for (const PendingRun &p : batch) {
                    pendingKeys.erase(p.key);
                    inflight.insert(p.key);
                }
            }

            std::vector<ExperimentConfig> configs;
            configs.reserve(batch.size());
            for (const PendingRun &p : batch)
                configs.push_back(p.config);

            SweepOptions so;
            so.jobs = opts.jobs ? opts.jobs : 1;
            so.progress = opts.progress;
            so.runDeadline = opts.runDeadlineSeconds;
            so.sharedCache = &cache;
            try {
                // runStored calls back after a record's put returned,
                // so a stored key is never delivered before it is
                // durable.
                runStored(configs, &store, so, nullptr,
                          [&](const StoredRun &run) {
                              if (!run.cached)
                                  executed.fetch_add(1);
                              publishCompletion(run.key, run.line);
                          });
            } catch (const std::exception &e) {
                // runSweep contains per-run failures itself; this is
                // setup-level. Fail every key still owed a completion
                // so no subscriber waits forever.
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    bool owed;
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        owed = inflight.count(batch[i].key) > 0;
                    }
                    if (!owed)
                        continue;
                    ExperimentResult failed;
                    failed.failed = true;
                    failed.error = e.what();
                    publishCompletion(batch[i].key,
                                      encodeJournalRecord(journalRecordFor(
                                          batch[i].config, failed, 0.0)));
                }
            }
        }
    }

    // ---- connection plumbing (main thread) --------------------------

    void
    armIdle(Conn &conn)
    {
        if (opts.idleSeconds > 0)
            conn.idle = std::make_unique<RunDeadline>(opts.idleSeconds);
    }

    /** Returns false when the connection died mid-write. */
    bool
    flushConn(Conn &conn)
    {
        while (!conn.out.empty()) {
            ssize_t n = ::send(conn.fd, conn.out.data(),
                               conn.out.size(), MSG_NOSIGNAL);
            if (n > 0) {
                conn.out.erase(0, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;   // poll for POLLOUT
            return false;
        }
        return true;
    }

    void
    queueFrame(Conn &conn, const std::string &payload)
    {
        conn.out += encodeFrame(payload);
    }

    void
    sendError(Conn &conn, ServiceError::Code code,
              const std::string &message, const std::string &id = "")
    {
        queueFrame(conn, encodeErrorReply(code, message, id));
    }

    void
    closeConn(int fd)
    {
        auto it = conns.find(fd);
        if (it == conns.end())
            return;
        ::close(it->second.fd);
        conns.erase(it);
        // Drop this connection's subscriptions; the runs themselves
        // keep executing (their results land in the store, and any
        // other subscriber of the same key still gets its frame).
        for (auto sit = subs.begin(); sit != subs.end();) {
            auto &vec = sit->second;
            vec.erase(std::remove_if(vec.begin(), vec.end(),
                                     [fd](const Sub &s) {
                                         return s.fd == fd;
                                     }),
                      vec.end());
            if (vec.empty())
                sit = subs.erase(sit);
            else
                ++sit;
        }
    }

    void
    acceptNew()
    {
        for (;;) {
            int fd = ::accept4(listenFd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                return;   // EAGAIN or transient failure
            }
            auto [it, inserted] = conns.emplace(
                fd, Conn(fd, opts.maxFrameBytes));
            armIdle(it->second);
            queueFrame(it->second, encodeHelloReply(store.size()));
            if (!flushConn(it->second))
                closeConn(fd);
        }
    }

    ServiceStatus
    currentStatus()
    {
        ServiceStatus s;
        s.storeEntries = store.size();
        s.staleEntries = store.staleLines();
        {
            std::lock_guard<std::mutex> lock(mutex);
            s.queued = pendingQ.size();
            s.inflight = inflight.size();
        }
        s.clients = conns.size();
        s.executed = executed.load();
        s.servedCached = servedCached.load();
        s.dedupSubscribed = dedupSubscribed.load();
        s.draining = draining;
        return s;
    }

    void
    beginDrain()
    {
        if (draining)
            return;
        draining = true;
        closeIf(listenFd);
        // The executor keeps going until the accepted queue is empty;
        // stopExecutor is only set once everything drained (run()).
        cv.notify_all();
    }

    void
    handleSubmit(Conn &conn, const ClientRequest &req)
    {
        if (draining) {
            sendError(conn, ServiceError::Code::Draining,
                      "daemon is draining; no new work accepted",
                      req.id);
            return;
        }
        if (req.runs.empty()) {
            sendError(conn, ServiceError::Code::Validation,
                      "submit carries no runs", req.id);
            return;
        }
        // Validate EVERY spec before queuing ANY: one bad spec
        // rejects the whole submit. Each spec's config is built once
        // here and is what gets queued.
        std::vector<ExperimentConfig> configs;
        configs.reserve(req.runs.size());
        for (const RunSpec &spec : req.runs) {
            try {
                configs.push_back(configForSpec(spec));
                validateExperimentConfig(configs.back());
            } catch (const ConfigError &e) {
                sendError(conn, ServiceError::Code::Validation, e.what(),
                          req.id);
                return;
            }
        }

        std::vector<std::string> keys;
        std::vector<std::optional<std::string>> cached;
        keys.reserve(configs.size());
        for (const ExperimentConfig &config : configs) {
            keys.push_back(configKey(config));
            cached.push_back(store.get(keys.back()));
        }

        // Admission control: everything not cached and not already
        // running/queued must fit the pending queue, or the whole
        // submit is rejected (no partial acceptance to untangle).
        std::vector<std::size_t> fresh;
        {
            std::lock_guard<std::mutex> lock(mutex);
            std::set<std::string> seen;   // dups within this submit
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (cached[i])
                    continue;
                if (pendingKeys.count(keys[i]) ||
                    inflight.count(keys[i]) || seen.count(keys[i]))
                    continue;
                seen.insert(keys[i]);
                fresh.push_back(i);
            }
            if (pendingQ.size() + fresh.size() > opts.maxQueuedRuns) {
                sendError(conn, ServiceError::Code::Backpressure,
                          "request queue full (" +
                              std::to_string(pendingQ.size()) + " of " +
                              std::to_string(opts.maxQueuedRuns) +
                              " pending); resubmit later",
                          req.id);
                return;
            }
            for (std::size_t i : fresh) {
                pendingQ.push_back({keys[i], std::move(configs[i])});
                pendingKeys.insert(keys[i]);
            }
        }
        if (!fresh.empty())
            cv.notify_all();

        std::set<std::size_t> freshSet(fresh.begin(), fresh.end());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (cached[i]) {
                // Served from the store: the stored bytes, verbatim.
                queueFrame(conn, encodeResultReply(req.id, i, keys[i],
                                                   true, *cached[i]));
                servedCached.fetch_add(1);
                continue;
            }
            Sub sub;
            sub.fd = conn.fd;
            sub.id = req.id;
            sub.index = i;
            if (opts.requestSeconds > 0)
                sub.deadline =
                    std::make_unique<RunDeadline>(opts.requestSeconds);
            subs[keys[i]].push_back(std::move(sub));
            if (!freshSet.count(i))
                dedupSubscribed.fetch_add(1);
        }
    }

    void
    handleFrame(Conn &conn, const std::string &payload)
    {
        ClientRequest req;
        try {
            req = decodeClientRequest(payload);
        } catch (const ServiceError &e) {
            sendError(conn, e.code(), e.what());
            // Only a malformed message, not a bad spec, ends it.
            if (e.code() != ServiceError::Code::Validation)
                conn.closing = true;
            return;
        }
        switch (req.kind) {
          case ClientRequest::Kind::Hello:
            if (req.version != serviceProtocolVersion) {
                sendError(conn, ServiceError::Code::Protocol,
                          "unsupported protocol version " +
                              std::to_string(req.version));
                conn.closing = true;
            }
            break;
          case ClientRequest::Kind::Status:
            queueFrame(conn, encodeStatusReply(currentStatus()));
            break;
          case ClientRequest::Kind::Shutdown:
            queueFrame(conn, encodeByeReply());
            conn.closing = true;
            beginDrain();
            break;
          case ClientRequest::Kind::Submit:
            handleSubmit(conn, req);
            break;
        }
    }

    /** Returns false when the connection should be closed. */
    bool
    readConn(Conn &conn)
    {
        char buf[4096];
        for (;;) {
            ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (n > 0) {
                conn.reader.feed(buf, static_cast<std::size_t>(n));
                armIdle(conn);
                if (static_cast<std::size_t>(n) < sizeof(buf))
                    break;
                continue;
            }
            if (n == 0)
                return false;   // peer closed
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        try {
            while (std::optional<std::string> f = conn.reader.next())
                handleFrame(conn, *f);
        } catch (const FrameError &e) {
            sendError(conn,
                      e.kind() == FrameError::Kind::Oversized
                          ? ServiceError::Code::Oversized
                          : ServiceError::Code::Protocol,
                      e.what());
            conn.closing = true;
        }
        return true;
    }

    void
    deliverCompletions()
    {
        std::vector<Completion> done;
        {
            std::lock_guard<std::mutex> lock(mutex);
            done.swap(completions);
        }
        for (const Completion &c : done) {
            auto it = subs.find(c.key);
            if (it == subs.end())
                continue;
            std::vector<Sub> waiters = std::move(it->second);
            subs.erase(it);
            for (const Sub &s : waiters) {
                auto cit = conns.find(s.fd);
                if (cit == conns.end())
                    continue;   // subscriber disconnected meanwhile
                queueFrame(cit->second,
                           encodeResultReply(s.id, s.index, c.key,
                                             false, c.record));
            }
        }
    }

    void
    checkDeadlines(std::vector<int> &toClose)
    {
        for (auto &[fd, conn] : conns) {
            if (conn.idle && conn.idle->expired()) {
                sendError(conn, ServiceError::Code::Deadline,
                          "idle deadline exceeded");
                flushConn(conn);
                toClose.push_back(fd);
            }
        }
        for (auto sit = subs.begin(); sit != subs.end();) {
            auto &vec = sit->second;
            for (auto vit = vec.begin(); vit != vec.end();) {
                if (vit->deadline && vit->deadline->expired()) {
                    auto cit = conns.find(vit->fd);
                    if (cit != conns.end())
                        sendError(cit->second,
                                  ServiceError::Code::Deadline,
                                  "request deadline exceeded for key " +
                                      sit->first,
                                  vit->id);
                    vit = vec.erase(vit);
                } else {
                    ++vit;
                }
            }
            if (vec.empty())
                sit = subs.erase(sit);
            else
                ++sit;
        }
    }

    void
    drainPipeBytes(int fd)
    {
        char buf[64];
        while (::read(fd, buf, sizeof(buf)) > 0) {
        }
    }

    int
    run()
    {
        if (!ok())
            return 1;
        ScopedSigpipeIgnore sigpipe;
        executor = std::thread([this] { executorLoop(); });

        for (;;) {
            std::vector<pollfd> pfds;
            pfds.push_back({drainPipe[0], POLLIN, 0});
            pfds.push_back({wakePipe[0], POLLIN, 0});
            // Captured now: beginDrain() (triggered below, this same
            // iteration) closes listenFd, and the index arithmetic
            // must keep describing the pfds we actually built.
            bool hadListen = listenFd >= 0;
            if (hadListen)
                pfds.push_back({listenFd, POLLIN, 0});
            std::vector<int> connFds;
            for (auto &[fd, conn] : conns) {
                short events = POLLIN;
                if (!conn.out.empty())
                    events |= POLLOUT;
                pfds.push_back({fd, events, 0});
                connFds.push_back(fd);
            }

            // Coarse 100ms tick whenever a deadline could be armed or
            // a drain is pending; block indefinitely when fully idle.
            bool needTick = draining || !conns.empty() || !subs.empty();
            int rc = ::poll(pfds.data(), pfds.size(),
                            needTick ? 100 : -1);
            if (rc < 0 && errno != EINTR) {
                warn("sweep service: poll: %s", std::strerror(errno));
                break;
            }

            if (pfds[0].revents & POLLIN) {
                drainPipeBytes(drainPipe[0]);
                beginDrain();
            }
            if (pfds[1].revents & POLLIN)
                drainPipeBytes(wakePipe[0]);
            deliverCompletions();

            std::size_t base = 2;
            if (hadListen) {
                if (listenFd >= 0 && (pfds[base].revents & POLLIN))
                    acceptNew();
                ++base;
            }

            std::vector<int> toClose;
            for (std::size_t i = 0; i < connFds.size(); ++i) {
                const pollfd &p = pfds[base + i];
                auto it = conns.find(connFds[i]);
                if (it == conns.end())
                    continue;
                Conn &conn = it->second;
                if (p.revents & (POLLERR | POLLNVAL)) {
                    toClose.push_back(conn.fd);
                    continue;
                }
                if (p.revents & (POLLIN | POLLHUP)) {
                    if (!readConn(conn)) {
                        toClose.push_back(conn.fd);
                        continue;
                    }
                }
                if (!flushConn(conn)) {
                    toClose.push_back(conn.fd);
                    continue;
                }
                if (conn.closing && conn.out.empty())
                    toClose.push_back(conn.fd);
            }
            checkDeadlines(toClose);
            for (int fd : toClose)
                closeConn(fd);

            if (draining) {
                bool workDone;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    workDone = pendingQ.empty() && inflight.empty() &&
                               completions.empty();
                }
                bool flushed = true;
                for (auto &[fd, conn] : conns)
                    if (!conn.out.empty())
                        flushed = false;
                if (workDone && flushed)
                    break;
            }
        }

        {
            std::lock_guard<std::mutex> lock(mutex);
            stopExecutor = true;
        }
        cv.notify_all();
        executor.join();
        store.compact();
        std::vector<int> all;
        for (auto &[fd, conn] : conns)
            all.push_back(fd);
        for (int fd : all)
            closeConn(fd);
        ::unlink(opts.socketPath.c_str());
        return 0;
    }
};

SweepService::SweepService(const ServiceOptions &options)
    : impl_(std::make_unique<Impl>(options))
{
}

SweepService::~SweepService() = default;

bool
SweepService::ok() const
{
    return impl_->ok();
}

int
SweepService::drainFd() const
{
    return impl_->drainPipe[1];
}

int
SweepService::run()
{
    return impl_->run();
}

} // namespace rvp
