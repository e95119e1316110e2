#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "sim/batchrun.hh"

namespace rvp
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Memoize build() under key in map: the first requester installs a
 * shared_future and builds outside the lock; later requesters (racing
 * or not) wait on the same future. hit/miss counters are updated
 * under the lock. A build that throws is evicted from the map before
 * the exception is published, so the failure reaches exactly the
 * requesters that shared this build — a later request (e.g. a retry
 * with a fresh deadline) rebuilds instead of inheriting a poisoned
 * entry for the rest of the sweep.
 */
template <typename Map, typename Key, typename Build>
std::invoke_result_t<Build>
memoize(std::mutex &mutex, Map &map, const Key &key,
        std::uint64_t &hits, std::uint64_t &misses, Build &&build)
{
    using Ptr = std::invoke_result_t<Build>;
    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = map.find(key);
        if (it == map.end()) {
            future = promise.get_future().share();
            map.emplace(key, future);
            builder = true;
            ++misses;
        } else {
            future = it->second;
            ++hits;
        }
    }
    if (builder) {
        // Propagate a throwing build to every waiter instead of
        // leaving them blocked on a never-satisfied future.
        try {
            promise.set_value(build());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                map.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

} // namespace

const char *
schemeName(VpScheme scheme)
{
    switch (scheme) {
      case VpScheme::None:
        return "none";
      case VpScheme::Lvp:
        return "lvp";
      case VpScheme::StaticRvp:
        return "srvp";
      case VpScheme::DynamicRvp:
        return "drvp";
      case VpScheme::GabbayRp:
        return "grp";
      case VpScheme::Stride:
        return "stride";
      case VpScheme::Balcvp:
        return "balcvp";
      case VpScheme::Fcm:
        return "fcm";
      case VpScheme::Oracle:
        return "oracle";
    }
    return "?";
}

const char *
assistName(AssistLevel level)
{
    switch (level) {
      case AssistLevel::Same:
        return "same";
      case AssistLevel::Dead:
        return "dead";
      case AssistLevel::Live:
        return "live";
      case AssistLevel::DeadLv:
        return "dead_lv";
      case AssistLevel::LiveLv:
        return "live_lv";
      case AssistLevel::DeadLvStride:
        return "dead_lv_stride";
    }
    return "?";
}

std::string
describeConfig(const ExperimentConfig &config)
{
    std::string s = config.workload;
    s += '/';
    s += schemeName(config.scheme);
    if (config.scheme == VpScheme::StaticRvp ||
        config.scheme == VpScheme::DynamicRvp) {
        s += '-';
        s += assistName(config.assist);
    }
    if (config.realisticRealloc)
        s += "-realloc";
    if (config.taggedRvp)
        s += "-tagged";
    s += config.loadsOnly ? "-loads" : "-all";
    return s;
}

std::shared_ptr<const CompiledWorkload>
WorkloadCache::compiled(const std::string &workload, InputSet input,
                        const RunDeadline *deadline)
{
    CompileKey key{workload, static_cast<int>(input)};
    return memoize(mutex_, compiled_, key, stats_.compileHits,
                   stats_.compileMisses, [&]() -> CompiledPtr {
                       return std::make_shared<const CompiledWorkload>(
                           compileWorkload(workload, input, deadline));
                   });
}

std::shared_ptr<const ProfileRun>
WorkloadCache::profiled(const std::string &workload, InputSet input,
                        std::uint64_t insts, const RunDeadline *deadline)
{
    // Resolve the compiled binary first so the profile build itself
    // (outside the lock) never recursively takes the cache mutex.
    CompiledPtr c = compiled(workload, input, deadline);
    ProfileKey key{workload, static_cast<int>(input), insts};
    return memoize(mutex_, profiled_, key, stats_.profileHits,
                   stats_.profileMisses, [&]() -> ProfilePtr {
                       return std::make_shared<const ProfileRun>(
                           profileCompiled(*c, insts, deadline));
                   });
}

WorkloadCache::StreamPtr
WorkloadCache::stream(const StreamKey &key, std::uint64_t minInsts,
                      const std::function<StreamPtr(std::uint64_t)> &build)
{
    std::uint64_t budget = streamBudget_.load(std::memory_order_relaxed);
    if (budget == 0)
        return nullptr;
    // The loop re-enters when a shared build resolves to a stream
    // truncated below this caller's bound (a smaller-budget run built
    // it first): the entry is then replaced and rebuilt at ours.
    for (;;) {
        std::promise<StreamPtr> promise;
        std::shared_future<StreamPtr> future;
        bool builder = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = streams_.find(key);
            bool rebuild = it != streams_.end() && it->second.resolved &&
                           it->second.future.get() &&
                           !it->second.future.get()->covers(minInsts);
            if (it == streams_.end() || rebuild) {
                if (rebuild) {
                    // A capture truncated below this run's bound is
                    // useless to it — replace, don't count an evict.
                    stats_.streamBytesResident -= it->second.bytes;
                    streams_.erase(it);
                }
                future = promise.get_future().share();
                StreamEntry entry;
                entry.future = future;
                streams_.emplace(key, std::move(entry));
                ++stats_.streamMisses;
                builder = true;
            } else {
                StreamEntry &entry = it->second;
                if (entry.resolved) {
                    entry.lastUse = ++streamStamp_;
                    if (!entry.future.get()) {
                        // Negative entry: too big for the budget.
                        ++stats_.streamMisses;
                        return nullptr;
                    }
                    ++stats_.streamHits;
                    return entry.future.get();
                }
                future = entry.future;   // share the in-flight build
                ++stats_.streamHits;
            }
        }
        if (builder) {
            StreamPtr built;
            try {
                built = build(budget);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    streams_.erase(key);
                }
                promise.set_exception(std::current_exception());
                throw;
            }
            promise.set_value(built);
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = streams_.find(key);
            if (it != streams_.end()) {
                StreamEntry &entry = it->second;
                entry.resolved = true;
                entry.lastUse = ++streamStamp_;
                if (built) {
                    entry.bytes = built->encodedBytes();
                    entry.insts = built->instCount();
                    stats_.streamBytesResident += entry.bytes;
                    stats_.streamBytesBuilt += entry.bytes;
                    stats_.streamInstsBuilt += entry.insts;
                    evictStreamsOverBudget(key);
                }
            }
            return built;
        }
        StreamPtr got = future.get();
        if (!got)
            return nullptr;
        if (got->covers(minInsts))
            return got;
    }
}

void
WorkloadCache::evictStreamsOverBudget(const StreamKey &keep)
{
    while (stats_.streamBytesResident > streamBudget_) {
        auto victim = streams_.end();
        for (auto it = streams_.begin(); it != streams_.end(); ++it) {
            if (!it->second.resolved || !it->second.future.get() ||
                it->first == keep) {
                continue;   // pending, negative, or the new arrival
            }
            if (victim == streams_.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        if (victim == streams_.end())
            break;   // nothing evictable (the new stream alone fits)
        stats_.streamBytesResident -= victim->second.bytes;
        ++stats_.streamEvicted;
        streams_.erase(victim);
    }
}

void
WorkloadCache::noteCaptureOom(const StreamKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(key);
    if (it != streams_.end()) {
        if (it->second.resolved)
            stats_.streamBytesResident -= it->second.bytes;
        streams_.erase(it);
    }
    // Pin the key to live emulation: a resolved-null (negative) entry.
    std::promise<StreamPtr> promise;
    StreamEntry entry;
    entry.future = promise.get_future().share();
    entry.resolved = true;
    entry.lastUse = ++streamStamp_;
    promise.set_value(nullptr);
    streams_.insert_or_assign(key, std::move(entry));
    streamBudget_.store(streamBudget_.load(std::memory_order_relaxed) / 2,
                        std::memory_order_relaxed);
    ++stats_.streamCaptureOoms;
}

void
WorkloadCache::noteStreamIntegrityFailure(const StreamKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(key);
    if (it != streams_.end() && it->second.resolved) {
        stats_.streamBytesResident -= it->second.bytes;
        streams_.erase(it);
    }
    ++stats_.streamIntegrityFailures;
}

WorkloadCacheStats
WorkloadCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

unsigned
defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::size_t count, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            body(i);
        }
    };
    std::vector<std::thread> pool;
    unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(jobs, count));
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

KipsSummary
summarizeKips(const std::vector<ExperimentResult> &results)
{
    KipsSummary s;
    for (const ExperimentResult &r : results) {
        if (r.failed)
            continue;
        if (!s.any || r.kips < s.minKips)
            s.minKips = r.kips;
        if (!s.any || r.kips > s.maxKips)
            s.maxKips = r.kips;
        s.any = true;
    }
    return s;
}

std::vector<std::vector<std::size_t>>
streamKeyGroups(const std::vector<ExperimentConfig> &configs,
                unsigned maxGroupRuns)
{
    std::map<StreamKey, std::size_t> by_key;
    std::vector<std::vector<std::size_t>> whole;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        auto [it, inserted] =
            by_key.try_emplace(streamKeyFor(configs[i], false), whole.size());
        if (inserted)
            whole.emplace_back();
        whole[it->second].push_back(i);
    }
    // Chunk oversized groups so one giant group cannot serialize the
    // tail of the sweep across jobs. Bit-identical: members of a batch
    // never interact, and each chunk replays the same cached stream
    // the whole group would have.
    std::vector<std::vector<std::size_t>> groups;
    for (const std::vector<std::size_t> &group : whole) {
        std::size_t chunk = maxGroupRuns == 0 ? group.size() : maxGroupRuns;
        for (std::size_t at = 0; at < group.size(); at += chunk) {
            std::size_t n = std::min(chunk, group.size() - at);
            groups.emplace_back(group.begin() + at, group.begin() + at + n);
        }
    }
    return groups;
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &configs,
         const SweepOptions &options, SweepReport *report)
{
    unsigned jobs = options.jobs ? options.jobs : defaultJobs();

    // Fail fast on a bad grid before spending any cycles on it.
    for (const ExperimentConfig &config : configs)
        validateExperimentConfig(config);

    std::vector<ExperimentResult> results(configs.size());
    std::vector<double> run_seconds(configs.size(), 0.0);
    WorkloadCache local_cache(options.streamCapture
                                  ? options.streamCacheBytes
                                  : 0);
    WorkloadCache &cache =
        options.sharedCache ? *options.sharedCache : local_cache;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::uint64_t> batch_groups{0};
    std::atomic<std::uint64_t> batched_runs{0};
    std::atomic<std::uint64_t> batch_fallouts{0};
    std::mutex progress_mutex;
    auto sweep_start = std::chrono::steady_clock::now();

    // ---- per-run bookkeeping shared by the solo and batched paths --

    auto finishRun = [&](std::size_t i) {
        if (options.onRunRecord)
            options.onRunRecord(configs[i], i, results[i], run_seconds[i]);
        if (options.onRunComplete)
            options.onRunComplete(i, results[i], run_seconds[i]);
        std::size_t done = completed.fetch_add(1) + 1;
        if (options.progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            if (results[i].failed)
                std::fprintf(stderr, "  [%zu/%zu] %s: FAILED: %s\n",
                             done, configs.size(),
                             describeConfig(configs[i]).c_str(),
                             results[i].error.c_str());
            else
                std::fprintf(stderr,
                             "  [%zu/%zu] %s: ipc %.3f (%.2fs)%s\n",
                             done, configs.size(),
                             describeConfig(configs[i]).c_str(),
                             results[i].ipc, run_seconds[i],
                             results[i].degraded ? " [degraded]" : "");
        }
    };

    auto retryNotice = [&](std::size_t i, unsigned attempt) {
        if (!options.progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        std::fprintf(stderr,
                     "  %s: attempt %u failed (%s); retrying "
                     "degraded\n",
                     describeConfig(configs[i]).c_str(), attempt + 1,
                     results[i].error.c_str());
    };

    // Bounded backoff: doubled per attempt, capped at 1s.
    auto backoffSleep = [&](unsigned attempt) {
        double backoff = options.retryBackoff;
        for (unsigned b = 0; b < attempt; ++b)
            backoff *= 2.0;
        backoff = std::min(backoff, 1.0);
        if (backoff > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
        }
    };

    // One run's contained attempt loop, entered at first_attempt.
    // Precondition for first_attempt > 0 (a batch fall-out): the
    // caller stored the failed attempt in results[i], printed the
    // retry notice, and slept the backoff. Bodies must not throw
    // (parallelFor), so every attempt is caught here; if the last
    // allowed attempt fails the run is recorded as failed while every
    // other run proceeds.
    auto runAttempts = [&](std::size_t i, unsigned first_attempt) {
        for (unsigned attempt = first_attempt;; ++attempt) {
            bool degraded = attempt > 0;
            RunContext context;
            context.cache = &cache;
            context.runIndex = i;
            context.attempt = attempt;
            context.bypassStream = degraded;
            // Each attempt gets a fresh wall-clock budget; the null
            // fast path (runDeadline == 0) never reads the clock.
            std::optional<RunDeadline> deadline;
            if (options.runDeadline > 0.0) {
                deadline.emplace(options.runDeadline);
                context.deadline = &*deadline;
            }
            ExperimentConfig config = configs[i];
            if (degraded) {
                // Degraded profile: live emulation only, no tracing,
                // no histograms. Keeps the retry's peak memory and
                // failure surface minimal; the headline stats are
                // unaffected (tracing/hist are observers).
                config.traceOut.clear();
                config.core.collectHist = false;
            }
            try {
                if (options.onAttemptStart)
                    options.onAttemptStart(config, context);
                results[i] = options.runFn
                                 ? options.runFn(config, cache, context)
                                 : runExperiment(config, context);
                results[i].retries = attempt;
                results[i].degraded = degraded;
                break;
            } catch (const std::exception &e) {
                results[i] = ExperimentResult{};
                results[i].failed = true;
                results[i].error = e.what();
            } catch (...) {
                results[i] = ExperimentResult{};
                results[i].failed = true;
                results[i].error = "unknown exception";
            }
            results[i].retries = attempt;
            results[i].degraded = degraded;
            if (attempt >= options.maxRetries)
                break;
            retryNotice(i, attempt);
            backoffSleep(attempt);
        }
    };

    auto runSolo = [&](std::size_t i) {
        auto run_start = std::chrono::steady_clock::now();
        runAttempts(i, 0);
        run_seconds[i] = secondsSince(run_start);
        finishRun(i);
    };

    // ---- scheduling: group by stream key when batching applies ----
    //
    // Batching needs the real run body (the batch IS the run) and a
    // stream cache to share, so a custom runFn or disabled capture
    // falls back to per-run scheduling. Grouping uses the presumed
    // key (reallocFailed=false — cheap, no compilation); a member
    // whose actual key diverges at prepare falls out to a solo run.
    bool batching = options.batchReplay && options.streamCapture &&
                    !options.runFn;
    std::vector<std::vector<std::size_t>> groups;
    if (batching) {
        groups = streamKeyGroups(configs, options.maxBatchGroupRuns);
    } else {
        groups.resize(configs.size());
        for (std::size_t i = 0; i < configs.size(); ++i)
            groups[i].push_back(i);
    }

    parallelFor(groups.size(), jobs, [&](std::size_t gi) {
        const std::vector<std::size_t> &group = groups[gi];
        if (group.size() <= 1) {
            for (std::size_t i : group)
                runSolo(i);
            return;
        }
        auto group_start = std::chrono::steady_clock::now();
        batch_groups.fetch_add(1, std::memory_order_relaxed);
        std::vector<ExperimentConfig> group_configs;
        group_configs.reserve(group.size());
        for (std::size_t i : group)
            group_configs.push_back(configs[i]);
        BatchRunOptions bopts;
        bopts.runDeadline = options.runDeadline;
        bopts.onAttemptStart = options.onAttemptStart;
        std::vector<BatchMemberOutcome> outcomes = runBatchedGroup(
            group_configs, group, streamKeyFor(configs[group[0]], false),
            cache, bopts);
        for (std::size_t j = 0; j < group.size(); ++j) {
            std::size_t i = group[j];
            BatchMemberOutcome &o = outcomes[j];
            if (!o.ran) {
                // No batched stream for this member: solo, attempt 0
                // (the same live fallback the solo path would take).
                runSolo(i);
                continue;
            }
            results[i] = std::move(o.result);
            results[i].retries = 0;
            results[i].degraded = false;
            if (!results[i].failed) {
                batched_runs.fetch_add(1, std::memory_order_relaxed);
                run_seconds[i] = secondsSince(group_start);
                finishRun(i);
                continue;
            }
            // Fell out of the batch with attempt 0 consumed: retry
            // solo under the degraded profile (or keep the recorded
            // failure when retries are disabled).
            batch_fallouts.fetch_add(1, std::memory_order_relaxed);
            if (options.maxRetries > 0) {
                retryNotice(i, 0);
                backoffSleep(0);
                runAttempts(i, 1);
            }
            run_seconds[i] = secondsSince(group_start);
            finishRun(i);
        }
    });

    if (report) {
        report->wallSeconds = secondsSince(sweep_start);
        report->runSeconds = std::move(run_seconds);
        report->jobs = jobs;
        report->cache = cache.stats();
        report->batchGroups =
            batch_groups.load(std::memory_order_relaxed);
        report->batchedRuns =
            batched_runs.load(std::memory_order_relaxed);
        report->batchFallouts =
            batch_fallouts.load(std::memory_order_relaxed);
    }
    return results;
}

} // namespace rvp
