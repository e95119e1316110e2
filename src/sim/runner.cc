#include "sim/runner.hh"

#include <bit>
#include <chrono>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "common/logging.hh"
#include "compiler/arch_liveness.hh"
#include "compiler/rvp_realloc.hh"
#include "profile/critical_path.hh"
#include "sim/sweep.hh"
#include "trace/tracer.hh"
#include "vp/registry.hh"

namespace rvp
{

namespace
{

/** Map train-profile reuse into Section-7.3 reallocation candidates. */
std::vector<ReuseCandidate>
buildCandidates(const ProfileRun &pr, const LowerResult &low,
                double threshold)
{
    std::vector<ReuseCandidate> cands;
    const ReuseProfile &p = pr.profile;
    for (std::uint32_t s = 0; s < p.counts.size(); ++s) {
        if (p.counts[s].execs == 0)
            continue;
        StaticPredSpec spec = p.bestSpec(s, AssistLevel::DeadLv);
        double rate = p.bestRate(s, AssistLevel::DeadLv);
        if (rate < threshold)
            continue;
        ReuseCandidate cand;
        cand.consumerIr = low.irIdOfStatic[s];
        cand.priority = pr.cpScores[s];
        if (spec.source == PredSource::OtherReg) {
            auto it = p.primaryProducer.find(
                ReuseProfile::producerKey(s, spec.reg));
            if (it == p.primaryProducer.end())
                continue;
            cand.producerIr = low.irIdOfStatic[it->second];
        } else if (spec.source == PredSource::LastValue) {
            cand.isLvr = true;
        } else {
            continue;   // already same-register: nothing to re-allocate
        }
        cands.push_back(cand);
    }
    return cands;
}

} // namespace

CompiledWorkload
compileWorkload(const std::string &name, InputSet input,
                const RunDeadline *deadline)
{
    CompiledWorkload c;
    if (deadline)
        deadline->check("compile");
    c.wl = buildWorkload(name, input);
    if (deadline)
        deadline->check("compile");
    c.alloc = allocateRegisters(c.wl.func, AllocConfig{});
    RVP_ASSERT(c.alloc.success);
    if (deadline)
        deadline->check("compile");
    c.low = lower(c.wl.func, c.alloc);
    c.low.program.dataImage = c.wl.data;
    return c;
}

ProfileRun
profileCompiled(const CompiledWorkload &c, std::uint64_t insts,
                const RunDeadline *deadline)
{
    std::vector<std::uint64_t> live =
        archLiveBefore(c.wl.func, c.alloc, c.low);
    ReuseProfiler profiler(c.low.program, live);
    CriticalPathProfiler cp(c.low.program.size());
    Emulator emu(c.low.program);
    DynInst di;
    std::uint64_t n = 0;
    while (n < insts) {
        if (deadline && (n & 4095u) == 0)
            deadline->check("profile");
        ArchState pre = emu.state();
        if (!emu.step(di))
            break;
        profiler.observe(di, pre);
        cp.observe(di);
        ++n;
    }
    return {profiler.finish(), cp.scores()};
}

ReuseProfile
profileWorkload(const std::string &workload, std::uint64_t insts,
                InputSet input)
{
    CompiledWorkload c = compileWorkload(workload, input);
    return profileCompiled(c, insts).profile;
}

void
validateExperimentConfig(const ExperimentConfig &config)
{
    if (!findWorkload(config.workload))
        throwConfigError("unknown workload '%s' (see allWorkloads())",
                         config.workload.c_str());
    auto checkBudget = [](const char *field, std::uint64_t insts) {
        if (insts == 0 || insts > maxInstBudget)
            throwConfigError("%s %llu is outside [1, 2^40]: a run needs "
                             "an instruction, and its replay bound must "
                             "not wrap",
                             field, static_cast<unsigned long long>(insts));
    };
    checkBudget("insts", config.core.maxInsts);
    checkBudget("profile_insts", config.profileInsts);
    if (config.realisticRealloc && config.scheme != VpScheme::DynamicRvp)
        throwConfigError("realloc with scheme %s: realisticRealloc "
                         "re-colours the registers for same-register "
                         "dynamic RVP and would discard the scheme; use "
                         "drvp",
                         schemeName(config.scheme));
    if (config.realisticRealloc && config.assist != AssistLevel::Same)
        throwConfigError("realloc with assist %s: realisticRealloc "
                         "replaces the profile application with a real "
                         "re-allocation; assist must stay same",
                         assistName(config.assist));
    if (config.scheme == VpScheme::StaticRvp && !config.loadsOnly)
        throwConfigError("scheme srvp with loads_only false: static RVP "
                         "predicts opcode-marked loads only; "
                         "loadsOnly=false is contradictory");
    if (config.tableEntries == 0 || config.tableEntries > maxTableEntries)
        throwConfigError("table_entries %u is outside [1, %u]: a "
                         "predictor table needs at least one entry",
                         config.tableEntries, maxTableEntries);
    if (config.counterThreshold > 7)
        throwConfigError("counter_threshold %u does not fit the 3-bit "
                         "resetting confidence counters (max 7)",
                         config.counterThreshold);
    if (!(config.profileThreshold >= 0.0 && config.profileThreshold <= 1.0))
        throwConfigError("profile_threshold %g is not a rate in [0, 1]",
                         config.profileThreshold);
    if (!config.traceOut.empty() && config.traceSample == 0)
        throwConfigError("trace_sample 0: traceSample must be > 0 when "
                         "tracing (it is the sample divisor seq %% N == "
                         "0)");
    // Scheme-specific params: parse the bag and check every key
    // against the registry's declaration for this scheme.
    PredictorRegistry::instance().checkParams(
        registryNameOf(config.scheme),
        VpParams::parse(config.vpParams));
    validateCacheConfig(config.core.mem.l1i);
    validateCacheConfig(config.core.mem.l1d);
    validateCacheConfig(config.core.mem.l2);
}

StreamKey
streamKeyFor(const ExperimentConfig &config, bool reallocFailed)
{
    StreamKey key;
    key.workload = config.workload;
    key.input = InputSet::Ref;
    if (config.realisticRealloc && !reallocFailed) {
        key.binary = StreamKey::Binary::Realloc;
        key.profileInsts = config.profileInsts;
        key.thresholdBits =
            std::bit_cast<std::uint64_t>(config.profileThreshold);
    } else if (config.scheme == VpScheme::StaticRvp) {
        key.binary = StreamKey::Binary::SrvpMarked;
        key.assist = config.assist;
        key.profileInsts = config.profileInsts;
        key.thresholdBits =
            std::bit_cast<std::uint64_t>(config.profileThreshold);
    }
    return key;
}

PreparedRun
prepareExperiment(const ExperimentConfig &config, const RunContext &context)
{
    validateExperimentConfig(config);
    WorkloadCache *cache = context.cache;
    const RunDeadline *deadline = context.deadline;
    // Check promptly so an attempt that starts past its budget (e.g. a
    // worker wedged elsewhere) fails before compiling anything.
    if (deadline)
        deadline->check("run start");

    PreparedRun prep;
    prep.config = config;

    // The needs-profile schemes: static RVP always; dynamic RVP when a
    // compiler-assistance level beyond plain same-register is assumed;
    // and any realistic re-allocation.
    bool needs_profile =
        config.scheme == VpScheme::StaticRvp ||
        (config.scheme == VpScheme::DynamicRvp &&
         config.assist != AssistLevel::Same) ||
        config.realisticRealloc;

    // Profile the *train* input. The profile points into the compiled
    // train binary (ReuseProfile keeps a Program pointer), so that
    // binary must outlive every use of the profile: the cache keeps its
    // instance alive for the whole sweep; the uncached path anchors a
    // keepalive in the PreparedRun.
    if (needs_profile) {
        if (cache) {
            prep.trainProfile =
                cache->profiled(config.workload, InputSet::Train,
                                config.profileInsts, deadline);
        } else {
            prep.trainKeepalive =
                std::make_shared<const CompiledWorkload>(
                    compileWorkload(config.workload, InputSet::Train,
                                    deadline));
            prep.trainProfile = std::make_shared<const ProfileRun>(
                profileCompiled(*prep.trainKeepalive,
                                config.profileInsts, deadline));
        }
    }

    // Compile the *ref* input. Workload construction and allocation
    // are deterministic, so static indices line up with the train
    // binary (asserted below) and a cached instance is bit-identical
    // to a fresh compile.
    prep.refShared =
        cache ? cache->compiled(config.workload, InputSet::Ref, deadline)
              : std::make_shared<const CompiledWorkload>(
                    compileWorkload(config.workload, InputSet::Ref,
                                    deadline));
    if (needs_profile) {
        RVP_ASSERT(prep.trainProfile->profile.counts.size() ==
                   prep.refShared->low.program.size());
    }

    prep.vp.scheme = config.scheme;
    prep.vp.loadsOnly = config.loadsOnly;
    prep.vp.tableEntries = config.tableEntries;
    prep.vp.taggedRvp = config.taggedRvp;
    prep.vp.threshold = config.counterThreshold;
    prep.vp.params = config.vpParams;

    // Schemes that rewrite the binary work on a private copy; the
    // cached instance stays pristine for concurrent runs.
    if (config.realisticRealloc) {
        // Figure 7: re-colour the registers to honour the profiled
        // reuses, then run plain same-register dynamic RVP on the
        // re-allocated binary — no optimistic profile application.
        prep.mutated =
            std::make_unique<CompiledWorkload>(*prep.refShared);
        prep.useMutated = true;
        std::vector<ReuseCandidate> cands = buildCandidates(
            *prep.trainProfile, prep.mutated->low,
            config.profileThreshold);
        ReallocResult rr = reallocForReuse(prep.mutated->wl.func,
                                           AllocConfig{}, cands);
        prep.reallocStats.set("realloc.attempted", 1.0);
        prep.reallocStats.set("realloc.candidates",
                              static_cast<double>(cands.size()));
        prep.reallocStats.set("realloc.failed", rr.success ? 0.0 : 1.0);
        if (rr.success) {
            std::uint64_t honored = 0;
            for (bool h : rr.honored)
                honored += h;
            prep.reallocStats.set("realloc.honored",
                                  static_cast<double>(honored));
            prep.reallocStats.set(
                "realloc.dropped_legality",
                static_cast<double>(rr.droppedForLegality));
            prep.reallocStats.set(
                "realloc.dropped_coloring",
                static_cast<double>(rr.droppedForColoring));
            prep.mutated->alloc = std::move(rr.alloc);
            prep.mutated->low =
                lower(prep.mutated->wl.func, prep.mutated->alloc);
            prep.mutated->low.program.dataImage = prep.mutated->wl.data;
        } else {
            prep.reallocFailed = true;
            warn("register re-allocation failed for %s; keeping the "
                 "baseline allocation",
                 config.workload.c_str());
        }
        prep.vp.specs.clear();  // same-register only: reuse is in the
                                // binary
    } else if (config.scheme == VpScheme::StaticRvp) {
        // Mark the profiled loads with rvp_* opcodes and apply the
        // profile's prediction sources.
        prep.mutated =
            std::make_unique<CompiledWorkload>(*prep.refShared);
        prep.useMutated = true;
        auto marked_vec = prep.trainProfile->profile.selectStaticLoads(
            config.assist, config.profileThreshold);
        std::unordered_set<std::uint32_t> marked_ir;
        for (std::uint32_t s : marked_vec)
            marked_ir.insert(prep.mutated->low.irIdOfStatic[s]);
        prep.mutated->low = lower(prep.mutated->wl.func,
                                  prep.mutated->alloc, &marked_ir);
        prep.mutated->low.program.dataImage = prep.mutated->wl.data;
        prep.vp.specs = prep.trainProfile->profile.buildSpecs(
            config.assist, config.profileThreshold);
    } else if (config.scheme == VpScheme::DynamicRvp &&
               config.assist != AssistLevel::Same) {
        prep.vp.specs = prep.trainProfile->profile.buildSpecs(
            config.assist, config.profileThreshold);
    }

    prep.predictor = makePredictor(prep.vp, prep.timedProgram());
    if (!config.traceOut.empty())
        prep.tracer = std::make_unique<PipelineTracer>(config.traceSample);

    // Fetch runs at most robEntries ahead of commit, and commit can
    // overshoot the budget by one commit group in its final cycle,
    // which bounds what any run can pull from the source.
    prep.minInsts = config.core.maxInsts + config.core.robEntries +
                    config.core.commitWidth;
    prep.key = streamKeyFor(config, prep.reallocFailed);
    return prep;
}

ExperimentResult
finishExperiment(PreparedRun &prep, CoreResult cr, double hostSeconds)
{
    const ExperimentConfig &config = prep.config;
    if (prep.tracer) {
        std::ofstream out(config.traceOut,
                          std::ios::out | std::ios::trunc);
        RVP_ASSERT(out.is_open(), "cannot open trace output '%s'",
                   config.traceOut.c_str());
        const std::string &path = config.traceOut;
        bool jsonl = path.size() >= 6 &&
                     path.compare(path.size() - 6, 6, ".jsonl") == 0;
        if (jsonl)
            prep.tracer->writeJsonl(out);
        else
            prep.tracer->writeChromeJson(out);
        // Trace bookkeeping goes into the stat map only when tracing
        // is on, so a tracing-off run stays bit-identical to golden
        // snapshots.
        cr.stats.set("trace.records",
                     static_cast<double>(prep.tracer->recordedTotal()));
        cr.stats.set("trace.sample_interval",
                     static_cast<double>(config.traceSample));
    }

    ExperimentResult result;
    result.ipc = cr.ipc;
    result.cycles = cr.cycles;
    result.committed = cr.committed;
    result.reallocFailed = prep.reallocFailed;
    result.hostSeconds = hostSeconds;
    result.kips = result.hostSeconds > 0.0
                      ? static_cast<double>(cr.committed) /
                            result.hostSeconds / 1000.0
                      : 0.0;
    result.stats = std::move(cr.stats);
    result.stats.merge(prep.reallocStats);
    // vp.predictions / vp.correct count the committed path only (the
    // core re-bases them at commit), so coverage can never exceed 1.
    double committed = static_cast<double>(cr.committed);
    double predictions = result.stats.get("vp.predictions");
    result.predictedFrac = committed > 0 ? predictions / committed : 0.0;
    result.accuracy =
        predictions > 0 ? result.stats.get("vp.correct") / predictions
                        : 0.0;
    return result;
}

ExperimentResult
runExperiment(const ExperimentConfig &config, const RunContext &context)
{
    WorkloadCache *cache = context.cache;
    const RunDeadline *deadline = context.deadline;
    PreparedRun prep = prepareExperiment(config, context);

    // With a sweep cache, replay the committed stream instead of
    // re-emulating it: functional execution and SparseMemory traffic
    // happen once per distinct binary; every other run replays the
    // encoded capture (bit-identical — capture verifies every derived
    // field against the live emulator). Null stream = run live (cache
    // disabled, or this binary's stream exceeds the byte budget).
    WorkloadCache::StreamPtr stream;
    std::unique_ptr<StreamCursor> cursor;
    if (cache && !context.bypassStream) {
        const Program &timed = prep.timedProgram();
        try {
            stream = cache->stream(
                prep.key, prep.minInsts, [&](std::uint64_t max_bytes) {
                    return CapturedStream::capture(timed, prep.minInsts,
                                                   max_bytes, deadline);
                });
        } catch (const std::bad_alloc &) {
            // Capture ran out of memory: shrink the stream budget so
            // later captures are bounded tighter, remember the key as
            // uncacheable, and run this attempt live. Never a failure.
            cache->noteCaptureOom(prep.key);
            warn("stream capture ran out of memory for %s; shrinking "
                 "the cache budget and running live",
                 config.workload.c_str());
            stream = nullptr;
        }
        if (stream) {
            try {
                // Attach verifies the stream's sealed header and
                // per-lane checksums (stream/stream.hh).
                cursor = std::make_unique<StreamCursor>(stream);
            } catch (const StreamIntegrityError &e) {
                // A corrupt capture must never be replayed: drop the
                // cached entry (the next run re-captures) and fall
                // back to live emulation, which is bit-identical.
                cache->noteStreamIntegrityFailure(prep.key);
                warn("%s for %s; falling back to live emulation",
                     e.what(), config.workload.c_str());
                stream = nullptr;
            }
        }
    }
    Core core(config.core, prep.timedProgram(), *prep.predictor,
              prep.tracer.get(), cursor.get(), deadline);
    auto t0 = std::chrono::steady_clock::now();
    CoreResult cr = core.run();
    auto t1 = std::chrono::steady_clock::now();
    return finishExperiment(
        prep, std::move(cr),
        std::chrono::duration<double>(t1 - t0).count());
}

ExperimentResult
runExperiment(const ExperimentConfig &config, WorkloadCache *cache)
{
    RunContext context;
    context.cache = cache;
    return runExperiment(config, context);
}

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    return runExperiment(config, RunContext{});
}

} // namespace rvp
