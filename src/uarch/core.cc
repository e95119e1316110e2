#include "uarch/core.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rvp
{

Core::Counters::Counters(StatSet &stats)
    : branchMispredicts(stats.counter("core.branch_mispredicts")),
      valueMispredicts(stats.counter("core.value_mispredicts")),
      reissues(stats.counter("core.reissues")),
      valueRefetches(stats.counter("core.value_refetches")),
      commitCyclesUsed(stats.counter("core.commit_cycles_used")),
      holdAfterDoneCycles(stats.counter("core.hold_after_done_cycles")),
      holdsReleased(stats.counter("core.holds_released")),
      storeForwards(stats.counter("core.store_forwards")),
      issued(stats.counter("core.issued")),
      iqOccupancyInt(stats.counter("core.iq_occupancy_int")),
      iqOccupancyFp(stats.counter("core.iq_occupancy_fp")),
      iqFullStalls(stats.counter("core.iq_full_stalls")),
      physRegStalls(stats.counter("core.phys_reg_stalls")),
      lsqFullStalls(stats.counter("core.lsq_full_stalls")),
      predictedValueUses(stats.counter("core.predicted_value_uses")),
      predictionsDispatched(stats.counter("core.predictions_dispatched")),
      fetchStallCycles(stats.counter("core.fetch_stall_cycles")),
      robFullStalls(stats.counter("core.rob_full_stalls")),
      icacheMissStalls(stats.counter("core.icache_miss_stalls")),
      fetched(stats.counter("core.fetched")),
      squashed(stats.counter("core.squashed"))
{
}

Core::Core(const CoreParams &params, const Program &prog,
           ValuePredictor &predictor, PipelineTracer *tracer,
           InstSource *source, const RunDeadline *deadline)
    : params_(params), prog_(prog), predictor_(predictor),
      mem_(params.mem), bp_(params.bp), tracer_(tracer),
      deadline_(deadline), ctr_(stats_)
{
    if (source) {
        source_ = source;
    } else {
        ownedSource_ = std::make_unique<LiveEmulatorSource>(prog);
        source_ = ownedSource_.get();
    }
    // Fetch probes the I-cache once per new line; the grouping must
    // match the configured geometry (validateCacheConfig guarantees a
    // power-of-two line size).
    fetchLineShift_ = floorLog2(params.mem.l1i.lineBytes);
    if (params.collectHist) {
        histIssueToComplete_ =
            &stats_.distribution("core.issue_to_complete");
        histIqOccupancy_ = &stats_.distribution("core.iq_occupancy");
        histLsqOccupancy_ = &stats_.distribution("core.lsq_occupancy");
        histRecoveryPenalty_ =
            &stats_.distribution("core.recovery_penalty");
    }
    lastInstanceTag_.assign(prog.size(), 0);
    lastInstanceSeq_.assign(prog.size(), noSeq);

    // Size the completion wheel to the longest possible issue-to-
    // complete delay: the worst-case load (address generation + L1 +
    // both miss penalties) plus a generous bound on static op
    // latencies. scheduleCompletion() asserts the invariant.
    std::uint64_t span = 2 + params.mem.l1HitLatency +
                         params.mem.l1MissPenalty +
                         params.mem.l2MissPenalty + 64;
    std::uint64_t size = 1;
    while (size < span)
        size <<= 1;
    wheel_.assign(size, {});
    wheelMask_ = size - 1;

    // Seq-indexed rings: the window never exceeds robEntries (fetch
    // stops at a full ROB) and the replay buffer never outgrows it
    // (entries span [winBase_, winBase_ + robEntries) — see core.hh).
    std::size_t cap = 1;
    while (cap < params.robEntries)
        cap <<= 1;
    winRing_.resize(cap);
    bufRing_.resize(cap);
    ringMask_ = cap - 1;
    // The rename-tag ring starts at the window's size: tags are
    // allocated in dispatch order, so without squashes the live ones
    // span at most robEntries consecutive ids. Tag 0, the always-ready
    // sentinel for committed and initial values, is never allocated;
    // the empty slot 0 (and any slot holding another id) reads as it.
    tags_.resize(cap);
    tagMask_ = cap - 1;
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

const Core::Inflight *
Core::findSeq(std::uint64_t seq) const
{
    if (seq < winBase_ || seq >= winEnd())
        return nullptr;
    return &winSlot(seq);
}

Core::Inflight *
Core::findSeq(std::uint64_t seq)
{
    return const_cast<Inflight *>(
        static_cast<const Core *>(this)->findSeq(seq));
}

bool
Core::predUnresolved(std::uint64_t seq) const
{
    const Inflight *inst = findSeq(seq);
    return inst && inst->isPredicted && !inst->resolved;
}

std::uint64_t
Core::allocTag(std::uint64_t producer_seq)
{
    std::uint64_t tag = nextTag_++;
    // The slot's previous tag may go only once its producer has
    // committed (seq below the window): then no in-flight instruction
    // can still be waiting on its readiness or inheriting its
    // speculation, and every later read of it behaves like tag 0.
    auto held = [this](const TagSlot &slot) {
        return slot.id != 0 && slot.producer >= winBase_;
    };
    while (held(tags_[tag & tagMask_]))
        growTagRing();
    tags_[tag & tagMask_] = TagSlot{tag, farFuture, producer_seq};
    return tag;
}

void
Core::setTagReadyAt(std::uint64_t tag, std::uint64_t cycle)
{
    TagSlot &slot = tags_[tag & tagMask_];
    RVP_ASSERT(slot.id == tag, "in-flight tag %llu lost its ring slot",
               static_cast<unsigned long long>(tag));
    slot.readyAt = cycle;
}

void
Core::growTagRing()
{
    // Doubling splits slot i into slots i and i + old size, so every
    // held tag keeps a slot of its own.
    std::vector<TagSlot> grown(tags_.size() * 2);
    std::uint64_t mask = grown.size() - 1;
    for (const TagSlot &slot : tags_)
        if (slot.id != 0)
            grown[slot.id & mask] = slot;
    tags_ = std::move(grown);
    tagMask_ = mask;
}

void
Core::iqListInsert(std::uint64_t seq)
{
    // Dispatch appends in ascending seq order, so the common case is a
    // push_back; a reissue reset re-inserts an older seq, and a stale
    // entry for a reused seq may already be present (dedupe: the one
    // entry then denotes the new instruction).
    if (iqList_.empty() || iqList_.back() < seq) {
        iqList_.push_back(seq);
        return;
    }
    auto it = std::lower_bound(iqList_.begin(), iqList_.end(), seq);
    if (it == iqList_.end() || *it != seq)
        iqList_.insert(it, seq);
}

void
Core::noteFirstUse(std::uint64_t pred_seq, std::uint64_t user_seq)
{
    Inflight *pred = findSeq(pred_seq);
    if (pred && pred->firstUseSeq == noSeq)
        pred->firstUseSeq = user_seq;
}

/** Inherit the (transitive) speculation colouring of a value read. */
void
Core::inheritSpec(Inflight &inst, std::uint64_t tag)
{
    std::uint64_t producer = tagProducer(tag);
    if (producer == noSeq)
        return;
    Inflight *prod = findSeq(producer);
    if (!prod)
        return;   // committed: its value is architectural
    for (std::uint64_t s : prod->specOn) {
        if (predUnresolved(s) &&
            std::find(inst.specOn.begin(), inst.specOn.end(), s) ==
                inst.specOn.end()) {
            inst.specOn.push_back(s);
        }
    }
}

void
Core::scheduleCompletion(std::uint64_t seq, std::uint64_t when)
{
    RVP_ASSERT(when > cycle_ && when - cycle_ <= wheel_.size(),
               "completion delay %llu overflows the event wheel (%zu)",
               static_cast<unsigned long long>(when - cycle_),
               wheel_.size());
    wheel_[when & wheelMask_].push_back(seq);
}

/**
 * Retire an instruction from every incremental structure: occupancy
 * counters, the unresolved-prediction list, and the in-flight store
 * index. Used by both commit (pops the oldest) and squash (pops the
 * youngest); the completion wheel needs no cleanup because its entries
 * are validated when popped.
 */
void
Core::dropFromScoreboard(const Inflight &inst, const Fetched &f)
{
    if (inst.inIq)
        --iqOcc_[inst.usesFpQueue];
    if (inst.state != Inflight::St::WaitDispatch) {
        if (f.di.dest != regNone)
            --physOcc_[isFpReg(f.di.dest)];
        if (inst.isMemOp)
            --lsqOcc_;
    }
    if (inst.isPredicted && !inst.resolved) {
        auto it = std::lower_bound(unresolvedPreds_.begin(),
                                   unresolvedPreds_.end(), inst.seq);
        RVP_ASSERT(it != unresolvedPreds_.end() && *it == inst.seq);
        unresolvedPreds_.erase(it);
    }
    if (f.info->isStore) {
        auto it = storesByAddr_.find(f.di.effAddr);
        RVP_ASSERT(it != storesByAddr_.end() && !it->second.empty());
        std::vector<std::uint64_t> &seqs = it->second;
        if (seqs.back() == inst.seq)
            seqs.pop_back();            // squash removes the youngest
        else {
            RVP_ASSERT(seqs.front() == inst.seq);
            seqs.erase(seqs.begin());   // commit removes the oldest
        }
        if (seqs.empty())
            storesByAddr_.erase(it);
    }
}

// ---------------------------------------------------------------------
// Complete / recovery
// ---------------------------------------------------------------------

void
Core::completePhase()
{
    std::vector<std::uint64_t> &bucket = wheel_[cycle_ & wheelMask_];
    if (bucket.empty())
        return;
    // Process in window (= seq) order, like the seed's full scan: an
    // older instruction's recovery squashes or resets younger ones
    // before they are looked at, and the state/cycle check below then
    // skips their stale entries.
    std::sort(bucket.begin(), bucket.end());
    for (std::uint64_t seq : bucket) {
        Inflight *ip = findSeq(seq);
        if (!ip || ip->state != Inflight::St::Issued ||
            ip->completeCycle != cycle_) {
            continue;   // stale: squashed, reset, or rescheduled
        }
        Inflight &inst = *ip;
        inst.state = Inflight::St::Done;
        const Fetched &f = *inst.f;
        if (tracer_ && tracer_->sampled(inst.seq))
            tracer_->onComplete(inst.seq, cycle_);

        if (f.isBranch && f.branchMispredict &&
            pendingRedirectSeq_ == inst.seq) {
            // Wrong path was never fetched; resume down the right one.
            pendingRedirectSeq_ = noSeq;
            fetchResumeCycle_ = cycle_ + 1;
            lastFetchLine_ = ~0ull;
            ctr_.branchMispredicts.add();
        }

        if (inst.isPredicted) {
            // A predicted instruction can complete more than once: a
            // reissue recovery resets it to InIQ but leaves `resolved`
            // set, so only the first completion removes it from the
            // unresolved list. The misprediction handling below runs
            // on every completion, as it always has.
            if (!inst.resolved) {
                inst.resolved = true;
                auto it = std::lower_bound(unresolvedPreds_.begin(),
                                           unresolvedPreds_.end(),
                                           inst.seq);
                RVP_ASSERT(it != unresolvedPreds_.end() &&
                           *it == inst.seq);
                unresolvedPreds_.erase(it);
            }
            if (!f.vp.correct) {
                ctr_.valueMispredicts.add();
                recoverFromValueMispredict(inst);
            }
        }
    }
    bucket.clear();   // keeps its capacity: allocation-free steady state
}

void
Core::resetIssuedDependent(Inflight &inst, const Inflight &pred)
{
    // Repair sources supplied by the wrong prediction.
    for (int s = 0; s < 2; ++s) {
        if (inst.srcPredSeq[s] == pred.seq) {
            inst.srcTag[s] = pred.destTag;
            inst.srcPredSeq[s] = noSeq;
        }
    }
    if (inst.state == Inflight::St::Issued ||
        inst.state == Inflight::St::Done) {
        RVP_ASSERT(inst.inIq);   // held by the recovery policy
        // Still in releasePending_ (it was never released); the
        // release pass keeps InIQ entries until they issue again.
        inst.state = Inflight::St::InIQ;
        inst.completeCycle = farFuture;
        // Back in the issue candidate list (it left when it issued).
        iqListInsert(inst.seq);
        // "A dependent instruction will issue one cycle later after a
        // mispredict than it would if the previous instruction were
        // not predicted" (Section 4.3).
        inst.earliestIssue = cycle_ + 1;
        if (inst.destTag)
            setTagReadyAt(inst.destTag, farFuture);
        ctr_.reissues.add();
        if (tracer_ && tracer_->sampled(inst.seq))
            tracer_->onReissue(inst.seq);
    }
}

void
Core::recoverFromValueMispredict(Inflight &pred)
{
    if (params_.recovery == RecoveryPolicy::Refetch) {
        // Recovery cost = instructions thrown away and refetched.
        std::size_t squashed = 0;
        if (pred.firstUseSeq != noSeq && findSeq(pred.firstUseSeq)) {
            ctr_.valueRefetches.add();
            std::size_t before = winCount_;
            squashFrom(pred.firstUseSeq);
            squashed = before - winCount_;
            fetchResumeCycle_ = cycle_ + 1;
        } else if (map_[pred.f->di.dest].predSeq == pred.seq) {
            // No consumer yet: future consumers read the real result.
            map_[pred.f->di.dest].predSeq = noSeq;
        }
        if (histRecoveryPenalty_)
            histRecoveryPenalty_->sample(static_cast<double>(squashed));
        return;
    }

    // Reissue / selective reissue: every (transitively) dependent
    // instruction re-executes with the correct value.
    std::size_t affected = 0;   // recovery cost = re-executed work
    for (std::uint64_t s = pred.seq + 1; s < winEnd(); ++s) {
        Inflight &inst = winSlot(s);
        auto it = std::find(inst.specOn.begin(), inst.specOn.end(),
                            pred.seq);
        if (it == inst.specOn.end())
            continue;
        inst.specOn.erase(it);
        resetIssuedDependent(inst, pred);
        ++affected;
    }
    if (histRecoveryPenalty_)
        histRecoveryPenalty_->sample(static_cast<double>(affected));
    RegIndex dest = pred.f->di.dest;
    if (map_[dest].predSeq == pred.seq)
        map_[dest].predSeq = noSeq;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
Core::commitPhase()
{
    unsigned done = 0;
    while (done < params_.commitWidth && winCount_ > 0) {
        Inflight &head = winSlot(winBase_);
        if (head.state != Inflight::St::Done)
            break;
        const Fetched &f = *head.f;

        if (f.info->isStore)
            mem_.storeAccess(f.di.effAddr);
        if (f.di.dest != regNone) {
            committedTag_[f.di.dest] = head.destTag;
            // The map may still point at this tag; that stays valid.
        }
        // Committed-path prediction accounting. The predictor's own
        // counters are taken at fetch and therefore also cover
        // instructions that never commit (the in-flight tail when the
        // budget expires); coverage/accuracy must be computed against
        // what actually committed or Table-2 numbers are inflated.
        if (f.vp.eligible) {
            ++vpEligibleCommitted_;
            if (f.vp.predicted) {
                ++vpPredictedCommitted_;
                vpCorrectCommitted_ += f.vp.correct;
            }
        }
        if (tracer_ && tracer_->sampled(head.seq))
            tracer_->onCommit(head.seq, cycle_);
        dropFromScoreboard(head, f);
        ++committed_;
        ++done;
        ++winBase_;
        --winCount_;
        ++bufferBase_;
        --bufCount_;
    }
    // Idle commit cycles add nothing (and the stat exists from the
    // first cycle that does commit), so skip the no-op accumulate.
    if (done > 0)
        ctr_.commitCyclesUsed.add(1);
}

// ---------------------------------------------------------------------
// IQ release
// ---------------------------------------------------------------------

void
Core::iqReleasePhase()
{
    // For the reissue policy: the oldest first-use of any unresolved
    // prediction; everything at or after it is held in the queues.
    std::uint64_t hold_from = noSeq;
    if (params_.recovery == RecoveryPolicy::Reissue) {
        for (std::uint64_t pred_seq : unresolvedPreds_) {
            const Inflight *pred = findSeq(pred_seq);
            RVP_ASSERT(pred);
            if (pred->firstUseSeq != noSeq)
                hold_from = std::min(hold_from, pred->firstUseSeq);
        }
    }

    // Only instructions that issued while holding their IQ slot can be
    // released; everything else in the window is untouched. (The seed
    // pruned every instruction's specOn each cycle; only release
    // decisions read specOn emptiness, and inheritSpec re-filters per
    // element, so pruning at evaluation here is timing-identical.)
    std::size_t kept = 0;
    for (std::size_t i = 0; i < releasePending_.size(); ++i) {
        std::uint64_t seq = releasePending_[i];
        Inflight *ip = findSeq(seq);
        if (!ip || !ip->inIq) {
            // Committed or squashed since it was queued; a replayed
            // instruction with the same seq starts with a fresh flag.
            continue;
        }
        Inflight &inst = *ip;
        if (inst.state == Inflight::St::InIQ) {
            // Reset by a value mispredict: back in the queue, waiting
            // to issue again. Keep the entry for that reissue.
            releasePending_[kept++] = seq;
            continue;
        }
        std::erase_if(inst.specOn, [&](std::uint64_t s) {
            return !predUnresolved(s);
        });
        bool release = false;
        switch (params_.recovery) {
          case RecoveryPolicy::Refetch:
            release = true;
            break;
          case RecoveryPolicy::Selective:
            release = inst.specOn.empty();
            break;
          case RecoveryPolicy::Reissue:
            release = inst.seq < hold_from;
            break;
        }
        if (!release) {
            releasePending_[kept++] = seq;
            continue;
        }
        inst.inIq = false;
        inst.inReleaseList = false;
        --iqOcc_[inst.usesFpQueue];
        if (inst.state == Inflight::St::Done &&
            cycle_ > inst.completeCycle) {
            ctr_.holdAfterDoneCycles.add(
                static_cast<double>(cycle_ - inst.completeCycle));
            ctr_.holdsReleased.add();
        }
    }
    releasePending_.resize(kept);
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Core::loadBlockedByStore(const Inflight &load) const
{
    const Fetched &lf = *load.f;
    auto it = storesByAddr_.find(lf.di.effAddr);
    if (it == storesByAddr_.end() || it->second.empty())
        return false;
    const std::vector<std::uint64_t> &seqs = it->second;
    // Youngest older store to the same address must have executed.
    auto pos = std::lower_bound(seqs.begin(), seqs.end(), load.seq);
    if (pos == seqs.begin())
        return false;   // every same-address store is younger
    const Inflight *store = findSeq(*(pos - 1));
    RVP_ASSERT(store);
    return store->state != Inflight::St::Done;
}

unsigned
Core::loadLatencyFor(const Inflight &load)
{
    const Fetched &lf = *load.f;
    auto it = storesByAddr_.find(lf.di.effAddr);
    if (it != storesByAddr_.end() && !it->second.empty() &&
        it->second.front() < load.seq) {
        ctr_.storeForwards.add();
        return 1;   // store-to-load forward
    }
    return mem_.loadLatency(lf.di.effAddr);
}

void
Core::issuePhase()
{
    // Walk the InIQ candidate list (ascending seq = window order, so
    // selection is identical to the historical full-window scan) with
    // in-place compaction: an entry is dropped when it issues or when
    // it went stale (squashed, or its seq was reused after a squash
    // and the new instruction is not in the queue yet — dispatch
    // re-adds it).
    unsigned int_used = 0, ldst_used = 0, fp_used = 0;
    std::size_t kept = 0, idx = 0, n = iqList_.size();
    for (; idx < n; ++idx) {
        if (int_used >= params_.intFus && fp_used >= params_.fpFus)
            break;
        std::uint64_t seq = iqList_[idx];
        Inflight *ip = findSeq(seq);
        if (!ip || ip->state != Inflight::St::InIQ)
            continue;   // stale: drop
        Inflight &inst = *ip;
        if (cycle_ < inst.earliestIssue) {
            // one-cycle reissue penalty after a mispredict
            iqList_[kept++] = seq;
            continue;
        }

        const Fetched &f = *inst.f;
        FuClass fu = f.info->fuClass;
        bool is_fp = fu == FuClass::FpAdd || fu == FuClass::FpMul ||
                     fu == FuClass::FpDiv;
        bool is_mem = fu == FuClass::Load || fu == FuClass::Store;

        // Functional-unit availability.
        if (is_fp) {
            if (fp_used >= params_.fpFus) {
                iqList_[kept++] = seq;
                continue;
            }
        } else {
            if (int_used >= params_.intFus) {
                iqList_[kept++] = seq;
                continue;
            }
            if (is_mem && ldst_used >= params_.ldstPorts) {
                iqList_[kept++] = seq;
                continue;
            }
        }

        // Operand readiness (full bypass: ready for exec at cycle+1).
        bool ready = true;
        for (int s = 0; s < 2 && ready; ++s)
            ready = tagReadyAt(inst.srcTag[s]) <= cycle_ + 1;
        if (!ready) {
            iqList_[kept++] = seq;
            continue;
        }

        unsigned latency = f.info->latency;
        if (f.info->isLoad) {
            if (loadBlockedByStore(inst)) {
                iqList_[kept++] = seq;
                continue;
            }
            latency = 1 + loadLatencyFor(inst);
        }

        inst.state = Inflight::St::Issued;
        inst.completeCycle = cycle_ + latency;
        scheduleCompletion(inst.seq, inst.completeCycle);
        if (histIssueToComplete_)
            histIssueToComplete_->sample(static_cast<double>(latency));
        if (tracer_ && tracer_->sampled(inst.seq))
            tracer_->onIssue(inst.seq, cycle_);
        if (inst.inIq && !inst.inReleaseList) {
            inst.inReleaseList = true;
            releasePending_.push_back(inst.seq);
        }
        if (inst.destTag)
            setTagReadyAt(inst.destTag, cycle_ + latency + 1);
        if (is_fp)
            ++fp_used;
        else
            ++int_used;
        if (is_mem)
            ++ldst_used;
        ctr_.issued.add();
        // Issued: leaves the candidate list (a reissue reset
        // re-inserts it).
    }
    // FU-saturation early break: the unexamined tail stays queued.
    for (; idx < n; ++idx)
        iqList_[kept++] = iqList_[idx];
    iqList_.resize(kept);
}

// ---------------------------------------------------------------------
// Dispatch (rename + queue insert)
// ---------------------------------------------------------------------

void
Core::dispatchPhase()
{
    ctr_.iqOccupancyInt.add(iqOcc_[0]);
    ctr_.iqOccupancyFp.add(iqOcc_[1]);
    if (histIqOccupancy_) {
        histIqOccupancy_->sample(
            static_cast<double>(iqOcc_[0] + iqOcc_[1]));
        histLsqOccupancy_->sample(static_cast<double>(lsqOcc_));
    }

    // States only advance and dispatch is in-order, so the
    // WaitDispatch instructions are exactly the window suffix from
    // dispatchSeq_ on; start there instead of rescanning the
    // dispatched prefix.
    unsigned dispatched = 0;
    for (std::uint64_t s = dispatchSeq_; s < winEnd(); ++s) {
        Inflight &inst = winSlot(s);
        RVP_ASSERT(inst.state == Inflight::St::WaitDispatch &&
                   inst.seq == dispatchSeq_);
        if (dispatched >= params_.renameWidth)
            break;
        if (inst.fetchCycle + params_.frontDepth > cycle_)
            break;   // still in the front end (in-order)

        const Fetched &f = *inst.f;
        const OpcodeInfo &info = *f.info;
        bool is_fp_queue = info.fuClass == FuClass::FpAdd ||
                           info.fuClass == FuClass::FpMul ||
                           info.fuClass == FuClass::FpDiv;
        bool uses_iq = info.fuClass != FuClass::None;
        bool is_mem = info.isLoad || info.isStore;

        // Structural stalls (in-order: stop at the first blocked one).
        if (uses_iq) {
            if (is_fp_queue ? iqOcc_[1] >= params_.fpIqEntries
                            : iqOcc_[0] >= params_.intIqEntries) {
                ctr_.iqFullStalls.add();
                break;
            }
        }
        if (f.di.dest != regNone) {
            bool fp_bank = isFpReg(f.di.dest);
            unsigned in_use = physOcc_[fp_bank];
            unsigned limit = (fp_bank ? params_.physFpRegs
                                      : params_.physIntRegs) -
                             numIntRegs;
            if (in_use >= limit) {
                ctr_.physRegStalls.add();
                break;
            }
        }
        if (is_mem && lsqOcc_ >= params_.lsqEntries) {
            ctr_.lsqFullStalls.add();
            break;
        }

        // ---- rename sources ----
        RegIndex srcs[2] = {f.di.srcA, f.di.srcB};
        for (int s = 0; s < 2; ++s) {
            if (srcs[s] == regNone) {
                inst.srcTag[s] = 0;
                continue;
            }
            MapEntry &entry = map_[srcs[s]];
            if (entry.predSeq != noSeq && predUnresolved(entry.predSeq)) {
                // Speculative mapping: read the *prior* value of the
                // register — this is the prediction.
                inst.srcTag[s] = entry.oldTag;
                inst.srcPredSeq[s] = entry.predSeq;
                if (std::find(inst.specOn.begin(), inst.specOn.end(),
                              entry.predSeq) == inst.specOn.end())
                    inst.specOn.push_back(entry.predSeq);
                noteFirstUse(entry.predSeq, inst.seq);
                inheritSpec(inst, entry.oldTag);
                ctr_.predictedValueUses.add();
            } else {
                inst.srcTag[s] = entry.tag;
                inheritSpec(inst, entry.tag);
            }
        }

        // ---- rename destination ----
        if (f.di.dest != regNone) {
            inst.destTag = allocTag(inst.seq);
            if (f.vp.predicted) {
                inst.isPredicted = true;
                RVP_ASSERT(unresolvedPreds_.empty() ||
                           unresolvedPreds_.back() < inst.seq);
                unresolvedPreds_.push_back(inst.seq);
                // The *prior register value* consumers read. Which
                // physical value that is depends on the compiler
                // assumption behind the prediction: with
                // re-allocation, the correlated register's current
                // value (OtherReg) or this instruction's previous
                // result in a loop-exclusive register (LastValue);
                // without assistance, the destination's old mapping.
                if (predictor_.valueFromBuffer()) {
                    // Buffer-based prediction: the value was read from
                    // the value file at rename — immediately ready.
                    inst.predOldTag = 0;
                } else {
                    StaticPredSpec spec =
                        predictor_.specOf(f.di.staticIndex);
                    switch (spec.source) {
                      case PredSource::SameReg:
                        inst.predOldTag = map_[f.di.dest].tag;
                        break;
                      case PredSource::OtherReg:
                        inst.predOldTag = map_[spec.reg].tag;
                        break;
                      case PredSource::LastValue:
                      case PredSource::Stride:
                        // The loop-exclusive register holds the
                        // previous instance's result (plus, for
                        // Stride, an inserted add the paper treats as
                        // off the critical path).
                        inst.predOldTag =
                            lastInstanceTag_[f.di.staticIndex];
                        break;
                    }
                }
                map_[f.di.dest] =
                    MapEntry{inst.destTag, inst.seq, inst.predOldTag};
                ctr_.predictionsDispatched.add();
            } else {
                map_[f.di.dest] = MapEntry{inst.destTag, noSeq, 0};
            }
            lastInstanceTag_[f.di.staticIndex] = inst.destTag;
            lastInstanceSeq_[f.di.staticIndex] = inst.seq;
            ++physOcc_[isFpReg(f.di.dest)];
        }

        // ---- queue insert ----
        if (uses_iq) {
            inst.state = Inflight::St::InIQ;
            inst.inIq = true;
            inst.usesIq = true;
            inst.usesFpQueue = is_fp_queue;
            ++iqOcc_[is_fp_queue];
            iqListInsert(inst.seq);
        } else {
            // NOP/HALT: completes immediately, consumes nothing.
            inst.state = Inflight::St::Done;
            inst.completeCycle = cycle_;
        }
        inst.isMemOp = is_mem;
        if (is_mem)
            ++lsqOcc_;
        ++dispatched;
        ++dispatchSeq_;
        if (tracer_ && tracer_->sampled(inst.seq)) {
            tracer_->onRename(inst.seq, cycle_);
            // NOP/HALT complete at rename (they never issue).
            if (!uses_iq)
                tracer_->onComplete(inst.seq, cycle_);
        }
    }
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
Core::fetchPhase()
{
    if (fetchHalted_ || cycle_ < fetchResumeCycle_ ||
        pendingRedirectSeq_ != noSeq) {
        ctr_.fetchStallCycles.add();
        return;
    }

    unsigned fetched = 0;
    unsigned taken_branches = 0;
    while (fetched < params_.fetchWidth) {
        if (winCount_ >= params_.robEntries) {
            ctr_.robFullStalls.add();
            break;
        }

        // Materialize the Fetched record (replay or new).
        if (fetchSeq_ >= bufferBase_ + bufCount_) {
            if (streamEnded_) {
                fetchHalted_ = true;
                break;
            }
            Fetched f;
            if (!source_->step(f.di)) {
                streamEnded_ = true;
                fetchHalted_ = true;
                break;
            }
            f.info = &opcodeInfo(f.di.op);
            f.vp = predictor_.onInst(f.di, source_->preState());
            if (f.info->isCondBranch || f.info->isUncondBranch) {
                f.isBranch = true;
                const StaticInst &si = prog_.at(f.di.staticIndex);
                BranchPrediction pred = bp_.predict(f.di.pc, si);
                bool dir_wrong =
                    f.info->isCondBranch && pred.taken != f.di.isTaken;
                bool target_wrong =
                    f.di.isTaken && pred.taken &&
                    (!pred.targetKnown || pred.target != f.di.nextPc);
                f.branchMispredict = dir_wrong || target_wrong;
                f.predictedTaken = pred.taken;
                bp_.update(f.di.pc, si, f.di.isTaken, f.di.nextPc,
                           dir_wrong);
            }
            bufSlot(fetchSeq_) = f;
            ++bufCount_;
        }
        Fetched &f = bufSlot(fetchSeq_);

        // Instruction-cache access, one probe per new line (the line
        // granularity tracks the configured L1I geometry).
        std::uint64_t line = f.di.pc >> fetchLineShift_;
        if (line != lastFetchLine_) {
            unsigned lat = mem_.fetchLatency(f.di.pc);
            lastFetchLine_ = line;
            if (lat > params_.mem.l1HitLatency) {
                // Miss: the group arrives after the miss penalty.
                fetchResumeCycle_ = cycle_ + (lat - 1);
                ctr_.icacheMissStalls.add();
                break;
            }
        }

        Inflight inst;
        inst.seq = fetchSeq_;
        inst.f = &f;
        inst.fetchCycle = cycle_;
        winSlot(fetchSeq_) = inst;   // slot's specOn keeps its capacity
        ++winCount_;
        if (f.info->isStore)
            storesByAddr_[f.di.effAddr].push_back(inst.seq);
        ++fetchSeq_;
        ++fetched;
        ctr_.fetched.add();
        if (tracer_ && tracer_->sampled(inst.seq)) {
            tracer_->onFetch(inst.seq, f.di.pc, f.di.op, cycle_,
                             f.vp.eligible, f.vp.predicted, f.vp.correct);
        }

        if (f.di.op == Opcode::HALT) {
            fetchHalted_ = true;
            break;
        }
        if (f.isBranch) {
            if (f.branchMispredict) {
                pendingRedirectSeq_ = inst.seq;
                break;
            }
            if (f.predictedTaken) {
                ++taken_branches;
                lastFetchLine_ = ~0ull;   // redirected: new line next
                if (taken_branches >= params_.fetchBlocks)
                    break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Squash / rename-map rebuild
// ---------------------------------------------------------------------

void
Core::squashFrom(std::uint64_t first_bad_seq)
{
    while (winCount_ > 0 && winSlot(winEnd() - 1).seq >= first_bad_seq) {
        const Inflight &inst = winSlot(winEnd() - 1);
        dropFromScoreboard(inst, *inst.f);
        ctr_.squashed.add();
        if (tracer_ && tracer_->sampled(inst.seq))
            tracer_->onSquash(inst.seq, TraceExit::ValueSquash);
        --winCount_;
    }
    fetchSeq_ = first_bad_seq;
    // Refetched seqs dispatch anew (stale iqList_ entries for them are
    // deduped or dropped lazily).
    dispatchSeq_ = std::min(dispatchSeq_, first_bad_seq);
    if (pendingRedirectSeq_ != noSeq &&
        pendingRedirectSeq_ >= first_bad_seq) {
        pendingRedirectSeq_ = noSeq;
    }
    fetchHalted_ = false;
    lastFetchLine_ = ~0ull;

    // LastValue prediction sources must not point at squashed tags
    // (their producers will never complete).
    for (std::size_t s = 0; s < lastInstanceSeq_.size(); ++s) {
        if (lastInstanceSeq_[s] != noSeq &&
            lastInstanceSeq_[s] >= first_bad_seq) {
            lastInstanceTag_[s] = 0;
            lastInstanceSeq_[s] = noSeq;
        }
    }

    // Replayed branches re-predict with the (now trained) predictor:
    // model that as a correct prediction of the actual outcome.
    for (std::uint64_t s = first_bad_seq; s < bufferBase_ + bufCount_;
         ++s) {
        Fetched &f = bufSlot(s);
        if (f.isBranch) {
            f.branchMispredict = false;
            f.predictedTaken = f.di.isTaken;
        }
    }
    rebuildRenameMap();
}

void
Core::rebuildRenameMap()
{
    for (RegIndex r = 0; r < numArchRegs; ++r)
        map_[r] = MapEntry{committedTag_[r], noSeq, 0};
    for (std::uint64_t s = winBase_; s < winEnd(); ++s) {
        const Inflight &inst = winSlot(s);
        if (inst.state == Inflight::St::WaitDispatch)
            break;   // not renamed yet (in-order suffix)
        const Fetched &f = *inst.f;
        if (f.di.dest == regNone)
            continue;
        if (inst.isPredicted && !inst.resolved) {
            map_[f.di.dest] =
                MapEntry{inst.destTag, inst.seq, inst.predOldTag};
        } else {
            map_[f.di.dest] = MapEntry{inst.destTag, noSeq, 0};
        }
    }
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

bool
Core::stepCycle()
{
    if (committed_ >= params_.maxInsts)
        return false;

    // Per-run watchdog (common/deadline.hh): a masked compare per
    // cycle, one clock read per interval. The null fast path is a
    // single predictable branch, so default sweeps keep the golden
    // stats and their wall time.
    if (deadline_ && (cycle_ & deadlineCheckMask) == 0)
        deadline_->check("core loop");
    completePhase();
    commitPhase();
    iqReleasePhase();
    issuePhase();
    dispatchPhase();
    fetchPhase();

    if (committed_ != lastCommitted_) {
        lastCommitted_ = committed_;
        lastCommitCycle_ = cycle_;
    } else if (cycle_ - lastCommitCycle_ > 100'000) {
        panic("core deadlock at cycle %llu (%llu committed)",
              static_cast<unsigned long long>(cycle_),
              static_cast<unsigned long long>(committed_));
    }

    ++cycle_;
    if (winCount_ == 0 && fetchHalted_)
        return false;   // program ran to completion

    // Debug-only window snapshot (RVP_CORE_SNAPSHOT=<cycle>).
    static const char *snap_env = std::getenv("RVP_CORE_SNAPSHOT");
    if (snap_env && cycle_ == std::strtoull(snap_env, nullptr, 10)) {
        std::fprintf(stderr, "=== window @cycle %llu ===\n",
                     static_cast<unsigned long long>(cycle_));
        for (std::uint64_t s = winBase_; s < winEnd(); ++s) {
            const Inflight &inst = winSlot(s);
            const Fetched &f = *inst.f;
            std::fprintf(
                stderr,
                "seq=%llu st=%d iq=%d fp=%d op=%s pred=%d res=%d "
                "spec=%zu src0=%llu@%llu src1=%llu@%llu cmpl=%llu\n",
                static_cast<unsigned long long>(inst.seq),
                static_cast<int>(inst.state), inst.inIq,
                inst.usesFpQueue,
                std::string(f.info->mnemonic).c_str(),
                inst.isPredicted, inst.resolved, inst.specOn.size(),
                static_cast<unsigned long long>(inst.srcTag[0]),
                static_cast<unsigned long long>(
                    tagReadyAt(inst.srcTag[0])),
                static_cast<unsigned long long>(inst.srcTag[1]),
                static_cast<unsigned long long>(
                    tagReadyAt(inst.srcTag[1])),
                static_cast<unsigned long long>(inst.completeCycle));
        }
    }
    return true;
}

CoreResult
Core::run()
{
    while (stepCycle()) {
    }
    return finalize();
}

CoreResult
Core::finalize()
{
    if (tracer_)
        tracer_->finish();   // records still in flight at the budget

    CoreResult result;
    result.cycles = cycle_;
    result.committed = committed_;
    result.ipc = cycle_ ? static_cast<double>(committed_) /
                              static_cast<double>(cycle_)
                        : 0.0;
    stats_.set("core.cycles", static_cast<double>(cycle_));
    stats_.set("core.committed", static_cast<double>(committed_));
    stats_.set("core.ipc", result.ipc);
    mem_.exportStats(stats_);
    bp_.exportStats(stats_);
    predictor_.exportStats(stats_);
    // The canonical vp.* stats count the committed path only
    // (predicted <= committed always holds); the predictor's raw
    // fetch-time counts stay visible under vp.*_fetched.
    stats_.set("vp.eligible_fetched", stats_.get("vp.eligible"));
    stats_.set("vp.predictions_fetched", stats_.get("vp.predictions"));
    stats_.set("vp.correct_fetched", stats_.get("vp.correct"));
    stats_.set("vp.eligible", static_cast<double>(vpEligibleCommitted_));
    stats_.set("vp.predictions",
               static_cast<double>(vpPredictedCommitted_));
    stats_.set("vp.correct", static_cast<double>(vpCorrectCommitted_));
    stats_.set("vp.incorrect",
               static_cast<double>(vpPredictedCommitted_ -
                                   vpCorrectCommitted_));
    result.stats = stats_;
    return result;
}

} // namespace rvp
