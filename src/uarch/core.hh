/**
 * @file
 * Execution-driven out-of-order core timing model. The functional
 * emulator supplies the committed-path instruction stream (with
 * values); this model times it through fetch, rename, the instruction
 * queues, functional units, the memory hierarchy, and in-order
 * commit, including:
 *
 *  - gshare/BTB/RAS branch prediction with squash + 7-cycle redirect
 *  - register renaming with the paper's *speculative mapping* field:
 *    a value-predicted instruction keeps the previous physical mapping
 *    visible so its consumers read the prior register value and issue
 *    immediately (Section 4)
 *  - transitive speculation tracking so all three misprediction
 *    recovery schemes (refetch / reissue / selective reissue) behave
 *    per Section 4.3, including the IQ-occupancy pressure that makes
 *    refetch competitive (Section 7.1.1)
 *  - a load/store queue with perfect address-based disambiguation and
 *    store->load forwarding.
 *
 * Wrong-path instructions are not fetched; a mispredicted branch
 * stalls fetch until it resolves and restarts it the next cycle, which
 * with the front-end depth reproduces the 7-cycle penalty of Table 1.
 */

#ifndef RVP_UARCH_CORE_HH
#define RVP_UARCH_CORE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "branch/gshare.hh"
#include "common/deadline.hh"
#include "emu/emulator.hh"
#include "mem/hierarchy.hh"
#include "stream/stream.hh"
#include "trace/tracer.hh"
#include "uarch/params.hh"
#include "vp/predictor.hh"

namespace rvp
{

/** Result of a timing run. */
struct CoreResult
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;
    StatSet stats;
};

/** The out-of-order core. One instance runs one program once. */
class Core
{
  public:
    /**
     * @param params core configuration
     * @param prog compiled program (with data image)
     * @param predictor value predictor (owned by caller; consulted in
     *        program order at first fetch)
     * @param tracer optional pipeline-lifecycle tracer (owned by the
     *        caller; null disables tracing at the cost of one
     *        predictable branch per hook site)
     * @param source optional committed-stream source (owned by the
     *        caller, e.g. a StreamCursor replaying a cached capture);
     *        null means live functional emulation of prog. Either
     *        source yields bit-identical stats.
     * @param deadline optional wall-clock watchdog (owned by the
     *        caller; checked every few thousand cycles — an expired
     *        deadline throws DeadlineExceeded out of run()). Null
     *        costs one predictable branch per check interval and
     *        leaves stats and timing untouched.
     */
    Core(const CoreParams &params, const Program &prog,
         ValuePredictor &predictor, PipelineTracer *tracer = nullptr,
         InstSource *source = nullptr,
         const RunDeadline *deadline = nullptr);

    /** Run to the committed-instruction budget (or HALT). */
    CoreResult run();

    /**
     * Advance the pipeline by one cycle; false once the run is over
     * (committed budget reached, or the window drained after the
     * stream ended). run() is exactly `while (stepCycle()) {}` +
     * finalize(); an external driver (sim/batchrun.hh) interleaves
     * stepCycle() across many cores so they consume one shared decode
     * of the committed stream in lockstep. At most
     * params.fetchWidth instructions are pulled from the source per
     * call, which is the headroom contract batched replay schedules
     * around.
     */
    bool stepCycle();

    /**
     * Flush the tracer and assemble the CoreResult + exported stats.
     * Call exactly once, after stepCycle() has returned false (run()
     * does both). Bit-identical to the tail of the historical
     * monolithic run().
     */
    CoreResult finalize();

    /**
     * Slots in the rename-tag ring: the next power of two >=
     * robEntries at construction, doubled each time tag churn (squash
     * and re-rename behind an uncommitted head) outruns it.
     */
    std::size_t tagRingSlots() const { return tags_.size(); }

  private:
    static constexpr std::uint64_t noSeq = ~0ull;
    static constexpr std::uint64_t farFuture = ~0ull / 4;

    /** Program-order record produced at first fetch, kept for replay. */
    struct Fetched
    {
        DynInst di;
        /** di.op's static properties (the opcodeInfo() lookup is
         *  out-of-line; one resolution at fetch serves every phase). */
        const OpcodeInfo *info = nullptr;
        VpDecision vp;
        bool isBranch = false;
        bool branchMispredict = false;
        bool predictedTaken = false;
    };

    /** Pipeline state of one in-flight instruction. */
    struct Inflight
    {
        enum class St : std::uint8_t { WaitDispatch, InIQ, Issued, Done };

        std::uint64_t seq = 0;
        /** This seq's Fetched record. Stable: ring slot (seq & mask)
         *  is only reused once this seq has committed (buffer entries
         *  outlive their window entries — popped together at commit,
         *  and squash only drops window entries). */
        const Fetched *f = nullptr;
        St state = St::WaitDispatch;
        std::uint64_t fetchCycle = 0;
        std::uint64_t completeCycle = farFuture;
        std::uint64_t earliestIssue = 0;

        std::uint64_t destTag = 0;
        std::uint64_t srcTag[2] = {0, 0};
        /** Prediction (seq) currently supplying each source, if any. */
        std::uint64_t srcPredSeq[2] = {noSeq, noSeq};
        /** Unresolved predictions this instruction depends on. */
        std::vector<std::uint64_t> specOn;

        bool inIq = false;
        bool usesFpQueue = false;
        bool usesIq = false;
        bool isMemOp = false;
        /** Tracked by releasePending_ (issued but still holding IQ). */
        bool inReleaseList = false;

        // Prediction bookkeeping (when this instruction is predicted).
        bool isPredicted = false;
        bool resolved = false;
        std::uint64_t predOldTag = 0;
        std::uint64_t firstUseSeq = noSeq;
    };

    /** Speculative rename-map entry (Section 4.1). */
    struct MapEntry
    {
        std::uint64_t tag = 0;
        std::uint64_t predSeq = noSeq;   ///< unresolved prediction
        std::uint64_t oldTag = 0;        ///< prior mapping (prediction)
    };

    // ---- pipeline phases (one call each per cycle) ----
    void completePhase();
    void commitPhase();
    void iqReleasePhase();
    void issuePhase();
    void dispatchPhase();
    void fetchPhase();

    // ---- helpers ----
    Inflight *findSeq(std::uint64_t seq);
    const Inflight *findSeq(std::uint64_t seq) const;
    bool predUnresolved(std::uint64_t seq) const;
    void recoverFromValueMispredict(Inflight &pred);
    void squashFrom(std::uint64_t first_bad_seq);
    void rebuildRenameMap();
    void resetIssuedDependent(Inflight &inst, const Inflight &pred);
    bool loadBlockedByStore(const Inflight &load) const;
    unsigned loadLatencyFor(const Inflight &load);
    std::uint64_t allocTag(std::uint64_t producer_seq);
    void iqListInsert(std::uint64_t seq);
    void noteFirstUse(std::uint64_t pred_seq, std::uint64_t user_seq);
    void inheritSpec(Inflight &inst, std::uint64_t tag);
    void scheduleCompletion(std::uint64_t seq, std::uint64_t when);
    void dropFromScoreboard(const Inflight &inst, const Fetched &f);

    const CoreParams params_;
    const Program &prog_;
    ValuePredictor &predictor_;

    /** Live fallback, constructed only when no source is injected (a
     *  replay run skips the emulator's data-image setup entirely). */
    std::unique_ptr<LiveEmulatorSource> ownedSource_;
    InstSource *source_;
    MemoryHierarchy mem_;
    BranchPredictor bp_;

    // ---- seq-indexed rings (replacing the historical deques) ----
    //
    // The window holds the contiguous seqs [winBase_, winBase_ +
    // winCount_) and is bounded by robEntries; the replay buffer holds
    // [bufferBase_, bufferBase_ + bufCount_) with bufferBase_ ==
    // winBase_ (both pop at commit) and the same bound. With a
    // power-of-two capacity >= robEntries, the record for seq lives at
    // slot (seq & mask): findSeq() is one range check plus a masked
    // index, pushes are slot assignments (the slot's specOn vector
    // keeps its capacity), and no deque node hops sit on the per-cycle
    // paths.

    /** Replay buffer: Fetched records for seqs [bufferBase_, ...). */
    std::vector<Fetched> bufRing_;
    std::uint64_t bufferBase_ = 0;
    std::size_t bufCount_ = 0;
    std::uint64_t fetchSeq_ = 0;      ///< next seq to put in the window
    bool streamEnded_ = false;

    /** ROB, oldest first: seqs [winBase_, winBase_ + winCount_). */
    std::vector<Inflight> winRing_;
    std::uint64_t winBase_ = 0;
    std::size_t winCount_ = 0;
    std::uint64_t ringMask_ = 0;      ///< shared by both rings

    Fetched &bufSlot(std::uint64_t seq) { return bufRing_[seq & ringMask_]; }
    Inflight &winSlot(std::uint64_t seq) { return winRing_[seq & ringMask_]; }
    const Inflight &winSlot(std::uint64_t seq) const
    {
        return winRing_[seq & ringMask_];
    }
    /** One past the youngest in-window seq. */
    std::uint64_t winEnd() const { return winBase_ + winCount_; }

    MapEntry map_[numArchRegs];
    std::uint64_t committedTag_[numArchRegs] = {};

    /** One rename tag's readiness and producer. */
    struct TagSlot
    {
        std::uint64_t id = 0;          ///< tag held here; 0 = empty
        std::uint64_t readyAt = 0;     ///< exec-start ready cycle
        std::uint64_t producer = noSeq;///< producing seq
    };

    /**
     * Rename tags, a power-of-two ring indexed (tag & tagMask_) and
     * sized from robEntries, so core state is O(window) rather than
     * O(instructions run). A read that finds another id in the slot
     * is reading a tag whose producer has committed — its value is
     * architectural, and it behaves exactly like the always-ready
     * sentinel tag 0 (readyAt 0, no producer). allocTag() overwrites
     * only a committed producer's slot; if the slot's producer is
     * still uncommitted (in flight, or squashed but its seq not yet
     * committed again), the ring doubles first.
     */
    std::vector<TagSlot> tags_;
    std::uint64_t tagMask_ = 0;
    std::uint64_t nextTag_ = 1;

    std::uint64_t
    tagReadyAt(std::uint64_t tag) const
    {
        const TagSlot &slot = tags_[tag & tagMask_];
        return slot.id == tag ? slot.readyAt : 0;
    }

    std::uint64_t
    tagProducer(std::uint64_t tag) const
    {
        const TagSlot &slot = tags_[tag & tagMask_];
        return slot.id == tag ? slot.producer : noSeq;
    }

    /** Set the readiness of an in-flight instruction's own tag. */
    void setTagReadyAt(std::uint64_t tag, std::uint64_t cycle);
    void growTagRing();

    /** Per static inst: tag/seq of its most recent dispatched instance
     *  (the prediction source for LastValue specs). */
    std::vector<std::uint64_t> lastInstanceTag_;
    std::vector<std::uint64_t> lastInstanceSeq_;

    // ---- O(1) scoreboarding (docs/INTERNALS.md, "Simulator
    // performance"): every per-cycle full-window rescan of the seed
    // implementation is replaced by state maintained incrementally at
    // dispatch / issue / release / commit / squash. ----

    /** Instructions holding an IQ slot (inIq), indexed by [fp]. */
    unsigned iqOcc_[2] = {0, 0};
    /** Renamed destination registers in flight, indexed by [fp]. */
    unsigned physOcc_[2] = {0, 0};
    /** Dispatched memory operations in flight (LSQ entries). */
    unsigned lsqOcc_ = 0;

    /**
     * Completion event wheel: bucket (cycle & wheelMask_) holds the
     * seqs scheduled to complete at that cycle. Entries are validated
     * at pop (state == Issued && completeCycle == now), so squashes
     * and reissues simply leave stale entries behind instead of
     * requiring removal.
     */
    std::vector<std::vector<std::uint64_t>> wheel_;
    std::uint64_t wheelMask_ = 0;

    /**
     * Seqs of in-window predicted instructions not yet resolved,
     * ascending. Dispatch happens in seq order (replays re-dispatch
     * above every surviving entry), so inserts are push_backs; the
     * Reissue hold scan iterates this instead of the whole window.
     */
    std::vector<std::uint64_t> unresolvedPreds_;

    /**
     * Seqs with inIq set whose state has left InIQ — the only
     * instructions iqReleasePhase can release. Self-cleaning: entries
     * whose instruction was squashed or released are dropped on the
     * next pass (inReleaseList guards against duplicates).
     */
    std::vector<std::uint64_t> releasePending_;

    /** In-window store seqs (ascending) per effective address. */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        storesByAddr_;

    /**
     * Seqs with state == InIQ, ascending — the only instructions
     * issuePhase can select, so it walks this (bounded by the IQ
     * sizes) instead of the whole ROB. Entries are added at dispatch
     * and at a reissue reset, removed when they issue, and dropped
     * lazily (like releasePending_) when the instruction was squashed
     * or the seq was reused; iteration order equals window order, so
     * issue decisions are unchanged.
     */
    std::vector<std::uint64_t> iqList_;

    /**
     * Seq of the oldest instruction that can still be WaitDispatch.
     * States only advance and dispatch is in-order, so the
     * undispatched instructions are exactly the window suffix starting
     * here; dispatchPhase begins at this seq instead of rescanning the
     * dispatched prefix. Squash rewinds it alongside fetchSeq_.
     */
    std::uint64_t dispatchSeq_ = 0;

    std::uint64_t cycle_ = 0;
    std::uint64_t committed_ = 0;
    /** Deadlock-watchdog bookkeeping (was local to run(); promoted so
     *  stepCycle() keeps it across external-driver calls). */
    std::uint64_t lastCommitCycle_ = 0;
    std::uint64_t lastCommitted_ = 0;
    /** Committed-path prediction counts (see commitPhase). */
    std::uint64_t vpEligibleCommitted_ = 0;
    std::uint64_t vpPredictedCommitted_ = 0;
    std::uint64_t vpCorrectCommitted_ = 0;
    std::uint64_t fetchResumeCycle_ = 0;
    std::uint64_t pendingRedirectSeq_ = noSeq;
    std::uint64_t lastFetchLine_ = ~0ull;
    /** log2 of the configured L1I line size (fetch-probe granularity). */
    unsigned fetchLineShift_ = 6;
    bool fetchHalted_ = false;

    StatSet stats_;

    /** Optional lifecycle tracer (see trace/tracer.hh); may be null. */
    PipelineTracer *tracer_ = nullptr;

    /** Cycles between watchdog checks (power of two; the check is a
     *  masked compare plus, when due, one steady_clock read). */
    static constexpr std::uint64_t deadlineCheckMask = 4095;
    /** Optional per-run wall-clock watchdog; may be null. */
    const RunDeadline *deadline_ = nullptr;

    /**
     * Interned histogram handles, non-null only when
     * params.collectHist — the off state costs one predictable branch
     * per sample site and emits no stats (golden maps unchanged).
     */
    StatSet::Distribution *histIssueToComplete_ = nullptr;
    StatSet::Distribution *histIqOccupancy_ = nullptr;
    StatSet::Distribution *histLsqOccupancy_ = nullptr;
    StatSet::Distribution *histRecoveryPenalty_ = nullptr;

    /**
     * Interned per-event stat handles (StatSet::counter): one
     * registration in the constructor, then every pipeline event is a
     * lookup-free accumulate. Declared after stats_ (initialization
     * order) and intentionally named like the stats they back.
     */
    struct Counters
    {
        explicit Counters(StatSet &stats);

        StatSet::Counter &branchMispredicts;
        StatSet::Counter &valueMispredicts;
        StatSet::Counter &reissues;
        StatSet::Counter &valueRefetches;
        StatSet::Counter &commitCyclesUsed;
        StatSet::Counter &holdAfterDoneCycles;
        StatSet::Counter &holdsReleased;
        StatSet::Counter &storeForwards;
        StatSet::Counter &issued;
        StatSet::Counter &iqOccupancyInt;
        StatSet::Counter &iqOccupancyFp;
        StatSet::Counter &iqFullStalls;
        StatSet::Counter &physRegStalls;
        StatSet::Counter &lsqFullStalls;
        StatSet::Counter &predictedValueUses;
        StatSet::Counter &predictionsDispatched;
        StatSet::Counter &fetchStallCycles;
        StatSet::Counter &robFullStalls;
        StatSet::Counter &icacheMissStalls;
        StatSet::Counter &fetched;
        StatSet::Counter &squashed;
    };
    Counters ctr_;
};

} // namespace rvp

#endif // RVP_UARCH_CORE_HH
