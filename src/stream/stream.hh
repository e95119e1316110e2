/**
 * @file
 * Committed-stream capture & replay. The committed-path DynInst stream
 * is a pure function of the compiled program (the emulator is
 * deterministic and input-free beyond the data image), so a sweep that
 * times one binary under many core/VP configurations can execute it
 * once and replay the encoded stream everywhere else.
 *
 * The seam is InstSource: Core pulls instructions through it and the
 * value predictors receive the pre-execution architectural state from
 * it, so a live Emulator and a replay cursor are interchangeable and
 * bit-identical in every emitted stat.
 *
 * Encoding (CapturedStream, format version 2): a per-static decode
 * table carries everything derivable from the static instruction
 * (opcode, normalized sources, destination, flags, branch target);
 * three per-instruction lanes carry only the dynamic residue, as
 * varint/zigzag deltas in structure-of-arrays form:
 *
 *   - value lane: result minus the destination's prior value, for
 *     writesRc instructions only (loads, ALU ops, JSR)
 *   - address lane: effective-address delta vs the previous memory
 *     operation, for loads/stores only
 *   - taken lane: one bit per conditional branch
 *
 * Everything else is reconstructed: pc = Program::pcOf(index), store
 * data and oldDestValue are read from the replayed architectural
 * state, which the cursor maintains by applying each instruction's
 * single register write, and the successor (nextPc, and with it the
 * next static index) is derived rather than stored: a non-control
 * instruction falls through to index + 1, a conditional branch
 * follows its taken bit to its static target or index + 1, BR goes
 * to its static target, and JSR/RET jump to the pre-state value of
 * their target register. Version 1 also stored a static-index lane
 * (a flat 1.00 B/inst on every workload); dropping it took the
 * 308-run default grid's captures from 4.44 to 3.44 B/inst. Capture
 * verifies all of these derivations against the live emulator
 * instruction by instruction, so a stream that builds at all replays
 * exactly.
 */

#ifndef RVP_STREAM_STREAM_HH
#define RVP_STREAM_STREAM_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/deadline.hh"
#include "emu/emulator.hh"

namespace rvp
{

/**
 * A captured stream failed its integrity verification (bad magic /
 * version, lane length mismatch, or a per-lane checksum mismatch).
 * Replaying such a stream would silently diverge from the committed
 * path, so verification fails loudly instead; the sweep layer converts
 * the error into a cache miss plus live-emulation fallback (counted in
 * WorkloadCacheStats::streamIntegrityFailures).
 */
class StreamIntegrityError : public std::runtime_error
{
  public:
    explicit StreamIntegrityError(const std::string &what)
        : std::runtime_error("stream integrity: " + what)
    {
    }
};

/**
 * The instruction-stream seam between the functional front end and the
 * timing model. step() fills one committed-path DynInst (false once
 * the program has halted); preState() is the architectural state the
 * last-stepped instruction executed in, which is all the value
 * predictors read beyond the DynInst itself.
 */
class InstSource
{
  public:
    virtual ~InstSource();

    /** Produce the next committed instruction; false after HALT. */
    virtual bool step(DynInst &out) = 0;

    /**
     * Architectural state *before* the instruction the last successful
     * step() produced. Valid until the next step() call.
     */
    virtual const ArchState &preState() const = 0;
};

/** Live functional execution: owns an Emulator, copies no state. */
class LiveEmulatorSource final : public InstSource
{
  public:
    explicit LiveEmulatorSource(const Program &prog) : emu_(prog) {}

    bool
    step(DynInst &out) override
    {
        pre_ = emu_.state();
        return emu_.step(out);
    }

    const ArchState &preState() const override { return pre_; }

  private:
    Emulator emu_;
    ArchState pre_;
};

/**
 * An immutable captured committed stream. Build once per compiled
 * binary with capture(), replay any number of times (concurrently)
 * through StreamCursor.
 */
class CapturedStream
{
  public:
    /**
     * Run a fresh Emulator over prog for up to maxInsts committed
     * instructions and encode the stream. Returns null if the encoded
     * size would exceed maxBytes (0 = unlimited); a null result means
     * "use live emulation", never a partial stream. A non-null
     * deadline is checked periodically (DeadlineExceeded propagates).
     * The finished stream is sealed: a versioned header with per-lane
     * FNV-1a checksums that verifyIntegrity() revalidates.
     */
    static std::shared_ptr<const CapturedStream>
    capture(const Program &prog, std::uint64_t maxInsts,
            std::uint64_t maxBytes = 0,
            const RunDeadline *deadline = nullptr);

    /**
     * Test-only capture fault hook: when non-null, invoked once per
     * captured instruction with the count so far. Fault-injection
     * tests (sim/faultinject.hh) use it to simulate allocation failure
     * mid-capture; production code never sets it. Atomic because
     * sweep workers capture concurrently while a test arms or disarms
     * the hook — a bare pointer here is a data race (TSan-visible).
     */
    using CaptureHook = void (*)(std::uint64_t instsSoFar);
    static std::atomic<CaptureHook> captureHook;

    /**
     * Revalidate the sealed header against the lanes: magic, format
     * version, instruction count, per-lane byte length and FNV-1a
     * checksum. Throws StreamIntegrityError on any mismatch (flipped
     * byte, truncated lane, foreign or stale header). StreamCursor
     * calls this on attach, so no corrupt stream is ever replayed.
     */
    void verifyIntegrity() const;

    /** Captured instruction count. */
    std::uint64_t instCount() const { return count_; }

    /** True if the stream ends in HALT (nothing was truncated). */
    bool complete() const { return complete_; }

    /** True if a run consuming up to insts instructions can replay. */
    bool
    covers(std::uint64_t insts) const
    {
        return complete_ || count_ >= insts;
    }

    /** Total encoded footprint (lanes + decode table + state). */
    std::size_t encodedBytes() const;

    /** Architectural state before the first captured instruction (the
     *  starting point every replaying consumer reconstructs from). */
    const ArchState &initialState() const { return initialState_; }

  private:
    friend class StreamCursor;
    /** Test-only corruption seams (sim/faultinject.hh): flip one lane
     *  byte / drop lane tail bytes so integrity tests can prove the
     *  mismatch is caught at cursor attach. */
    friend void corruptStreamForTest(const CapturedStream &stream,
                                     unsigned lane, std::size_t offset,
                                     std::uint8_t xorMask);
    friend void truncateStreamForTest(const CapturedStream &stream,
                                      unsigned lane, std::size_t dropBytes);

    CapturedStream() = default;

    /** Dynamic lanes: 0 = value, 1 = address, 2 = taken. */
    static constexpr unsigned kLanes = 3;

    /** Sealed at the end of capture(); verifyIntegrity() revalidates. */
    struct Header
    {
        static constexpr std::uint32_t kMagic = 0x52565053; // "RVPS"
        static constexpr std::uint32_t kVersion = 2;

        std::uint32_t magic = 0;
        std::uint32_t version = 0;
        std::uint64_t instCount = 0;
        std::uint64_t laneBytes[kLanes] = {};  ///< value/addr/taken
        std::uint64_t laneFnv[kLanes] = {};
    };

    /** Compute the header over the current lanes (capture-time seal). */
    void seal();

    /** The dynamic lanes, indexed as in the header. */
    std::array<const std::vector<std::uint8_t> *, kLanes> lanes() const;

    /** Per-static-instruction fields shared by all its instances. */
    struct StaticDecode
    {
        Opcode op = Opcode::NOP;
        RegIndex srcA = regNone;   ///< normalized, as DynInst reports
        RegIndex srcB = regNone;
        RegIndex dest = regNone;   ///< normalized (zero regs -> none)
        /** Raw rc when writesRc: oldDestValue / replay-write register
         *  (ArchState read/write discard the zero regs). */
        RegIndex rawRc = regNone;
        RegIndex storeReg = regNone; ///< store data register (rb)
        /** JSR/RET: the register holding the jump target (ra). */
        RegIndex targetReg = regNone;
        std::uint8_t flags = 0;
        /** Conditional branch / BR: static index of the taken target. */
        std::uint32_t takenIdx = 0;
    };

    static constexpr std::uint8_t kWrites = 1;      ///< writesRc
    static constexpr std::uint8_t kMem = 2;         ///< load or store
    static constexpr std::uint8_t kStore = 4;
    static constexpr std::uint8_t kCond = 8;        ///< conditional br
    static constexpr std::uint8_t kAlwaysTaken = 16;///< BR / JSR / RET
    static constexpr std::uint8_t kIndirect = 32;   ///< JSR / RET

    /**
     * The pc the instruction at static index idx hands control to,
     * given its taken bit and the architectural state it executed in.
     */
    static std::uint64_t successorPc(const StaticDecode &d,
                                     std::uint32_t idx, bool taken,
                                     const ArchState &pre);

    std::vector<StaticDecode> decode_;
    ArchState initialState_;

    // Dynamic lanes (see file comment for the per-lane encodings),
    // in header order.
    std::vector<std::uint8_t> valueLane_;
    std::vector<std::uint8_t> addrLane_;
    std::vector<std::uint8_t> takenLane_;
    std::uint64_t takenBits_ = 0;

    std::uint64_t count_ = 0;
    bool complete_ = false;
    Header header_;
};

/**
 * Replays a CapturedStream through the InstSource contract. The
 * cursor reconstructs the full architectural state as it goes by
 * applying each instruction's register write *lazily* (at the next
 * step), so preState() is a reference to the state the last-stepped
 * instruction saw — no per-instruction copy, unlike the live path.
 */
class StreamCursor final : public InstSource
{
  public:
    explicit StreamCursor(std::shared_ptr<const CapturedStream> stream);

    bool step(DynInst &out) override;
    const ArchState &preState() const override { return state_; }

  private:
    std::shared_ptr<const CapturedStream> stream_;

    // Lane read positions.
    const std::uint8_t *valPos_;
    const std::uint8_t *addrPos_;
    const std::uint8_t *takenPos_;
    unsigned takenBit_ = 0;

    std::uint64_t pos_ = 0;        ///< instructions consumed
    /** Static index of instruction pos_: the last one's successor,
     *  and 0 (Program::textBase, where execution starts) before it. */
    std::uint32_t nextIdx_ = 0;
    std::uint64_t prevAddr_ = 0;   ///< last memory effective address

    ArchState state_;
    /** Register write of the last-stepped instruction, applied on the
     *  next step so state_ stays that instruction's pre-state. */
    RegIndex pendingDest_ = regNone;
    std::uint64_t pendingValue_ = 0;
};

} // namespace rvp

#endif // RVP_STREAM_STREAM_HH
