#include "stream/stream.hh"

#include "common/logging.hh"

namespace rvp
{

namespace
{

/** LEB128 append. */
void
putVarint(std::vector<std::uint8_t> &lane, std::uint64_t v)
{
    while (v >= 0x80) {
        lane.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    lane.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

void
putDelta(std::vector<std::uint8_t> &lane, std::int64_t delta)
{
    putVarint(lane, zigzag(delta));
}

/** LEB128 read; advances pos. The encoder bounds every lane, so the
 *  decode side trusts the byte stream (capture verified it). */
std::uint64_t
getVarint(const std::uint8_t *&pos)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        std::uint8_t byte = *pos++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

std::int64_t
getDelta(const std::uint8_t *&pos)
{
    std::uint64_t z = getVarint(pos);
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/** FNV-1a over a byte lane (the per-lane integrity checksum). */
std::uint64_t
fnv1aLane(const std::vector<std::uint8_t> &lane)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t b : lane) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

std::atomic<CapturedStream::CaptureHook> CapturedStream::captureHook{
    nullptr};

InstSource::~InstSource() = default;

inline std::uint64_t
CapturedStream::successorPc(const StaticDecode &d, std::uint32_t idx,
                            bool taken, const ArchState &pre)
{
    if (d.flags & kIndirect)
        return pre.read(d.targetReg);
    // Only conditional branches and BR report taken (capture checks).
    return Program::pcOf(taken ? d.takenIdx : idx + 1);
}

std::array<const std::vector<std::uint8_t> *, CapturedStream::kLanes>
CapturedStream::lanes() const
{
    return {&valueLane_, &addrLane_, &takenLane_};
}

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

std::shared_ptr<const CapturedStream>
CapturedStream::capture(const Program &prog, std::uint64_t maxInsts,
                        std::uint64_t maxBytes,
                        const RunDeadline *deadline)
{
    auto stream = std::shared_ptr<CapturedStream>(new CapturedStream);

    // Static decode table: everything an instance shares with its
    // static instruction, precomputed once.
    stream->decode_.reserve(prog.size());
    for (const StaticInst &si : prog.insts) {
        const OpcodeInfo &info = si.info();
        StaticDecode d;
        d.op = si.op;
        d.srcA = (si.ra == regNone || isZeroReg(si.ra)) ? regNone : si.ra;
        if (!si.useImm && !info.isLoad && si.op != Opcode::LDA &&
            si.rb != regNone && !isZeroReg(si.rb)) {
            d.srcB = si.rb;
        }
        if (info.writesRc) {
            d.flags |= kWrites;
            d.rawRc = si.rc;
            d.dest = isZeroReg(si.rc) ? regNone : si.rc;
        }
        if (info.isLoad || info.isStore)
            d.flags |= kMem;
        if (info.isStore) {
            d.flags |= kStore;
            d.storeReg = si.rb;
        }
        if (info.isCondBranch)
            d.flags |= kCond;
        if (info.isUncondBranch)
            d.flags |= kAlwaysTaken;
        if (si.op == Opcode::JSR || si.op == Opcode::RET) {
            d.flags |= kIndirect;
            d.targetReg = si.ra;
        } else if (info.isCondBranch || si.op == Opcode::BR) {
            std::int64_t idx = static_cast<std::int64_t>(
                stream->decode_.size());
            d.takenIdx = static_cast<std::uint32_t>(idx + 1 + si.imm);
        }
        stream->decode_.push_back(d);
    }

    Emulator emu(prog);
    stream->initialState_ = emu.state();

    // Mirror of the state a replay cursor will reconstruct; every
    // derived field is checked against the live DynInst as we encode,
    // so replay correctness is established at capture time.
    ArchState mirror = emu.state();
    DynInst di;
    std::uint64_t prev_addr = 0;
    std::uint64_t expected_pc = Program::textBase;

    while (stream->count_ < maxInsts) {
        if (deadline && (stream->count_ & 4095u) == 0)
            deadline->check("stream capture");
        if (CaptureHook hook =
                captureHook.load(std::memory_order_acquire))
            hook(stream->count_);
        if (!emu.step(di))
            break;
        std::uint32_t idx = di.staticIndex;
        const StaticDecode &d = stream->decode_[idx];
        RVP_ASSERT(di.pc == Program::pcOf(idx) && di.pc == expected_pc);
        RVP_ASSERT(di.op == d.op && di.srcA == d.srcA &&
                   di.srcB == d.srcB && di.dest == d.dest);
        // The successor is never stored: check the derivation against
        // the pre-state, before this instruction's write lands.
        RVP_ASSERT(successorPc(d, idx, di.isTaken, mirror) == di.nextPc);

        if (d.flags & kWrites) {
            std::uint64_t old = mirror.read(d.rawRc);
            RVP_ASSERT(old == di.oldDestValue);
            putDelta(stream->valueLane_,
                     static_cast<std::int64_t>(di.newValue - old));
            mirror.write(d.rawRc, di.newValue);
        } else if (d.flags & kStore) {
            RVP_ASSERT(di.newValue == mirror.read(d.storeReg));
        }
        if (d.flags & kMem) {
            putDelta(stream->addrLane_,
                     static_cast<std::int64_t>(di.effAddr - prev_addr));
            prev_addr = di.effAddr;
        } else {
            RVP_ASSERT(di.effAddr == 0);
        }
        if (d.flags & kCond) {
            unsigned bit = stream->takenBits_ & 7;
            if (bit == 0)
                stream->takenLane_.push_back(0);
            stream->takenLane_.back() |=
                static_cast<std::uint8_t>(di.isTaken) << bit;
            ++stream->takenBits_;
        } else {
            RVP_ASSERT(di.isTaken == ((d.flags & kAlwaysTaken) != 0));
        }

        expected_pc = di.nextPc;
        ++stream->count_;

        if (maxBytes && stream->encodedBytes() > maxBytes)
            return nullptr;
    }
    stream->complete_ = emu.halted();
    stream->seal();
    return stream;
}

void
CapturedStream::seal()
{
    header_.magic = Header::kMagic;
    header_.version = Header::kVersion;
    header_.instCount = count_;
    for (unsigned i = 0; i < kLanes; ++i) {
        const std::vector<std::uint8_t> &lane = *lanes()[i];
        header_.laneBytes[i] = lane.size();
        header_.laneFnv[i] = fnv1aLane(lane);
    }
}

void
CapturedStream::verifyIntegrity() const
{
    if (header_.magic != Header::kMagic)
        throw StreamIntegrityError("bad magic (stream was never sealed)");
    if (header_.version != Header::kVersion)
        throw StreamIntegrityError(
            "format version " + std::to_string(header_.version) +
            " (expected " + std::to_string(Header::kVersion) + ")");
    if (header_.instCount != count_)
        throw StreamIntegrityError(
            "instruction count mismatch (header " +
            std::to_string(header_.instCount) + ", stream " +
            std::to_string(count_) + ")");
    static const char *laneNames[kLanes] = {"value", "address", "taken"};
    for (unsigned i = 0; i < kLanes; ++i) {
        const std::vector<std::uint8_t> &lane = *lanes()[i];
        if (header_.laneBytes[i] != lane.size())
            throw StreamIntegrityError(
                std::string(laneNames[i]) + " lane truncated (" +
                std::to_string(lane.size()) + " bytes, header " +
                std::to_string(header_.laneBytes[i]) + ")");
        if (header_.laneFnv[i] != fnv1aLane(lane))
            throw StreamIntegrityError(std::string(laneNames[i]) +
                                       " lane checksum mismatch");
    }
}

std::size_t
CapturedStream::encodedBytes() const
{
    return valueLane_.size() + addrLane_.size() + takenLane_.size() +
           decode_.size() * sizeof(StaticDecode) + sizeof(*this);
}

// Test-only corruption seams (declared as friends in stream.hh): the
// cached stream is immutable by contract, so these cast that away —
// they exist solely to let fault-injection tests prove that a flipped
// byte or dropped tail is caught at cursor attach, never replayed.
void
corruptStreamForTest(const CapturedStream &stream, unsigned lane,
                     std::size_t offset, std::uint8_t xorMask)
{
    RVP_ASSERT(lane < CapturedStream::kLanes);
    auto &mut = const_cast<std::vector<std::uint8_t> &>(
        *stream.lanes()[lane]);
    RVP_ASSERT(offset < mut.size());
    mut[offset] ^= xorMask;
}

void
truncateStreamForTest(const CapturedStream &stream, unsigned lane,
                      std::size_t dropBytes)
{
    RVP_ASSERT(lane < CapturedStream::kLanes);
    auto &mut = const_cast<std::vector<std::uint8_t> &>(
        *stream.lanes()[lane]);
    RVP_ASSERT(dropBytes <= mut.size());
    mut.resize(mut.size() - dropBytes);
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

StreamCursor::StreamCursor(std::shared_ptr<const CapturedStream> stream)
    : stream_(std::move(stream))
{
    // Verify before touching any lane: a truncated or corrupt stream
    // must throw StreamIntegrityError here, not replay garbage (or
    // read out of bounds) later.
    stream_->verifyIntegrity();
    valPos_ = stream_->valueLane_.data();
    addrPos_ = stream_->addrLane_.data();
    takenPos_ = stream_->takenLane_.data();
    state_ = stream_->initialState_;
}

bool
StreamCursor::step(DynInst &out)
{
    const CapturedStream &s = *stream_;
    if (pos_ == s.count_) {
        RVP_ASSERT(s.complete_,
                   "stream cursor ran past a truncated capture "
                   "(%llu instructions): covers() was not checked",
                   static_cast<unsigned long long>(s.count_));
        return false;
    }

    // Apply the previous instruction's register write now, keeping
    // state_ equal to the *pre*-state of the instruction we return.
    if (pendingDest_ != regNone) {
        state_.write(pendingDest_, pendingValue_);
        pendingDest_ = regNone;
    }

    std::uint32_t idx = nextIdx_;
    const CapturedStream::StaticDecode &d = s.decode_[idx];

    out = DynInst{};
    out.seq = pos_;
    out.staticIndex = idx;
    out.pc = Program::pcOf(idx);
    out.op = d.op;
    out.srcA = d.srcA;
    out.srcB = d.srcB;
    out.dest = d.dest;

    if (d.flags & CapturedStream::kWrites) {
        std::uint64_t old = state_.read(d.rawRc);
        out.oldDestValue = old;
        out.newValue =
            old + static_cast<std::uint64_t>(getDelta(valPos_));
        pendingDest_ = d.rawRc;
        pendingValue_ = out.newValue;
    } else if (d.flags & CapturedStream::kStore) {
        out.newValue = state_.read(d.storeReg);
    }
    if (d.flags & CapturedStream::kMem) {
        prevAddr_ += static_cast<std::uint64_t>(getDelta(addrPos_));
        out.effAddr = prevAddr_;
    }
    if (d.flags & CapturedStream::kCond) {
        out.isTaken = (*takenPos_ >> takenBit_) & 1;
        if (++takenBit_ == 8) {
            takenBit_ = 0;
            ++takenPos_;
        }
    } else {
        out.isTaken = (d.flags & CapturedStream::kAlwaysTaken) != 0;
    }

    // state_ is still this instruction's pre-state (its write is
    // pending), which is what a JSR/RET target is read from.
    out.nextPc = CapturedStream::successorPc(d, idx, out.isTaken, state_);
    nextIdx_ = static_cast<std::uint32_t>(Program::indexOf(out.nextPc));
    ++pos_;
    return true;
}

} // namespace rvp
