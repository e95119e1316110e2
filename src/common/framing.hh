/**
 * @file
 * Length-prefixed frame codec for the sweep-service Unix socket
 * (service/daemon.hh, service/client.hh). A frame is either delivered
 * whole or detectably torn — never silently spliced — and a peer that
 * writes garbage is reported with a typed FrameError instead of a
 * giant allocation or a misread.
 *
 * Frame wire format: ASCII decimal payload length, '\n', the payload
 * bytes, '\n'. The trailing newline is verified on read, so a
 * truncated write from a killed peer fails the frame instead of
 * bleeding into the next one.
 *
 * Also home to the EINTR-and-short-write-safe writeAll()/readAll()
 * loops every raw fd writer in the tree shares (frames, journal
 * appends, atomic file publication), and to ScopedSigpipeIgnore, which
 * turns a write to a dead peer into EPIPE instead of process death.
 */

#ifndef RVP_COMMON_FRAMING_HH
#define RVP_COMMON_FRAMING_HH

#include <signal.h>

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

namespace rvp
{

/**
 * Malformed framing from a peer: a non-numeric or over-long length
 * header, a frame larger than the reader's bound, or a missing
 * terminator (a torn write). Derives std::runtime_error, so existing
 * callers that treat any exception as peer death keep working; the
 * kind lets the service answer with a precise typed error before
 * dropping the connection.
 */
class FrameError : public std::runtime_error
{
  public:
    enum class Kind
    {
        BadLength,     ///< length line empty / non-numeric / over-long
        Oversized,     ///< declared length exceeds the reader's bound
        BadTerminator, ///< payload not followed by '\n' (torn/spliced)
    };

    FrameError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/**
 * Default per-frame byte bound. Control frames (service requests,
 * status, errors) are hundreds of bytes; the largest legitimate
 * frames are service result records with full stat maps, a few tens
 * of KiB. 16 MiB leaves three orders of magnitude of headroom while
 * refusing to even attempt the multi-GiB allocation a hostile or
 * corrupt length header would otherwise demand.
 */
constexpr std::size_t defaultMaxFrameBytes = std::size_t{16} << 20;

/**
 * Write exactly len bytes, retrying EINTR and short writes. Returns
 * false on any other write error (with SIGPIPE ignored — see
 * ScopedSigpipeIgnore below — a dead peer reports EPIPE here instead
 * of killing the process).
 */
bool writeAll(int fd, const void *data, std::size_t len);

/**
 * Read exactly len bytes, retrying EINTR and short reads. Returns
 * false on EOF or any read error before len bytes arrived (the
 * partial prefix may have been consumed — callers treat false as a
 * dead peer, not a resumable state).
 */
bool readAll(int fd, void *data, std::size_t len);

/** One framed payload: header + payload + terminator. */
std::string encodeFrame(const std::string &payload);

/** Write encodeFrame(payload) via writeAll. Returns false on any
 *  write error. */
bool writeFrame(int fd, const std::string &payload);

/**
 * Incremental frame reader over one fd. fill() performs a single
 * read(2) (call it after poll() says readable, or freely on a
 * blocking fd); next() extracts the next complete payload from the
 * buffer. next() throws FrameError on malformed framing — including
 * any frame whose declared length exceeds maxFrameBytes, rejected
 * BEFORE buffering or allocating the payload — which callers treat
 * as peer death or answer with a typed protocol error.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd,
                         std::size_t maxFrameBytes = defaultMaxFrameBytes)
        : fd_(fd), maxFrame_(maxFrameBytes)
    {
    }

    /** One read(2) into the buffer; false on EOF or a fatal error. */
    bool fill();

    /**
     * Append bytes read elsewhere (a non-blocking recv loop that must
     * distinguish EAGAIN from EOF does its own reads and feeds the
     * reader; fill() cannot tell those apart).
     */
    void feed(const char *data, std::size_t len)
    {
        buf_.append(data, len);
    }

    /** Next complete frame payload, if buffered. */
    std::optional<std::string> next();

    /** Bytes buffered but not yet returned (diagnostics). */
    std::size_t buffered() const { return buf_.size(); }

  private:
    int fd_;
    std::size_t maxFrame_;
    std::string buf_;
};

/**
 * Ignore SIGPIPE for this object's lifetime (restoring the previous
 * disposition), so writes to a dead peer fail with EPIPE instead of
 * terminating the process.
 */
class ScopedSigpipeIgnore
{
  public:
    ScopedSigpipeIgnore();
    ~ScopedSigpipeIgnore();

    ScopedSigpipeIgnore(const ScopedSigpipeIgnore &) = delete;
    ScopedSigpipeIgnore &operator=(const ScopedSigpipeIgnore &) = delete;

  private:
    struct sigaction old_ = {};
};

} // namespace rvp

#endif // RVP_COMMON_FRAMING_HH
