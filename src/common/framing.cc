#include "common/framing.hh"

#include <unistd.h>

#include <cerrno>

namespace rvp
{

bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, void *data, std::size_t len)
{
    char *p = static_cast<char *>(data);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::read(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;   // EOF before len bytes
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFrame(int fd, const std::string &payload)
{
    std::string frame = std::to_string(payload.size());
    frame += '\n';
    frame += payload;
    frame += '\n';
    return writeAll(fd, frame.data(), frame.size());
}

bool
FrameReader::fill()
{
    char chunk[4096];
    for (;;) {
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;   // EOF
        buf_.append(chunk, static_cast<std::size_t>(n));
        return true;
    }
}

std::optional<std::string>
FrameReader::next()
{
    // Frame: "<decimal len>\n<payload>\n". A peer that writes
    // anything else is broken; callers treat the throw as death.
    std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) {
        // The length line is at most 12 digits; anything longer
        // without a newline is garbage.
        if (buf_.size() > 32)
            throw FrameError(FrameError::Kind::BadLength,
                             "frame header too long");
        return std::nullopt;
    }
    if (nl == 0 || nl > 12)
        throw FrameError(FrameError::Kind::BadLength, "bad frame length");
    std::size_t len = 0;
    for (std::size_t i = 0; i < nl; ++i) {
        char c = buf_[i];
        if (c < '0' || c > '9')
            throw FrameError(FrameError::Kind::BadLength,
                             "bad frame length");
        len = len * 10 + static_cast<std::size_t>(c - '0');
    }
    // Reject before buffering/allocating the payload: a hostile or
    // corrupt header must not cost a giant allocation.
    if (len > maxFrame_)
        throw FrameError(FrameError::Kind::Oversized,
                         "frame of " + std::to_string(len) +
                             " bytes exceeds cap of " +
                             std::to_string(maxFrame_));
    // Need the payload plus its trailing newline.
    if (buf_.size() < nl + 1 + len + 1)
        return std::nullopt;
    if (buf_[nl + 1 + len] != '\n')
        throw FrameError(FrameError::Kind::BadTerminator,
                         "missing frame terminator");
    std::string payload = buf_.substr(nl + 1, len);
    buf_.erase(0, nl + 1 + len + 1);
    return payload;
}

ScopedSigpipeIgnore::ScopedSigpipeIgnore()
{
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, &old_);
}

ScopedSigpipeIgnore::~ScopedSigpipeIgnore()
{
    ::sigaction(SIGPIPE, &old_, nullptr);
}

} // namespace rvp
