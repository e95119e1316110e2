#include "sim/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/framing.hh"
#include "common/jsonlite.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace rvp
{

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    // Field separator so concatenated fields cannot alias ("ab"+"c"
    // vs "a"+"bc" hash differently when chained).
    h ^= 0xff;
    h *= 1099511628211ull;
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
jsonNum(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

// ---------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------

bool
fsyncParentDir(const std::string &path)
{
    std::string dir = ".";
    if (std::size_t slash = path.rfind('/'); slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    int dirfd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd < 0)
        return false;
    bool ok = fsync(dirfd) == 0;
    close(dirfd);
    return ok;
}

int
openAppendLog(const std::string &path, bool *created)
{
    struct stat st;
    bool existed = stat(path.c_str(), &st) == 0;
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
    if (fd < 0)
        return -1;
    if (created)
        *created = !existed;
    char last = '\n';
    int rfd = existed && st.st_size > 0
                  ? open(path.c_str(), O_RDONLY | O_CLOEXEC)
                  : -1;
    if (rfd >= 0) {
        if (pread(rfd, &last, 1, st.st_size - 1) != 1)
            last = '\n';
        close(rfd);
    }
    bool ok = existed ? last == '\n' ||
                            (writeAll(fd, "\n", 1) && fsync(fd) == 0)
                      : fsyncParentDir(path);
    if (!ok)
        warn("cannot %s '%s': %s",
             existed ? "heal the torn tail of" : "fsync the directory of",
             path.c_str(), std::strerror(errno));
    return fd;
}

std::size_t
replayJsonLines(const std::string &path,
                const std::function<void(const JsonObject &)> &onLine)
{
    std::size_t skipped = 0;
    std::ifstream is(path, std::ios::binary);
    std::string line;
    while (is && std::getline(is, line)) {
        if (line.empty())
            continue;
        try {
            onLine(parseJsonLine(line));
        } catch (const std::exception &) {
            ++skipped;
        }
    }
    return skipped;
}

void
checkArtifactPath(const std::string &path, const char *what)
{
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
        throwConfigError("%s '%s' exists and is not a regular file "
                         "(a directory, FIFO, device or symlink); "
                         "refusing to replace it",
                         what, path.c_str());
}

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    checkArtifactPath(path, "output");
    // O_EXCL on a fresh name instead of mkstemp, whose 0600 would
    // become the artifact's mode: open() applies the umask to 0666.
    static std::atomic<unsigned> serial{0};
    std::string tmp;
    int fd = -1;
    for (int tries = 0; fd < 0 && tries < 100; ++tries) {
        tmp = path + ".tmp." + std::to_string(getpid()) + "." +
              std::to_string(serial.fetch_add(1));
        fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0666);
        if (fd < 0 && errno != EEXIST)
            return false;
    }
    if (fd < 0)
        return false;

    if (!writeAll(fd, contents.data(), contents.size())) {
        close(fd);
        unlink(tmp.c_str());
        return false;
    }
    if (fsync(fd) != 0 || close(fd) != 0) {
        unlink(tmp.c_str());
        return false;
    }
    if (rename(tmp.c_str(), path.c_str()) != 0) {
        unlink(tmp.c_str());
        return false;
    }
    // The rename is only durable once the parent directory's entry is
    // on disk: without this fsync a crash right after return could
    // roll the path back to the OLD file even though the caller was
    // promised the new contents.
    return fsyncParentDir(path);
}

bool
appendLineAtomic(const std::string &path, const std::string &line)
{
    // Before the read, too: opening a FIFO to read would block.
    checkArtifactPath(path, "output");
    std::string existing;
    {
        std::ifstream is(path, std::ios::binary);
        if (is) {
            std::ostringstream ss;
            ss << is.rdbuf();
            existing = ss.str();
        }
    }
    existing += line;
    if (existing.empty() || existing.back() != '\n')
        existing += '\n';
    return writeFileAtomic(path, existing);
}

// ---------------------------------------------------------------------
// Journal append side
// ---------------------------------------------------------------------

RunJournal::RunJournal(const std::string &path)
    : path_(path), fd_(openAppendLog(path))
{
    if (fd_ < 0)
        warn("cannot open run journal '%s': %s", path.c_str(),
             std::strerror(errno));
}

RunJournal::~RunJournal()
{
    if (fd_ >= 0)
        close(fd_);
}

void
RunJournal::writeLine(const std::string &line)
{
    if (fd_ < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::string buf = line;
    buf += '\n';
    if (!writeAll(fd_, buf.data(), buf.size())) {
        warn("run journal write failed: %s", std::strerror(errno));
        return;
    }
    // The fsync is the crash-safety contract: once append() returns,
    // the record survives a SIGKILL of this process.
    if (fsync(fd_) != 0)
        warn("run journal fsync failed: %s", std::strerror(errno));
}

void
RunJournal::appendSweepHeader(const std::string &sweepHash)
{
    writeLine("{\"type\": \"sweep\", \"version\": 1, \"sweep_hash\": \"" +
              jsonEscape(sweepHash) + "\"}");
}

std::string
encodeJournalRecord(const JournalRecord &rec)
{
    const ExperimentResult &r = rec.result;
    std::ostringstream os;
    os << "{\"type\": \"run\", \"key\": \"" << jsonEscape(rec.key)
       << "\", \"figure\": \"" << jsonEscape(rec.figure)
       << "\", \"variant\": \"" << jsonEscape(rec.variant)
       << "\", \"workload\": \"" << jsonEscape(rec.workload)
       << "\", \"run_seconds\": " << jsonNum(rec.runSeconds)
       << ", \"ipc\": " << jsonNum(r.ipc)
       << ", \"cycles\": " << r.cycles
       << ", \"committed\": " << r.committed
       << ", \"predicted_frac\": " << jsonNum(r.predictedFrac)
       << ", \"accuracy\": " << jsonNum(r.accuracy)
       << ", \"realloc_failed\": " << (r.reallocFailed ? "true" : "false")
       << ", \"host_seconds\": " << jsonNum(r.hostSeconds)
       << ", \"kips\": " << jsonNum(r.kips)
       << ", \"failed\": " << (r.failed ? "true" : "false")
       << ", \"error\": \"" << jsonEscape(r.error) << "\""
       << ", \"retries\": " << r.retries
       << ", \"degraded\": " << (r.degraded ? "true" : "false")
       << ", \"stats\": {";
    bool first = true;
    for (const auto &[name, value] : r.stats.values()) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << jsonEscape(name) << "\": " << jsonNum(value);
    }
    os << "}}";
    return os.str();
}

namespace
{

/** Field extraction shared by load() and parseJournalRunLine(); the
 *  caller has already checked type == "run". Throws on any missing or
 *  mistyped field (jsonGet's contract). */
JournalRecord
recordFromJson(const JsonObject &obj)
{
    JournalRecord rec;
    rec.key = jsonGet<std::string>(obj, "key");
    rec.figure = jsonGet<std::string>(obj, "figure");
    rec.variant = jsonGet<std::string>(obj, "variant");
    rec.workload = jsonGet<std::string>(obj, "workload");
    rec.runSeconds = jsonGet<double>(obj, "run_seconds");
    ExperimentResult &r = rec.result;
    r.ipc = jsonGet<double>(obj, "ipc");
    r.cycles = jsonGet<std::uint64_t>(obj, "cycles");
    r.committed = jsonGet<std::uint64_t>(obj, "committed");
    r.predictedFrac = jsonGet<double>(obj, "predicted_frac");
    r.accuracy = jsonGet<double>(obj, "accuracy");
    r.reallocFailed = jsonGet<bool>(obj, "realloc_failed");
    r.hostSeconds = jsonGet<double>(obj, "host_seconds");
    r.kips = jsonGet<double>(obj, "kips");
    r.failed = jsonGet<bool>(obj, "failed");
    r.error = jsonGet<std::string>(obj, "error");
    r.retries = jsonGet<unsigned>(obj, "retries");
    r.degraded = jsonGet<bool>(obj, "degraded");
    for (const auto &[name, value] : jsonField(obj, "stats").obj)
        r.stats.set(name, value.get<double>(name.c_str()));
    return rec;
}

} // namespace

std::optional<JournalRecord>
parseJournalRunLine(const std::string &line)
{
    try {
        JsonObject obj = parseJsonLine(line);
        if (jsonGet<std::string>(obj, "type") != "run")
            return std::nullopt;
        return recordFromJson(obj);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

void
RunJournal::append(const JournalRecord &rec)
{
    writeLine(encodeJournalRecord(rec));
}

// ---------------------------------------------------------------------
// Journal load side: lines are parsed with the shared single-line JSON
// parser (common/jsonlite.hh), which throws on any deviation — a torn
// line from a killed writer, hand-edited garbage — and load() skips
// the line rather than aborting the resume.
// ---------------------------------------------------------------------

RunJournal::Loaded
RunJournal::load(const std::string &path)
{
    Loaded out;
    out.skippedLines = replayJsonLines(path, [&](const JsonObject &obj) {
        std::string type = jsonGet<std::string>(obj, "type");
        if (type == "sweep") {
            out.sweepHash = jsonGet<std::string>(obj, "sweep_hash");
        } else if (type == "run") {
            JournalRecord rec = recordFromJson(obj);
            out.runs.insert_or_assign(rec.key, std::move(rec));
        } else {
            throw std::runtime_error("unknown record type");
        }
    });
    return out;
}

RunJournal::Loaded
loadJournalForResume(const std::string &path, const std::string &sweepHash)
{
    RunJournal::Loaded loaded = RunJournal::load(path);
    if (!loaded.sweepHash.empty() && loaded.sweepHash != sweepHash)
        throw std::runtime_error(
            "journal '" + path + "' belongs to a different sweep "
            "configuration (hash " + loaded.sweepHash + " != " + sweepHash +
            "); rerun without --resume");
    return loaded;
}

} // namespace rvp
