#include "sim/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/framing.hh"
#include "common/jsonlite.hh"
#include "common/logging.hh"

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

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    std::string tmp = path + ".tmp.XXXXXX";
    std::vector<char> tmpl(tmp.begin(), tmp.end());
    tmpl.push_back('\0');
    int fd = mkstemp(tmpl.data());
    if (fd < 0)
        return false;
    tmp.assign(tmpl.data());

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

RunJournal::RunJournal(const std::string &path) : path_(path)
{
    struct stat st;
    bool existed = stat(path.c_str(), &st) == 0;
    fd_ = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        warn("cannot open run journal '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    // A freshly created journal needs its directory entry on disk
    // before the first fsync'd append can be called durable — the
    // same guarantee writeFileAtomic makes for renames.
    if (!existed && !fsyncParentDir(path))
        warn("cannot fsync journal directory for '%s': %s", path.c_str(),
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
 *  mistyped field (jsonField's contract). */
JournalRecord
recordFromJson(const std::map<std::string, JsonValue> &obj)
{
    JournalRecord rec;
    rec.key = jsonField(obj, "key").str;
    rec.figure = jsonField(obj, "figure").str;
    rec.variant = jsonField(obj, "variant").str;
    rec.workload = jsonField(obj, "workload").str;
    rec.runSeconds = jsonField(obj, "run_seconds").num();
    ExperimentResult &r = rec.result;
    r.ipc = jsonField(obj, "ipc").num();
    r.cycles = jsonField(obj, "cycles").u64();
    r.committed = jsonField(obj, "committed").u64();
    r.predictedFrac = jsonField(obj, "predicted_frac").num();
    r.accuracy = jsonField(obj, "accuracy").num();
    r.reallocFailed = jsonField(obj, "realloc_failed").boolean;
    r.hostSeconds = jsonField(obj, "host_seconds").num();
    r.kips = jsonField(obj, "kips").num();
    r.failed = jsonField(obj, "failed").boolean;
    r.error = jsonField(obj, "error").str;
    r.retries = static_cast<unsigned>(jsonField(obj, "retries").u64());
    r.degraded = jsonField(obj, "degraded").boolean;
    for (const auto &[name, value] : jsonField(obj, "stats").obj)
        r.stats.set(name, value.num());
    return rec;
}

} // namespace

std::optional<JournalRecord>
parseJournalRunLine(const std::string &line)
{
    try {
        std::map<std::string, JsonValue> obj = parseJsonLine(line);
        if (jsonField(obj, "type").str != "run")
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
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        try {
            std::map<std::string, JsonValue> obj = parseJsonLine(line);
            const std::string &type = jsonField(obj, "type").str;
            if (type == "sweep") {
                out.sweepHash = jsonField(obj, "sweep_hash").str;
                continue;
            }
            if (type != "run")
                throw std::runtime_error("unknown record type");
            JournalRecord rec = recordFromJson(obj);
            out.runs.insert_or_assign(rec.key, std::move(rec));
        } catch (const std::exception &) {
            ++out.skippedLines;
        }
    }
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
