#include "service/store.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <sstream>

#include "common/framing.hh"
#include "common/jsonlite.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/journal.hh"

namespace rvp
{

namespace
{

std::string
putLine(const std::string &key, const std::string &recordLine)
{
    return "{\"type\": \"put\", \"key\": \"" + jsonEscape(key) +
           "\", \"record\": \"" + jsonEscape(recordLine) + "\"}";
}

std::string
headerLine()
{
    return "{\"type\": \"store\", \"version\": 1}";
}

} // namespace

ResultStore::ResultStore(const std::string &path) : path_(path)
{
    // Replay whatever survives on disk first: later duplicates win
    // (a compacted file has none), torn or corrupt lines — the
    // possible last line of a SIGKILLed daemon — are counted and
    // skipped, exactly like RunJournal::load.
    skipped_ = replayJsonLines(path, [&](const JsonObject &obj) {
        std::string type = jsonGet<std::string>(obj, "type");
        if (type == "put")
            entries_.insert_or_assign(jsonGet<std::string>(obj, "key"),
                                      jsonGet<std::string>(obj, "record"));
        else if (type != "store")
            throw std::runtime_error("unknown store line");
    });
    recovered_ = entries_.size();

    bool created = false;
    fd_ = openAppendLog(path, &created);
    if (fd_ < 0) {
        warn("cannot open result store '%s': %s", path.c_str(),
             std::strerror(errno));
    } else if (created) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!appendLineLocked(headerLine()))
            warn("cannot initialize result store '%s': %s",
                 path.c_str(), std::strerror(errno));
    }
}

ResultStore::~ResultStore()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
ResultStore::appendLineLocked(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string buf = line;
    buf += '\n';
    if (!writeAll(fd_, buf.data(), buf.size()))
        return false;
    return fsync(fd_) == 0;
}

std::optional<std::string>
ResultStore::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

bool
ResultStore::put(const std::string &key, const std::string &recordLine)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!appendLineLocked(putLine(key, recordLine))) {
        warn("result store append failed for key %s: %s", key.c_str(),
             std::strerror(errno));
        return false;
    }
    entries_.insert_or_assign(key, recordLine);
    return true;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

bool
ResultStore::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << headerLine() << '\n';
    for (const auto &[key, record] : entries_)
        os << putLine(key, record) << '\n';
    // A path replaced since startup is left alone (the artifact rule).
    try {
        if (!writeFileAtomic(path_, os.str()))
            return false;
    } catch (const ConfigError &e) {
        warn("result store not compacted: %s", e.what());
        return false;
    }
    // Re-point the append fd at the new file; appends to the old
    // inode would be silently lost.
    if (fd_ >= 0)
        close(fd_);
    fd_ = open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) {
        warn("cannot reopen result store '%s' after compaction: %s",
             path_.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

} // namespace rvp
