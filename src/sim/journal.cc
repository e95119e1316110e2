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
#include <functional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/framing.hh"
#include "common/jsonlite.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/model_stamp.hh"
#include "sim/sweep.hh"
#include "vp/registry.hh"

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

JournalRecord
journalRecordFor(const ExperimentConfig &config,
                 const ExperimentResult &result, double runSeconds)
{
    JournalRecord rec;
    rec.key = configKey(config);
    rec.variant = describeConfig(config);
    rec.workload = config.workload;
    rec.runSeconds = runSeconds;
    rec.result = result;
    return rec;
}

std::optional<JournalRecord>
parseJournalRunLine(const std::string &line)
{
    try {
        JsonObject obj = parseJsonLine(line);
        if (jsonGet<std::string>(obj, "type") != "run")
            return std::nullopt;
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
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

// ---------------------------------------------------------------------
// Run identity
// ---------------------------------------------------------------------

namespace
{

/** Text of a field value: %.17g doubles, true/false, decimal
 *  integers; a string with `\` and `|` escaped, so no value can
 *  forge a field boundary. */
template <typename T>
std::string
fieldText(const T &value)
{
    if constexpr (std::is_same_v<T, bool>) {
        return value ? "true" : "false";
    } else if constexpr (std::is_same_v<T, double>) {
        return jsonNum(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        std::string out;
        for (char c : value) {
            if (c == '\\' || c == '|')
                out += '\\';
            out += c;
        }
        return out;
    } else {
        return std::to_string(value);
    }
}

/** The leading configFields() rows the frozen v1 text always writes. */
constexpr std::size_t frozenSpecFields = 11;

} // namespace

// A row whose text is fieldText of c.member; and a cache's four rows.
#define RVP_FIELD(name, member)                                         \
    ConfigField                                                         \
    {                                                                   \
        name, [](const ExperimentConfig &c) {                           \
            return fieldText(c.member);                                 \
        }                                                               \
    }
#define RVP_CACHE_FIELDS(cache)                                         \
    RVP_FIELD(#cache "_name", core.mem.cache.name),                     \
    RVP_FIELD(#cache "_size_bytes", core.mem.cache.sizeBytes),          \
    RVP_FIELD(#cache "_assoc", core.mem.cache.assoc),                   \
    RVP_FIELD(#cache "_line_bytes", core.mem.cache.lineBytes)

const std::vector<ConfigField> &
configFields()
{
    using C = const ExperimentConfig &;
    static const std::vector<ConfigField> fields = {
        // The frozen rvp-spec-v1 fields, in their order and spelling.
        {"workload", [](C c) { return c.workload; }},
        {"scheme",
         [](C c) { return std::string(registryNameOf(c.scheme)); }},
        {"assist", [](C c) { return std::string(assistName(c.assist)); }},
        {"recovery",
         [](C c) { return std::string(recoveryName(c.core.recovery)); }},
        {"loads_only",
         [](C c) { return std::string(c.loadsOnly ? "loads" : "all"); }},
        RVP_FIELD("insts", core.maxInsts),
        RVP_FIELD("profile_insts", profileInsts),
        RVP_FIELD("profile_threshold", profileThreshold),
        RVP_FIELD("table_entries", tableEntries),
        RVP_FIELD("counter_threshold", counterThreshold),
        {"vp_params", [](C c) { return c.vpParams; }},
        // Written only when they differ from ExperimentConfig{}.
        RVP_FIELD("realistic_realloc", realisticRealloc),
        RVP_FIELD("tagged_rvp", taggedRvp),
        RVP_FIELD("fetch_width", core.fetchWidth),
        RVP_FIELD("fetch_blocks", core.fetchBlocks),
        RVP_FIELD("front_depth", core.frontDepth),
        RVP_FIELD("rename_width", core.renameWidth),
        RVP_FIELD("commit_width", core.commitWidth),
        RVP_FIELD("int_iq_entries", core.intIqEntries),
        RVP_FIELD("fp_iq_entries", core.fpIqEntries),
        RVP_FIELD("int_fus", core.intFus),
        RVP_FIELD("ldst_ports", core.ldstPorts),
        RVP_FIELD("fp_fus", core.fpFus),
        RVP_FIELD("rob_entries", core.robEntries),
        RVP_FIELD("phys_int_regs", core.physIntRegs),
        RVP_FIELD("phys_fp_regs", core.physFpRegs),
        RVP_FIELD("lsq_entries", core.lsqEntries),
        RVP_FIELD("collect_hist", core.collectHist),
        RVP_CACHE_FIELDS(l1i),
        RVP_CACHE_FIELDS(l1d),
        RVP_CACHE_FIELDS(l2),
        RVP_FIELD("l1_hit_latency", core.mem.l1HitLatency),
        RVP_FIELD("l1_miss_penalty", core.mem.l1MissPenalty),
        RVP_FIELD("l2_miss_penalty", core.mem.l2MissPenalty),
        RVP_FIELD("bp_pht_entries", core.bp.phtEntries),
        RVP_FIELD("bp_btb_entries", core.bp.btbEntries),
        RVP_FIELD("bp_ras_entries", core.bp.rasEntries),
        RVP_FIELD("bp_history_bits", core.bp.historyBits),
        RVP_FIELD("trace_out", traceOut),
        RVP_FIELD("trace_sample", traceSample),
    };
    return fields;
}

#undef RVP_CACHE_FIELDS
#undef RVP_FIELD

std::string
canonicalConfigText(const ExperimentConfig &config)
{
    const std::vector<ConfigField> &fields = configFields();
    static const std::vector<std::string> defaults = [&fields] {
        std::vector<std::string> texts;
        for (const ConfigField &field : fields)
            texts.push_back(field.format(ExperimentConfig{}));
        return texts;
    }();
    std::string text = "rvp-spec-v1";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        std::string value = fields[i].format(config);
        if (i < frozenSpecFields)
            text += '|' + value;
        else if (value != defaults[i])
            text += '|' + std::string(fields[i].name) + '=' + value;
    }
    return text;
}

std::string
configKey(const ExperimentConfig &config)
{
    return hashHex(fnv1a(canonicalConfigText(config)));
}

const char *
modelFingerprint()
{
    return stamp::modelFingerprint;
}

// ---------------------------------------------------------------------
// Run store
// ---------------------------------------------------------------------

namespace
{

/** Open path to append fsync'd lines. A new file's directory entry
 *  is fsync'd; an existing file's torn last line (a SIGKILL
 *  mid-append) is ended first, so the next line is not spliced onto
 *  it. Returns the fd or -1 (errno set). */
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

/** Hand onLine each non-empty line of the JSONL file at path, parsed,
 *  in order; returns how many lines failed to parse or made onLine
 *  throw (a torn tail, garbage), which are skipped. */
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

std::string
putLine(const std::string &key, const std::string &recordLine)
{
    return "{\"type\": \"put\", \"key\": \"" + jsonEscape(key) +
           "\", \"model\": \"" + stamp::modelFingerprint +
           "\", \"record\": \"" + jsonEscape(recordLine) + "\"}";
}

const char *const storeHeader = "{\"type\": \"store\", \"version\": 1}";

} // namespace

RunStore::RunStore(const std::string &path) : path_(path)
{
    // Replay whatever survives on disk first: later duplicates win
    // (a compacted file has none); a put of another model is counted
    // stale and not loaded; torn or corrupt lines — the possible last
    // line of a SIGKILLed writer — and lines of any other format are
    // counted and skipped.
    skipped_ = replayJsonLines(path, [&](const JsonObject &obj) {
        std::string type = jsonGet<std::string>(obj, "type");
        if (type == "put") {
            std::string key = jsonGet<std::string>(obj, "key");
            std::string record = jsonGet<std::string>(obj, "record");
            auto model = obj.find("model");
            if (model != obj.end() &&
                model->second.get<std::string>("model") ==
                    stamp::modelFingerprint)
                entries_.insert_or_assign(std::move(key),
                                          std::move(record));
            else
                ++stale_;
        } else if (type != "store") {
            throw std::runtime_error("unknown store line");
        }
    });
    recovered_ = entries_.size();

    bool created = false;
    fd_ = openAppendLog(path, &created);
    if (fd_ < 0) {
        warn("cannot open run store '%s': %s", path.c_str(),
             std::strerror(errno));
    } else if (created) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!appendLineLocked(storeHeader))
            warn("cannot initialize run store '%s': %s", path.c_str(),
                 std::strerror(errno));
    }
}

RunStore::~RunStore()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
RunStore::appendLineLocked(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string buf = line;
    buf += '\n';
    if (!writeAll(fd_, buf.data(), buf.size()))
        return false;
    // The fsync is the crash-safety contract: once put() returns, the
    // line survives a SIGKILL of this process.
    return fsync(fd_) == 0;
}

std::optional<std::string>
RunStore::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

bool
RunStore::put(const std::string &key, const std::string &recordLine)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!appendLineLocked(putLine(key, recordLine))) {
        warn("run store '%s': append failed for key %s: %s",
             path_.c_str(), key.c_str(), std::strerror(errno));
        return false;
    }
    entries_.insert_or_assign(key, recordLine);
    return true;
}

std::size_t
RunStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

bool
RunStore::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << storeHeader << '\n';
    for (const auto &[key, record] : entries_)
        os << putLine(key, record) << '\n';
    // A path replaced since startup is left alone (the artifact rule).
    try {
        if (!writeFileAtomic(path_, os.str()))
            return false;
    } catch (const ConfigError &e) {
        warn("run store not compacted: %s", e.what());
        return false;
    }
    // Re-point the append fd at the new file; appends to the old
    // inode would be silently lost.
    if (fd_ >= 0)
        close(fd_);
    fd_ = open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) {
        warn("cannot reopen run store '%s' after compaction: %s",
             path_.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Stored-run executor
// ---------------------------------------------------------------------

std::vector<StoredRun>
runStored(const std::vector<ExperimentConfig> &configs, RunStore *store,
          const SweepOptions &options, SweepReport *report,
          const std::function<void(const StoredRun &)> &onRecord,
          const std::function<void(std::size_t, std::size_t)> &onPlan)
{
    std::vector<StoredRun> runs(configs.size());
    std::map<std::string, std::size_t> firstOf;
    std::vector<std::size_t> pending;
    std::vector<ExperimentConfig> pendingConfigs;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        StoredRun &run = runs[i];
        run.key = configKey(configs[i]);
        auto [it, fresh] = firstOf.emplace(run.key, i);
        run.first = it->second;
        if (!fresh)
            continue;
        std::optional<std::string> line =
            store ? store->get(run.key) : std::nullopt;
        std::optional<JournalRecord> rec =
            line ? parseJournalRunLine(*line) : std::nullopt;
        if (rec) {
            run.record = std::move(*rec);
            run.line = std::move(*line);
            run.cached = true;
        } else {
            pending.push_back(i);
            pendingConfigs.push_back(configs[i]);
        }
    }
    if (onPlan)
        onPlan(firstOf.size(), pending.size());
    if (onRecord)
        for (std::size_t i = 0; i < runs.size(); ++i)
            if (runs[i].cached && runs[i].first == i)
                onRecord(runs[i]);

    SweepOptions sweepOptions = options;
    sweepOptions.onRunComplete = [&](std::size_t pi,
                                     const ExperimentResult &result,
                                     double runSeconds) {
        std::size_t i = pending[pi];
        StoredRun &run = runs[i];
        run.record = journalRecordFor(configs[i], result, runSeconds);
        run.line = encodeJournalRecord(run.record);
        // The store rule: only a first attempt's success is stored.
        if (store && !result.failed && result.retries == 0)
            store->put(run.key, run.line);
        if (onRecord)
            onRecord(run);
    };
    runSweep(pendingConfigs, sweepOptions, report);

    for (StoredRun &run : runs) {
        const StoredRun &first = runs[run.first];
        if (&first != &run) {
            run.record = first.record;
            run.line = first.line;
            run.cached = first.cached;
        }
    }
    return runs;
}

} // namespace rvp
