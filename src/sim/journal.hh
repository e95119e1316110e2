/**
 * @file
 * A run's identity and its durable record. Every run is keyed by its
 * whole configuration: configKey() hashes canonicalConfigText(), which
 * one table (configFields) builds from every ExperimentConfig field
 * that can change a result. One RunStore persists finished runs under
 * those keys, each put stamped with the model that produced it:
 * sweep_all's `<out>.journal` (a killed sweep resumes by looking each
 * run's key up) and the sweep service's result store
 * (service/store.hh) are both RunStores, and both front ends drive
 * theirs through one executor, runStored().
 *
 * Durability recipe:
 *  - store puts: O_APPEND write of one full line + fsync, so a crash
 *    can tear at most the final line, and the replay skips torn or
 *    corrupt lines instead of failing;
 *  - final artifacts (results JSON, bench rows): write-temp-then-
 *    rename(2) in the target directory (writeFileAtomic), so readers
 *    never observe a partial file.
 */

#ifndef RVP_SIM_JOURNAL_HH
#define RVP_SIM_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.hh"

namespace rvp
{

struct SweepOptions;
struct SweepReport;

/** FNV-1a over a byte string; `seed` chains multi-field hashes. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 1469598103934665603ull);

/** Lower-case 16-digit hex of a 64-bit hash (stable key format). */
std::string hashHex(std::uint64_t h);

/** JSON string-escape (quotes and backslashes; the only characters
 *  our serialized fields can contain that need it). */
std::string jsonEscape(const std::string &s);

/** Round-trip double formatting (%.17g): parseNumber<double>
 *  (common/parse.hh) reads the result back to the identical bit
 *  pattern. */
std::string jsonNum(double value);

/**
 * fsync the directory containing path (the path's parent, or "." when
 * path has no slash). Needed after creating or renaming a directory
 * entry: fsync of the file itself covers only the inode, not the
 * directory that names it, so without this a crash can forget the
 * file ever existed. Returns false on any error.
 */
bool fsyncParentDir(const std::string &path);

/**
 * The rule for every artifact path (reports, bench rows, traces,
 * sweepctl records): a path that exists and is not a regular file is
 * refused, never replaced. Throws ConfigError naming what and path
 * when it names a directory, FIFO, device or symlink (lstat: a symlink
 * is refused, not followed). Tools call it before any run and the
 * writers again at write.
 */
void checkArtifactPath(const std::string &path, const char *what);

/**
 * Write contents to path atomically: a temp file beside the target is
 * written, flushed, fsync'd, and rename(2)'d over path. A new file
 * takes the umask's mode. Throws ConfigError when path exists and is
 * not a regular file (checkArtifactPath); returns false (with the temp
 * file cleaned up) on any I/O error.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents);

/**
 * Append one line to path through the same atomic path: the existing
 * contents plus the new line are written to a temp file and renamed
 * over the original, so a crash can never leave a torn trailing row.
 * Used for the append-only bench trail (BENCH_perf.json).
 */
bool appendLineAtomic(const std::string &path, const std::string &line);

/** One finished run: its key (configKey) plus everything the final
 *  report needs to reprint the run without re-executing it. */
struct JournalRecord
{
    std::string key;        ///< configKey of the run
    std::string figure;     ///< human context (not used for matching)
    std::string variant;
    std::string workload;
    double runSeconds = 0.0;
    ExperimentResult result;   ///< stats map included, bit-exact
};

/**
 * The record of config's run: its key, labels from the config alone
 * (figure empty, variant describeConfig(config), workload
 * config.workload), so one key's record has the same bytes whichever
 * front end ran it.
 */
JournalRecord journalRecordFor(const ExperimentConfig &config,
                               const ExperimentResult &result,
                               double runSeconds);

/**
 * Serialize one record to its canonical journal line (no trailing
 * newline). This is THE byte format: every RunStore persists it
 * verbatim, and service clients receive the stored bytes unchanged —
 * so "byte-identical across a daemon restart" is a property of the
 * store, not of re-serialization.
 */
std::string encodeJournalRecord(const JournalRecord &rec);

/** Parse one line as a `type:"run"` journal record; nullopt on
 *  anything else (torn or corrupt text, another line type). */
std::optional<JournalRecord> parseJournalRunLine(const std::string &line);

/** One row of the run identity: a field's name and its text. */
struct ConfigField
{
    const char *name;
    std::string (*format)(const ExperimentConfig &);
};

/**
 * Every ExperimentConfig field that can change a run's result, one
 * row each, in canonical-text order: first the eleven fields of the
 * frozen `rvp-spec-v1` text (the RunSpec fields, service/protocol.hh),
 * then the rest. A field added to ExperimentConfig needs a row here,
 * or runs that differ in it share a key.
 */
const std::vector<ConfigField> &configFields();

/**
 * Canonical text of a config: `rvp-spec-v1|` and the frozen fields'
 * values joined by `|`, then `|name=value` for each later field whose
 * value differs from ExperimentConfig{}'s. A config a RunSpec can
 * express writes only the frozen fields, so its key is the v1 key that
 * existing stores hold. No field is normalized away, not even one the
 * scheme ignores.
 */
std::string canonicalConfigText(const ExperimentConfig &config);

/** A run's identity: hashHex(fnv1a(canonicalConfigText(config))). */
std::string configKey(const ExperimentConfig &config);

/**
 * This build's model fingerprint: 16 hex digits hashed at build time
 * from every source file that can move a result (src/stamp.cmake
 * states the list). Any edit to one gives a new fingerprint.
 */
const char *modelFingerprint();

/**
 * The durable run store: a map from run key to the exact record line
 * (encodeJournalRecord) the run produced, kept in a crash-safe JSONL
 * file:
 *   {"type": "store", "version": 1}          — header, written once
 *   {"type": "put", "key": "...", "model": "<fingerprint>",
 *    "record": "<escaped record line>"}
 * Every put is stamped with modelFingerprint(); the key and the record
 * bytes carry no stamp. The constructor replays the file: a later
 * duplicate of a key wins; a put of another model, or with no model,
 * is stale: not loaded, only counted, so another build's result is
 * never returned as this one's. A torn or corrupt line (a SIGKILL
 * mid-append, garbage, a line of another format) is skipped and
 * counted, never fatal. A torn last line is ended before the first new
 * put, so the put is not spliced onto it. Thread safe: sweep workers
 * put concurrently, and each put is one write of a full line followed
 * by an fsync.
 */
class RunStore
{
  public:
    /** Opens (creating or replaying) the store at path. */
    explicit RunStore(const std::string &path);
    ~RunStore();

    RunStore(const RunStore &) = delete;
    RunStore &operator=(const RunStore &) = delete;

    bool ok() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** Stored record line for key, if any (the exact bytes put()). */
    std::optional<std::string> get(const std::string &key) const;

    /**
     * Persist key -> recordLine (fsync'd before returning; on the
     * first put of a fresh file the directory entry is fsync'd too).
     * Returns false when the append failed — the entry is then NOT
     * added to the in-memory map either, so the store never claims
     * durability it does not have.
     */
    bool put(const std::string &key, const std::string &recordLine);

    /** Entries resident now. */
    std::size_t size() const;

    /** Entries recovered by the constructor's replay. */
    std::size_t recovered() const { return recovered_; }

    /** Torn / corrupt lines skipped by the replay. */
    std::size_t skippedLines() const { return skipped_; }

    /** Puts of another model (or with none) the replay did not load. */
    std::size_t staleLines() const { return stale_; }

    /**
     * Rewrite the file as header + one put line per surviving key
     * (atomic via writeFileAtomic), dropping superseded duplicates and
     * stale lines.
     * The append fd is reopened on the new file. Safe to call at any
     * quiet point; the daemon compacts on graceful shutdown. False
     * (warned) on an I/O error or a path no longer a regular file.
     */
    bool compact();

  private:
    bool appendLineLocked(const std::string &line);

    mutable std::mutex mutex_;
    std::string path_;
    int fd_ = -1;
    std::map<std::string, std::string> entries_;
    std::size_t recovered_ = 0;
    std::size_t skipped_ = 0;
    std::size_t stale_ = 0;
};

/** A RunStore that takes whole JournalRecords (perfbench's grid
 *  journals through it). */
class RunJournal : public RunStore
{
  public:
    using RunStore::RunStore;

    /** Writes nothing: a record's key names its whole configuration,
     *  so no sweep header guards a store. */
    void appendSweepHeader(const std::string &) {}

    /** put(rec.key, encodeJournalRecord(rec)), fsync'd on return: a
     *  plain put, which applies no store rule (runStored does). */
    void append(const JournalRecord &rec)
    {
        put(rec.key, encodeJournalRecord(rec));
    }
};

/** One config's outcome from runStored. */
struct StoredRun
{
    std::string key;        ///< configKey of the config
    JournalRecord record;   ///< shared by every config of the key
    std::string line;       ///< encodeJournalRecord(record) / stored bytes
    bool cached = false;    ///< the store answered the key; nothing ran
    std::size_t first = 0;  ///< index of the first config with this key
};

/**
 * The stored-run executor, the one path from configs to records for
 * sweep_all and rvpsweepd. It keys every config and answers each key
 * the store holds with its stored record, without an attempt. Each
 * missing key runs once through runSweep (with options; report is
 * runSweep's), and every config of that key shares its record.
 *
 * The store rule, applied here and nowhere else: a result is put only
 * when its first attempt succeeded (!failed && retries == 0), so a
 * stored record is exactly the result of the config its key names.
 * A failure is transient (a deadline kill, an OOM) and must not poison
 * its key. A degraded retry ran with tracing and histograms cleared,
 * which is not the config its key names. Both are still returned and
 * go to onRecord, and a later call runs them again.
 *
 * store may be null (nothing answered, nothing put). onPlan, if set,
 * gets the distinct and to-run key counts before anything runs.
 * onRecord, if set, runs once per distinct key: for a stored key on
 * the calling thread before any run starts; for a run one on the
 * sweep worker that ran it, after its put has returned, so a record
 * is durable before anyone sees it. Workers call it concurrently.
 * runStored owns options.onRunComplete (the caller's is not called).
 */
std::vector<StoredRun>
runStored(const std::vector<ExperimentConfig> &configs, RunStore *store,
          const SweepOptions &options, SweepReport *report = nullptr,
          const std::function<void(const StoredRun &)> &onRecord = {},
          const std::function<void(std::size_t distinct,
                                   std::size_t toRun)> &onPlan = {});

} // namespace rvp

#endif // RVP_SIM_JOURNAL_HH
