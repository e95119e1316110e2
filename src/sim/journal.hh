/**
 * @file
 * Crash-safe run journal for sweeps. Every finished run (success or
 * recorded failure) is appended to a side file as one JSONL record,
 * flushed and fsync'd before the scheduler moves on, keyed by an
 * FNV-1a hash of the run's identity. A killed sweep therefore loses at
 * most the runs that were in flight: `sweep_all --resume` loads the
 * journal, skips every run journaled as successful, re-runs the rest,
 * and assembles a final output bit-identical to an uninterrupted sweep
 * (host-timing fields are carried in the journal so even they survive).
 *
 * Durability recipe:
 *  - journal appends: O_APPEND write of one full line + fsync, so a
 *    crash can tear at most the final line, and load() skips torn or
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

#include "common/jsonlite.hh"
#include "sim/runner.hh"

namespace rvp
{

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
 * Open path to append fsync'd lines (RunJournal, ResultStore). A new
 * file's directory entry is fsync'd; an existing file's torn last line
 * (a SIGKILL mid-append) is ended first, so the next line is not
 * spliced onto it. Returns the fd or -1 (errno set).
 */
int openAppendLog(const std::string &path, bool *created = nullptr);

/** Hand onLine each non-empty line of the JSONL file at path, parsed,
 *  in order; returns how many lines failed to parse or made onLine
 *  throw (a torn tail, garbage), which are skipped. */
std::size_t replayJsonLines(
    const std::string &path,
    const std::function<void(const JsonObject &)> &onLine);

/**
 * Write contents to path atomically: a temp file beside the target is
 * written, flushed, fsync'd, and rename(2)'d over path. Returns false
 * (with the temp file cleaned up) on any I/O error.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents);

/**
 * Append one line to path through the same atomic path: the existing
 * contents plus the new line are written to a temp file and renamed
 * over the original, so a crash can never leave a torn trailing row.
 * Used for the append-only bench trail (BENCH_perf.json).
 */
bool appendLineAtomic(const std::string &path, const std::string &line);

/** One journaled run: identity key plus everything the final report
 *  needs to reprint the run without re-executing it. */
struct JournalRecord
{
    std::string key;        ///< hashHex of the run identity
    std::string figure;     ///< human context (not used for matching)
    std::string variant;
    std::string workload;
    double runSeconds = 0.0;
    ExperimentResult result;   ///< stats map included, bit-exact
};

/**
 * Serialize one record to its canonical journal line (no trailing
 * newline). This is THE byte format: RunJournal::append writes it,
 * the sweep-service result store persists it verbatim, and service
 * clients receive the stored bytes unchanged — so "byte-identical
 * across a daemon restart" is a property of the store, not of
 * re-serialization.
 */
std::string encodeJournalRecord(const JournalRecord &rec);

/**
 * Parse one line as a `type:"run"` journal record. Returns nullopt on
 * anything else — torn trailing lines, corruption, header lines —
 * mirroring RunJournal::load's skip-don't-abort contract.
 */
std::optional<JournalRecord> parseJournalRunLine(const std::string &line);

/**
 * Append-side journal handle. Thread safe: append() serializes under
 * an internal mutex, and each record is one write(2) of a full line
 * followed by fsync(2), so concurrent sweep workers cannot interleave
 * bytes and a SIGKILL can tear at most the line in flight.
 */
class RunJournal
{
  public:
    /** Opens (creating or appending) the journal at path. */
    explicit RunJournal(const std::string &path);
    ~RunJournal();

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    bool ok() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    /** Sweep-identity header: --resume refuses a journal whose sweep
     *  hash does not match the current invocation's options. */
    void appendSweepHeader(const std::string &sweepHash);

    /** Append one finished run (fsync'd before returning). */
    void append(const JournalRecord &rec);

    /** Everything load() recovered from a journal file. */
    struct Loaded
    {
        std::string sweepHash;   ///< empty when no header line survived
        std::map<std::string, JournalRecord> runs;  ///< by identity key
        std::size_t skippedLines = 0;  ///< torn / corrupt lines ignored
    };

    /**
     * Parse a journal file. Missing file -> empty result. Torn or
     * corrupt lines (the possible last line of a killed process) are
     * counted in skippedLines and otherwise ignored; a duplicate key
     * keeps the later record (a resumed sweep may re-run a previously
     * failed run and journal it again).
     */
    static Loaded load(const std::string &path);

  private:
    void writeLine(const std::string &line);

    std::string path_;
    int fd_ = -1;
    std::mutex mutex_;
};

/**
 * RunJournal::load() for a resumed sweep: throws std::runtime_error
 * when the journal's header names a sweep hash other than sweepHash,
 * so no run of a different configuration is merged into this one. A
 * journal whose header did not survive (only run lines) is accepted.
 */
RunJournal::Loaded loadJournalForResume(const std::string &path,
                                        const std::string &sweepHash);

} // namespace rvp

#endif // RVP_SIM_JOURNAL_HH
