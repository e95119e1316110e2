/**
 * @file
 * Persistent content-addressed result store of the sweep service: a
 * crash-safe append-only journal mapping run key (runSpecKey) to the
 * exact journal-record line (sim/journal.hh encodeJournalRecord) the
 * run produced. The daemon answers a repeated request with the stored
 * bytes verbatim, so responses are byte-identical across daemon
 * restarts — including a SIGKILL mid-grid, because every put is one
 * O_APPEND write of a full line followed by fsync (the same recipe as
 * RunJournal), and load() tolerates a torn trailing line.
 *
 * File format (JSONL):
 *   {"type": "store", "version": 1}          — header, written once
 *   {"type": "put", "key": "...", "record": "<escaped record line>"}
 * Later duplicates of a key win on load; compact() rewrites the file
 * with one line per surviving key through writeFileAtomic.
 */

#ifndef RVP_SERVICE_STORE_HH
#define RVP_SERVICE_STORE_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace rvp
{

class ResultStore
{
  public:
    /** Opens (creating or replaying) the store at path. A corrupt or
     *  torn line is skipped and counted, never fatal. */
    explicit ResultStore(const std::string &path);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

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

    /**
     * Rewrite the file as header + one put line per surviving key
     * (atomic via writeFileAtomic), dropping superseded duplicates.
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
};

} // namespace rvp

#endif // RVP_SERVICE_STORE_HH
