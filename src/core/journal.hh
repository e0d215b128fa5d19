/**
 * @file
 * The append-only sweep journal behind `--resume`.
 *
 * A figure binary opens one journal (`sweep_journal.jsonl`) in its
 * stats directory and the sweep engine appends one record -- a
 * single compact-JSON line, fsynced before append() returns -- per
 * completed point.  Records are keyed by a digest of everything that
 * determines the point's result (the full saved configuration text,
 * the multiprogramming level, the instruction and warmup budgets),
 * so a journal written by a killed run can be replayed by any later
 * run of the same ladder: points journaled Ok or Degraded are reused
 * without simulating, Failed and missing points run again.
 *
 * A record is the key followed by the point's SweepOutcome in
 * core/result_io's outcome codec (the one mproc Result frames use,
 * without the job stats): the status, then the complete SimResult
 * (bit-exact round-trip) or the failure's code, message and
 * configuration name.  So a resumed run re-tabulates its CSVs and
 * per-point JSON dumps byte-identically to an uninterrupted one.
 *
 * Loading tolerates a torn trailing line (the record being written
 * when the process died) and takes the last record per key, so
 * re-running after repeated kills just keeps appending.
 */

#ifndef GAAS_CORE_JOURNAL_HH
#define GAAS_CORE_JOURNAL_HH

#include <cstdio>
#include <map>
#include <string>

#include "core/sweep.hh"

namespace gaas::core
{

/**
 * The resume key of @p job: a 64-bit FNV-1a digest (16 hex digits)
 * over the saved configuration text and the mpLevel/instructions/
 * warmup budgets.
 *
 * @return "" for jobs with a custom workload builder -- the builder
 *         cannot be digested, so such jobs are never journaled
 */
std::string sweepJobKey(const SweepJob &job);

/** Append-only journal file; see file comment. */
class RunJournal
{
  public:
    RunJournal() = default;
    ~RunJournal() { close(); }

    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /**
     * Load existing records from @p path (absent file = empty
     * journal), open it for appending and take an exclusive
     * advisory lock (flock) on it for the journal's lifetime.
     *
     * @return false (with @p error set) if the file cannot be
     *         decoded or opened; the caller typically warns and
     *         sweeps without resume
     * @throws SimError(ErrorCode::Locked) if another live process
     *         holds the journal -- concurrent `--resume DIR` runs
     *         on the same directory would interleave appends, so
     *         the second opener must fail, not degrade
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** The last outcome journaled under @p key; nullptr if none. */
    const SweepOutcome *find(const std::string &key) const;

    /**
     * Append @p outcome's record and fsync it.  A failure (disk full,
     * injected "journal-write" fault) leaves the journal usable for
     * later appends.
     *
     * @return false on write failure; the sweep downgrades the
     *         point to Degraded rather than aborting
     */
    bool append(const std::string &key, const SweepOutcome &outcome);

    /** Records loaded at open() time. */
    std::size_t loadedRecords() const { return records.size(); }

    bool isOpen() const { return file != nullptr; }

    void close();

  private:
    std::map<std::string, SweepOutcome> records;
    std::FILE *file = nullptr;
};

} // namespace gaas::core

#endif // GAAS_CORE_JOURNAL_HH
