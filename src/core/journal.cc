#include "journal.hh"

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>

#include <sys/file.h>
#include <unistd.h>

#include "core/config_io.hh"
#include "core/result_io.hh"
#include "obs/json.hh"
#include "trace/v3.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/file_io.hh"
#include "util/hash.hh"

namespace gaas::core
{

namespace
{

using util::Fnv1a;

} // namespace

std::string
sweepJobKey(const SweepJob &job)
{
    if (job.workload)
        return "";
    std::ostringstream cfg;
    saveConfig(job.config, cfg);
    Fnv1a digest;
    digest.feed(cfg.str());
    digest.feed("|");
    digest.feedNumber(job.mpLevel);
    digest.feedNumber(job.instructions);
    digest.feedNumber(job.warmup);
    digest.feedNumber(job.watchdogCycles);
    if (!job.traceFiles.empty()) {
        // Trace-file jobs key on *content* (the v3 content digest
        // plus record count), not the path, so a renamed or re-packed
        // copy of the same trace still resumes.  The streaming flag
        // deliberately stays out of the key: streamed and in-memory
        // replay are bit-identical by contract, so either mode may
        // satisfy the other's journal entry.  An unreadable file
        // makes the job opaque (never journaled) -- the open error
        // surfaces when the job actually runs.
        digest.feed("trace|");
        for (const std::string &path : job.traceFiles) {
            trace::V3FileInfo info;
            try {
                info = trace::v3FileInfo(path);
            } catch (const FatalError &) {
                return "";
            }
            digest.feedNumber(info.digest);
            digest.feedNumber(info.records);
        }
    }
    if (job.sampling.enabled) {
        // A sampled point must never satisfy (or be satisfied by) a
        // full-detail key, and every sampling knob changes the
        // estimate.  Unsampled jobs keep their pre-sampling keys, so
        // existing journals stay resumable.
        digest.feed("sampled|");
        digest.feedNumber(job.sampling.measureInstructions);
        digest.feedNumber(job.sampling.headInstructions);
        digest.feedNumber(job.sampling.warmInstructions);
        digest.feedNumber(job.sampling.minIntervals);
        digest.feedNumber(job.sampling.maxIntervals);
        digest.feed(obs::formatDouble(job.sampling.targetRelHalfWidth));
        digest.feed("|");
        digest.feed(obs::formatDouble(job.sampling.warmingBiasRel));
        digest.feed("|");
    }
    return digest.hex();
}

bool
RunJournal::open(const std::string &path, std::string *error)
{
    close();
    records.clear();

    // Load whatever a previous (possibly killed) run left behind.
    // The file legitimately may not exist yet.
    std::ifstream in(path, std::ios::binary);
    if (in) {
        std::string line;
        while (std::getline(in, line)) {
            // getline strips the '\n'; a line at EOF *without* one
            // is the torn tail of a killed append -- skip it (its
            // point simply re-simulates).
            if (in.eof() && !in.bad())
                break;
            if (line.empty())
                continue;
            try {
                const obs::JsonValue v = obs::parseJson(line);
                const obs::JsonValue *key = v.member("key");
                if (!key || key->type != obs::JsonValue::Type::String)
                    gaas_error(ErrorCode::StatsIO,
                               "journal record lacks its key");
                // The last record per key wins.
                records[key->scalar] = outcomeFromJson(v, false);
            } catch (const FatalError &e) {
                if (error) {
                    *error = "journal " + path +
                             " is corrupt: " + e.what();
                }
                return false;
            }
        }
    }

    file = std::fopen(path.c_str(), "ab");
    if (!file) {
        if (error)
            *error = "cannot open journal " + path + " for append";
        return false;
    }

    // Exclusive advisory lock for the life of the journal: two
    // concurrent `--resume DIR` runs would interleave appends (and
    // race the record map), so the second opener must fail hard --
    // not silently corrupt the first run's checkpoint stream.  The
    // lock dies with the process (including SIGKILL), so a crashed
    // holder never wedges later resumes.
    while (::flock(::fileno(file), LOCK_EX | LOCK_NB) != 0) {
        if (errno == EINTR)
            continue;
        const bool held = errno == EWOULDBLOCK || errno == EAGAIN;
        std::fclose(file);
        file = nullptr;
        if (held) {
            gaas_error(ErrorCode::Locked, "resume journal ", path,
                       " is locked by another live process; "
                       "concurrent --resume runs on one directory "
                       "would interleave appends");
        }
        if (error)
            *error = "cannot lock journal " + path;
        return false;
    }
    return true;
}

const SweepOutcome *
RunJournal::find(const std::string &key) const
{
    const auto it = records.find(key);
    return it == records.end() ? nullptr : &it->second;
}

bool
RunJournal::append(const std::string &key, const SweepOutcome &outcome)
{
    if (!file || key.empty())
        return false;
    if (fault::shouldFail("journal-write"))
        return false;

    obs::JsonValue record = outcomeToJson(outcome, false);
    record.members.emplace(record.members.begin(), "key",
                           obs::JsonValue::string(key));
    const std::string line = obs::writeJsonCompact(record) + "\n";
    // File size, not the stream position: in append mode the
    // position before the first write is implementation-defined, but
    // writes always land at end-of-file.
    const std::int64_t before = util::fileSizeBytes(file);
    if (!util::writeBytes(file, line.data(), line.size()) ||
        !util::flushAndSync(file)) {
        // Roll the file back to the last good record so a partial
        // line cannot poison the records that follow it.
        if (before < 0 ||
            ::ftruncate(::fileno(file), static_cast<off_t>(before)) != 0)
            close();
        return false;
    }
    records[key] = outcome;
    return true;
}

void
RunJournal::close()
{
    if (file) {
        std::fclose(file);
        file = nullptr;
    }
}

} // namespace gaas::core
