/**
 * @file
 * 64-bit file positioning, positional reads and hardened file
 * writes over std::FILE.
 *
 * std::fseek/std::ftell take a `long` offset, which is 32 bits on
 * LP32 targets, so any stdio seek breaks past 2 GiB there -- exactly
 * the regime long trace files live in.  These wrappers route to
 * fseeko/ftello with a 64-bit off_t so callers never touch `long`.
 *
 * The write-side helpers carry the robustness contract of the result
 * files: writeBytes/flushAndSync are the fallible primitives (with
 * `file-write` / `file-flush` fault-injection points, see
 * util/fault.hh), writeFileAtomic publishes a whole file via
 * temp-file + rename so a crash can never leave a torn result, and
 * writeFileAtomicRetry adds bounded-backoff retries for transient
 * failures.
 */

#ifndef GAAS_UTIL_FILE_IO_HH
#define GAAS_UTIL_FILE_IO_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gaas::util
{

/** Seek to absolute byte @p offset; @return true on success. */
bool seekTo(std::FILE *file, std::uint64_t offset);

/**
 * @return total file size in bytes (by seeking to the end), or -1 on
 * error.  The current position is restored before returning.
 */
std::int64_t fileSizeBytes(std::FILE *file);

/**
 * Read exactly @p size bytes at absolute byte @p offset of @p file's
 * descriptor (pread), leaving the stream's position and buffer
 * alone, so several threads may read one open file at once.
 * @return true on a complete read.
 */
bool readAt(std::FILE *file, std::uint64_t offset, void *data,
            std::size_t size);

/**
 * Write @p size bytes from @p data to @p file.
 *
 * Fault-injection point `file-write`.  @return true on a complete
 * write.
 */
bool writeBytes(std::FILE *file, const void *data, std::size_t size);

/**
 * Flush stdio buffers and fsync the underlying descriptor, so the
 * bytes survive a process kill (journal records rely on this).
 *
 * Fault-injection point `file-flush`.  @return true on success.
 */
bool flushAndSync(std::FILE *file);

/**
 * Atomically publish @p content as @p path: write to `path.tmp`,
 * flush + fsync, then rename over @p path.  Readers never observe a
 * torn file -- they see the old content or the new, nothing between.
 * The temp file is removed on failure.
 *
 * @param error if non-null, receives a description of the first
 *        failing step
 * @return true on success
 */
bool writeFileAtomic(const std::string &path,
                     std::string_view content,
                     std::string *error = nullptr);

/**
 * writeFileAtomic with up to @p attempts tries, sleeping briefly
 * (1 ms, 2 ms, ... -- bounded) between them; transient failures
 * (a momentarily full or contended filesystem, an injected fault)
 * are retried, persistent ones give up loudly via @p error.
 */
bool writeFileAtomicRetry(const std::string &path,
                          std::string_view content,
                          std::string *error = nullptr,
                          unsigned attempts = 3);

} // namespace gaas::util

#endif // GAAS_UTIL_FILE_IO_HH
