#include "file_io.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "util/fault.hh"

namespace gaas::util
{

// off_t is 64-bit on every modern POSIX libc (glibc/musl/BSD default
// to 64-bit file offsets on LP64, and LP32 builds get it via
// _FILE_OFFSET_BITS=64).
static_assert(sizeof(off_t) >= 8,
              "off_t must be 64-bit; compile with _FILE_OFFSET_BITS=64");

bool
seekTo(std::FILE *file, std::uint64_t offset)
{
    return ::fseeko(file, static_cast<off_t>(offset), SEEK_SET) == 0;
}

std::int64_t
fileSizeBytes(std::FILE *file)
{
    const off_t here = ::ftello(file);
    if (here < 0)
        return -1;
    if (::fseeko(file, 0, SEEK_END) != 0)
        return -1;
    const off_t size = ::ftello(file);
    // Restore the caller's position even if the end-seek told us
    // nothing useful.
    if (::fseeko(file, here, SEEK_SET) != 0)
        return -1;
    return size;
}

bool
readAt(std::FILE *file, std::uint64_t offset, void *data,
       std::size_t size)
{
    const int fd = ::fileno(file);
    auto *out = static_cast<unsigned char *>(data);
    while (size > 0) {
        const ssize_t got =
            ::pread(fd, out, size, static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        const auto n = static_cast<std::size_t>(got);
        out += n;
        size -= n;
        offset += n;
    }
    return true;
}

bool
writeBytes(std::FILE *file, const void *data, std::size_t size)
{
    if (fault::shouldFail("file-write"))
        return false;
    return std::fwrite(data, 1, size, file) == size;
}

bool
flushAndSync(std::FILE *file)
{
    if (fault::shouldFail("file-flush"))
        return false;
    if (std::fflush(file) != 0)
        return false;
    return ::fsync(::fileno(file)) == 0;
}

bool
writeFileAtomic(const std::string &path, std::string_view content,
                std::string *error)
{
    auto fail = [&](const char *step) {
        if (error) {
            *error = std::string(step) + " failed for " + path +
                     " (" + std::strerror(errno) + ")";
        }
        return false;
    };

    const std::string tmp = path + ".tmp";
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file)
        return fail("open");
    const bool written =
        writeBytes(file, content.data(), content.size()) &&
        flushAndSync(file);
    const bool closed = std::fclose(file) == 0;
    if (!written || !closed) {
        std::remove(tmp.c_str());
        return fail(written ? "close" : "write");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail("rename");
    }
    return true;
}

bool
writeFileAtomicRetry(const std::string &path,
                     std::string_view content, std::string *error,
                     unsigned attempts)
{
    for (unsigned attempt = 1;; ++attempt) {
        if (writeFileAtomic(path, content, error))
            return true;
        if (attempt >= attempts)
            return false;
        // Bounded backoff: 1 ms, 2 ms, 3 ms...; a handful of
        // milliseconds total even at the attempt cap, so a sweep
        // point can never hang on a dead filesystem.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(attempt));
    }
}

} // namespace gaas::util
