/**
 * @file
 * Streaming FNV-1a hashes, shared by the resume journal (64-bit job
 * keys) and the trace v3 format (32-bit block checksums, 64-bit
 * content digests).
 *
 * FNV-1a is not cryptographic; it is a fast, dependency-free
 * integrity check against torn writes and bit rot, with a stable
 * definition we can pin in golden tests.  Both widths use the
 * standard offset basis and prime.
 */

#ifndef GAAS_UTIL_HASH_HH
#define GAAS_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gaas::util
{

/** 64-bit FNV-1a, the streaming flavour. */
class Fnv1a
{
  public:
    void
    feed(std::string_view text)
    {
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ull;
        }
    }

    void
    feedBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= bytes[i];
            hash *= 0x100000001b3ull;
        }
    }

    void
    feedNumber(std::uint64_t v)
    {
        feed(std::to_string(v));
        feed("|");
    }

    std::uint64_t value() const { return hash; }

    std::string
    hex() const
    {
        constexpr char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        for (int i = 0; i < 16; ++i)
            out[i] = digits[(hash >> (60 - 4 * i)) & 0xf];
        return out;
    }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ull;
};

/** The 32-bit FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint32_t kFnv1a32Basis = 0x811c9dc5u;

/** 32-bit FNV-1a over @p size bytes at @p data, continuing @p hash:
 *  feeding a byte string in pieces gives the hash of the whole. */
inline std::uint32_t
fnv1a32(const void *data, std::size_t size,
        std::uint32_t hash = kFnv1a32Basis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x01000193u;
    }
    return hash;
}

} // namespace gaas::util

#endif // GAAS_UTIL_HASH_HH
