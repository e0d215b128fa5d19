/**
 * @file
 * Bit-manipulation helpers used by the cache index/tag logic, the
 * page-colouring allocator, and the TLB, plus the little-endian
 * load/store pair every on-disk and on-pipe integer goes through.
 */

#ifndef GAAS_UTIL_BITOPS_HH
#define GAAS_UTIL_BITOPS_HH

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace gaas
{

/** @return true if @p v is a (nonzero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** @return ceil(log2(v)); v must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** @return a mask with the low @p nbits bits set. */
constexpr std::uint64_t
mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << nbits) - 1;
}

/** Extract bits [first, first + nbits) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned first, unsigned nbits)
{
    return (v >> first) & mask(nbits);
}

/** Round @p v up to the next multiple of power-of-two @p align. */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Integer division rounding up. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Store @p v at @p dst as sizeof(T) little-endian bytes, whatever
 * the host's byte order.  T is never deduced, so every call site
 * names the width it writes.
 */
template <std::unsigned_integral T>
inline void
storeLE(void *dst, std::type_identity_t<T> v)
{
    auto *p = static_cast<unsigned char *>(dst);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

/** @return the sizeof(T) little-endian bytes at @p src. */
template <std::unsigned_integral T>
inline T
loadLE(const void *src)
{
    const auto *p = static_cast<const unsigned char *>(src);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

} // namespace gaas

#endif // GAAS_UTIL_BITOPS_HH
