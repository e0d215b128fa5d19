#include "random.hh"

#include "logging.hh"

namespace gaas
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
    // xoshiro must not be seeded with the all-zero state.
    if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0)
        state[0] = 1;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        gaas_panic("Rng::nextBounded called with bound 0");
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = next64();
    unsigned __int128 m =
        static_cast<unsigned __int128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = (0 - bound) % bound;
        while (lo < threshold) {
            x = next64();
            m = static_cast<unsigned __int128>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
ParetoSampler::draw(Rng &rng) const
{
    if (bound == 0)
        gaas_panic("ParetoSampler::draw with bound 0");
    if (bound == 1)
        return 0;
    if (alpha <= 0.0)
        return rng.nextBounded(bound);
    // Inverse-transform a truncated Pareto over [1, bound + 1):
    //   x = (1 - u (1 - B^-alpha))^(-1/alpha), index = floor(x) - 1.
    double u = rng.nextDouble();
    double x = std::pow(1.0 - u * (1.0 - tail), negInvAlpha);
    auto idx = static_cast<std::uint64_t>(x) - 1;
    if (idx >= bound)
        idx = bound - 1;
    return idx;
}

unsigned
Rng::pickCumulative(std::span<const double> cumulative)
{
    const double u = nextDouble();
    for (unsigned i = 0; i < cumulative.size(); ++i) {
        if (u < cumulative[i])
            return i;
    }
    return static_cast<unsigned>(cumulative.size()) - 1;
}

} // namespace gaas
