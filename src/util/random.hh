/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload generator.
 *
 * Reproducibility is a hard requirement: every figure in
 * EXPERIMENTS.md must regenerate bit-identically from a fixed seed, so
 * the generator is a self-contained xoshiro256** implementation (we do
 * not rely on std::mt19937 distribution objects, whose outputs are not
 * pinned down by the standard).
 */

#ifndef GAAS_UTIL_RANDOM_HH
#define GAAS_UTIL_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

namespace gaas
{

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Passes BigCrush; period 2^256 - 1; each instance is seeded from a
 * single 64-bit value so benchmark specs can carry one seed.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** @return the next raw 64-bit draw. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** @return a uniform draw in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextRange(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        nextBounded(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** @return a uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool
    nextBernoulli(double p)
    {
        return nextDouble() < p;
    }

    /**
     * Pick an index from a small table of cumulative weights
     * (cumulative[i] is the inclusive upper edge of class i, with
     * cumulative.back() == 1.0).
     */
    unsigned pickCumulative(std::span<const double> cumulative);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state;
};

/**
 * Integer threshold t such that, for k = next64() >> 11,
 * (k < t) == (nextDouble() < p) for every possible draw.
 *
 * nextDouble() returns k * 2^-53 with k < 2^53, both exact, so
 * u < p iff k < p * 2^53 (as reals).  p * 2^53 is an exact double
 * (power-of-two scaling), and comparing the integer k against its
 * ceiling is equivalent whether or not it is itself an integer.
 * Lets a hot loop replace a bernoulli draw's int-to-double
 * conversion and double compare with one integer compare while
 * consuming identical PRNG state.
 */
inline std::uint64_t
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    const double scaled = p * 0x1.0p53;
    if (scaled >= 0x1.0p53)
        return 1ull << 53; // always true: every k is below 2^53
    return static_cast<std::uint64_t>(std::ceil(scaled));
}

/**
 * Bounded Pareto-tail sampler over [0, bound): each draw is an index
 * whose probability decays as a power law with shape alpha.
 *
 * This is the workhorse of the data-reference model: drawing a
 * "line popularity rank" from a heavy-tailed distribution gives
 * address streams whose miss ratio keeps improving with cache size
 * over several orders of magnitude -- the behaviour Table 2 of the
 * paper shows for the L2 sweep.  Smaller alpha = heavier tail = a
 * larger working set.  The bound^-alpha tail term (a std::pow) and
 * the -1/alpha exponent depend only on the distribution, so they are
 * computed once here rather than per draw: the data model draws from
 * a handful of fixed (alpha, bound) pairs millions of times per
 * simulation.
 */
class ParetoSampler
{
  public:
    ParetoSampler() = default;

    ParetoSampler(double alpha_, std::uint64_t bound_)
        : alpha(alpha_), bound(bound_)
    {
        if (alpha > 0.0 && bound > 1) {
            tail = std::pow(static_cast<double>(bound), -alpha);
            negInvAlpha = -1.0 / alpha;
        }
    }

    /** One draw: one nextDouble(), or one nextBounded(bound) for
     *  alpha <= 0 (uniform), or none for bound 1. */
    std::uint64_t draw(Rng &rng) const;

  private:
    double alpha = 0.0;
    std::uint64_t bound = 0;
    double tail = 0.0;
    double negInvAlpha = 0.0;
};

/**
 * Geometric sampler with a fixed mean (support {1, 2, ...}): P(X = k)
 * = (1-p)^(k-1) p with p = 1/mean, drawn by inverse transform.  The
 * code model draws basic-block lengths and loop trip counts from it,
 * geometrically distributed around the per-benchmark average.  The
 * log1p(-1/mean) denominator is computed once.
 */
class GeometricSampler
{
  public:
    GeometricSampler() = default;

    explicit GeometricSampler(double mean_) : mean(mean_)
    {
        if (mean > 1.0)
            denom = std::log1p(-(1.0 / mean));
    }

    /** One draw: one nextDouble(), or none for a mean <= 1. */
    std::uint64_t
    draw(Rng &rng) const
    {
        if (mean <= 1.0)
            return 1;
        double u = rng.nextDouble();
        // Guard against log(0).
        if (u >= 1.0)
            u = 0x1.fffffffffffffp-1;
        double k = std::floor(std::log1p(-u) / denom) + 1.0;
        if (k < 1.0)
            k = 1.0;
        // Clamp to a sane upper bound so pathological draws cannot
        // wedge a trace generator loop.
        if (k > 1e12)
            k = 1e12;
        return static_cast<std::uint64_t>(k);
    }

  private:
    double mean = 0.0;
    double denom = -1.0;
};

/**
 * Bresenham-style accumulator that converts a fractional per-event
 * cost into a deterministic integer sequence.
 *
 * The CPU-stall component of CPI (loads, branch delays, multi-cycle
 * FP ops) averages 0.238 cycles per instruction in the paper's base
 * machine.  Instead of accumulating a float (whose rounding would make
 * cycle counts depend on summation order) each instruction charges
 * either floor(rate) or floor(rate)+1 cycles such that the long-run
 * average is exactly @p rate.
 */
class FractionAccumulator
{
  public:
    /** @param rate average cycles per event; must be >= 0. */
    explicit FractionAccumulator(double rate = 0.0) { setRate(rate); }

    /** Change the per-event rate (resets the residue). */
    void
    setRate(double rate)
    {
        whole = static_cast<std::uint64_t>(rate);
        // Fixed-point residue in units of 2^-32.
        frac = static_cast<std::uint64_t>(
            (rate - static_cast<double>(whole)) * 4294967296.0);
        residue = 0;
    }

    /** Charge one event; @return the integer cycles for this event. */
    std::uint64_t
    tick()
    {
        residue += frac;
        std::uint64_t carry = residue >> 32;
        residue &= 0xffffffffull;
        return whole + carry;
    }

    /** Reset the fractional residue (e.g. at a measurement boundary). */
    void
    reset()
    {
        residue = 0;
    }

  private:
    std::uint64_t whole = 0;
    std::uint64_t frac = 0;     //!< fractional part, Q32
    std::uint64_t residue = 0;  //!< running residue, Q32
};

} // namespace gaas

#endif // GAAS_UTIL_RANDOM_HH
