/**
 * @file
 * Scalar sample statistics: the running moments sampled simulation
 * (core/sampling) estimates CPI and its confidence interval from.
 */

#ifndef GAAS_STATS_DISTRIBUTION_HH
#define GAAS_STATS_DISTRIBUTION_HH

#include <cstdint>
#include <limits>

namespace gaas::stats
{

/**
 * Running mean / variance / extrema of a scalar sample stream
 * (Welford's online algorithm, numerically stable).
 */
class SampleStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n;
        const double delta = x - mu;
        mu += delta / static_cast<double>(n);
        m2 += delta * (x - mu);
        if (x < lo)
            lo = x;
        if (x > hi)
            hi = x;
    }

    std::uint64_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }

    /** Population variance (divides by n).  Feeds the dumped .stddev
     *  metric keys; inference uses sampleVariance()/stdError(). */
    double
    variance() const
    {
        return n ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Unbiased sample variance (divides by n - 1; 0 for n < 2).
     *  This is the estimator confidence-interval math must use. */
    double
    sampleVariance() const
    {
        return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
    }

    /** Standard error of the mean, sqrt(sampleVariance / n)
     *  (0 for n < 2). */
    double stdError() const;

    double stddev() const;
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }

    /** Merge another sample set into this one. */
    void merge(const SampleStat &other);

    /** Discard all samples. */
    void reset() { *this = SampleStat{}; }

  private:
    std::uint64_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
};

} // namespace gaas::stats

#endif // GAAS_STATS_DISTRIBUTION_HH
