#include "distribution.hh"

#include <cmath>

namespace gaas::stats
{

double
SampleStat::stddev() const
{
    return std::sqrt(variance());
}

double
SampleStat::stdError() const
{
    return n > 1
               ? std::sqrt(sampleVariance() / static_cast<double>(n))
               : 0.0;
}

void
SampleStat::merge(const SampleStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(n + other.n);
    const double delta = other.mu - mu;
    const double new_mu =
        mu + delta * static_cast<double>(other.n) / total;
    m2 = m2 + other.m2 +
         delta * delta * static_cast<double>(n) *
             static_cast<double>(other.n) / total;
    mu = new_mu;
    n += other.n;
    if (other.lo < lo)
        lo = other.lo;
    if (other.hi > hi)
        hi = other.hi;
}

} // namespace gaas::stats
