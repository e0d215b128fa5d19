/**
 * @file
 * The multiprogramming benchmark suite (the paper's Table 1).
 *
 * The paper's workload is the MIPS performance-brief suite: "a variety
 * of C and FORTRAN programs" (integer, single- and double-precision
 * float) totalling ~2.5 billion references.  Table 1's rows in the
 * available scan are unreadable, so this suite recreates a plausible
 * MIPS-era mix with per-benchmark parameters calibrated to the
 * quantities the paper states in its text:
 *
 *  - workload-wide store fraction = 0.0725 of instructions (Sec. 6);
 *  - CPU-stall floor = 1.238 CPI (Sec. 4);
 *  - ~310k cycles between context switches when syscall switches are
 *    included at a 500k time slice (Sec. 3);
 *  - L1 write hit rate ~98% for a 4KW write-allocate D-cache (Sec. 6);
 *  - L2 miss ratios in the Table-2 band across 16KW..1024KW.
 */

#ifndef GAAS_SYNTH_SUITE_HH
#define GAAS_SYNTH_SUITE_HH

#include <vector>

#include "synth/benchmark.hh"

namespace gaas::synth
{

/** Number of benchmarks in the default suite. */
inline constexpr unsigned kSuiteSize = 16;

/**
 * The full 16-benchmark suite in scheduling order.  The first 8, in
 * order, form the default multiprogramming level-8 workload; level-16
 * runs use all of them.
 */
const std::vector<BenchmarkSpec> &defaultSuite();

/**
 * The specs for a multiprogramming level of @p mp_level (1..16):
 * the first @p mp_level entries of the suite.
 */
std::vector<BenchmarkSpec> workloadSpecs(unsigned mp_level);

/**
 * Each process's share of the instructions a workload of @p specs
 * executes.  The scheduler is cycle-driven round robin, so a share
 * is proportional to the process's speed:
 * (1 / baseCpi) / sum over all processes of (1 / baseCpi).
 */
std::vector<double>
instructionShares(const std::vector<BenchmarkSpec> &specs);

/**
 * Multiply every benchmark's simInstructions by @p factor (used by
 * quick-look tooling and by tests that want tiny runs).
 */
void scaleSuite(std::vector<BenchmarkSpec> &specs, double factor);

} // namespace gaas::synth

#endif // GAAS_SYNTH_SUITE_HH
