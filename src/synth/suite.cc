#include "suite.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gaas::synth
{

namespace
{

/** Helper to build one spec with the fields every entry sets. */
BenchmarkSpec
makeSpec(const char *name, const char *desc, Lang lang,
         ArithClass arith, double paper_minstr, double load_frac,
         double store_frac, double syscalls_per_minstr,
         double base_cpi, std::uint64_t seed)
{
    BenchmarkSpec s;
    s.name = name;
    s.description = desc;
    s.lang = lang;
    s.arith = arith;
    s.paperInstructionsM = paper_minstr;
    s.loadFrac = load_frac;
    s.storeFrac = store_frac;
    s.syscallsPerMInstr = syscalls_per_minstr;
    s.baseCpi = base_cpi;
    s.seed = seed;
    return s;
}

std::vector<BenchmarkSpec>
buildSuite()
{
    std::vector<BenchmarkSpec> suite;
    suite.reserve(kSuiteSize);

    // ---- The default level-8 workload ------------------------------
    // Store fractions average 0.0725 and base CPIs average 1.238
    // across these eight (see suite.hh).

    {
        // espresso: PLA minimiser; pointer-heavy integer C code.
        auto s = makeSpec("espresso", "boolean function minimizer",
                          Lang::C, ArithClass::Integer, 135, 0.200,
                          0.060, 1.0, 1.10, 101);
        s.code.codeWords = 64 * 1024;
        s.code.procCount = 48;
        s.code.jumpProb = 0.055;
        s.data.heapWords = 256 * 1024;
        s.data.heapAlpha = 0.78;
        s.data.arraySegRepeats = 12;
        s.data.arrayCount = 2;
        s.data.arrayWords = 32 * 1024;
        s.data.loadStackFrac = 0.22;
        s.data.loadGlobalFrac = 0.16;
        s.data.loadArrayFrac = 0.12;
        s.data.storeStackFrac = 0.62;
        s.data.storeGlobalFrac = 0.18;
        s.data.storeArrayFrac = 0.08;
        suite.push_back(std::move(s));
    }
    {
        // doduc: Monte-Carlo nuclear reactor kernel; double FP.
        auto s = makeSpec("doduc", "nuclear reactor simulation",
                          Lang::Fortran, ArithClass::DoubleFloat, 284,
                          0.230, 0.080, 0.5, 1.36, 102);
        s.code.codeWords = 64 * 1024;
        s.code.procCount = 96;
        s.code.jumpProb = 0.065;
        s.code.meanLoopIters = 6.0;
        s.data.heapWords = 192 * 1024;
        s.data.heapAlpha = 0.82;
        s.data.arraySegRepeats = 40;
        s.data.arraySegWords = 256;
        s.data.arrayCount = 6;
        s.data.arrayWords = 48 * 1024;
        s.data.loadArrayFrac = 0.30;
        s.data.loadStackFrac = 0.20;
        s.data.loadGlobalFrac = 0.15;
        s.data.storeStackFrac = 0.55;
        s.data.storeGlobalFrac = 0.15;
        s.data.storeArrayFrac = 0.25;
        suite.push_back(std::move(s));
    }
    {
        // xlisp: lisp interpreter running the 8-queens problem.
        auto s = makeSpec("xlisp", "lisp interpreter (8 queens)",
                          Lang::C, ArithClass::Integer, 141, 0.240,
                          0.095, 4.0, 1.14, 103);
        s.code.codeWords = 48 * 1024;
        s.code.procCount = 40;
        s.code.jumpProb = 0.090;
        s.data.heapWords = 384 * 1024;
        s.data.heapAlpha = 0.75;
        s.data.arrayCount = 0;
        s.data.loadStackFrac = 0.28;
        s.data.loadGlobalFrac = 0.14;
        s.data.loadArrayFrac = 0.0;
        s.data.storeStackFrac = 0.68;
        s.data.storeGlobalFrac = 0.12;
        s.data.storeArrayFrac = 0.0;
        suite.push_back(std::move(s));
    }
    {
        // matrix300: dense 300x300 matrix multiplies; streaming FP.
        auto s = makeSpec("matrix300", "dense matrix multiply",
                          Lang::Fortran, ArithClass::DoubleFloat, 301,
                          0.260, 0.055, 0.2, 1.40, 104);
        s.code.codeWords = 4 * 1024;
        s.code.procCount = 8;
        s.code.jumpProb = 0.0012;
        s.code.meanLoopIters = 64.0;
        s.code.loopProb = 0.40;
        s.data.heapWords = 4 * 1024;
        s.data.arrayCount = 3;
        s.data.arrayWords = 180 * 1024; // three 300x300 doubles
        s.data.arrayStrideWords = 2;    // double-word elements
        s.data.arraySegWords = 304;     // half a 300-double row
        s.data.arraySegRepeats = 150;
        s.data.loadArrayFrac = 0.72;
        s.data.loadStackFrac = 0.10;
        s.data.loadGlobalFrac = 0.08;
        s.data.storeArrayFrac = 0.55;
        s.data.storeStackFrac = 0.36;
        s.data.storeGlobalFrac = 0.08;
        suite.push_back(std::move(s));
    }
    {
        // eqntott: boolean equation to truth table; integer C.
        auto s = makeSpec("eqntott", "truth table generator", Lang::C,
                          ArithClass::Integer, 180, 0.170, 0.050, 1.0,
                          1.08, 105);
        s.code.codeWords = 40 * 1024;
        s.code.procCount = 24;
        s.code.jumpProb = 0.038;
        s.data.heapWords = 256 * 1024;
        s.data.heapAlpha = 0.82;
        s.data.arraySegRepeats = 32;
        s.data.arrayCount = 2;
        s.data.arrayWords = 96 * 1024;
        s.data.loadArrayFrac = 0.30;
        s.data.loadStackFrac = 0.20;
        s.data.loadGlobalFrac = 0.12;
        s.data.storeStackFrac = 0.62;
        s.data.storeGlobalFrac = 0.15;
        s.data.storeArrayFrac = 0.12;
        suite.push_back(std::move(s));
    }
    {
        // tomcatv: vectorised mesh generation; single-precision FP.
        auto s = makeSpec("tomcatv", "vectorized mesh generation",
                          Lang::Fortran, ArithClass::SingleFloat, 259,
                          0.250, 0.075, 0.3, 1.33, 106);
        s.code.codeWords = 3 * 1024;
        s.code.procCount = 6;
        s.code.jumpProb = 0.0012;
        s.code.meanLoopIters = 48.0;
        s.code.loopProb = 0.40;
        s.data.heapWords = 4 * 1024;
        s.data.arraySegWords = 256;     // one 257-single row
        s.data.arraySegRepeats = 80;
        s.data.arrayCount = 7;
        s.data.arrayWords = 66 * 1024; // seven 257x257 singles
        s.data.loadArrayFrac = 0.68;
        s.data.loadStackFrac = 0.10;
        s.data.loadGlobalFrac = 0.10;
        s.data.storeArrayFrac = 0.50;
        s.data.storeStackFrac = 0.40;
        s.data.storeGlobalFrac = 0.10;
        suite.push_back(std::move(s));
    }
    {
        // gcc1: the GNU C compiler compiling its own source.
        auto s = makeSpec("gcc1", "GNU C compiler pass 1", Lang::C,
                          ArithClass::Integer, 122, 0.220, 0.095, 8.0,
                          1.16, 107);
        s.code.codeWords = 128 * 1024;
        s.code.procCount = 160;
        s.code.jumpProb = 0.090;
        s.code.callProb = 0.22;
        s.code.meanLoopIters = 3.0;
        s.code.callZipfAlpha = 0.35;
        s.data.heapWords = 512 * 1024;
        s.data.heapAlpha = 0.82;
        s.data.arrayCount = 0;
        s.data.loadStackFrac = 0.26;
        s.data.loadGlobalFrac = 0.14;
        s.data.loadArrayFrac = 0.0;
        s.data.storeStackFrac = 0.64;
        s.data.storeGlobalFrac = 0.14;
        s.data.storeArrayFrac = 0.0;
        suite.push_back(std::move(s));
    }
    {
        // nasa7: seven NASA Ames FP kernels (FFT, matrix, ...).
        auto s = makeSpec("nasa7", "NASA Ames FP kernels",
                          Lang::Fortran, ArithClass::DoubleFloat, 388,
                          0.240, 0.070, 0.5, 1.33, 108);
        s.code.codeWords = 8 * 1024;
        s.code.procCount = 14;
        s.code.jumpProb = 0.004;
        s.code.meanLoopIters = 32.0;
        s.code.loopProb = 0.35;
        s.data.heapWords = 8 * 1024;
        s.data.arrayCount = 6;
        s.data.arrayWords = 96 * 1024;
        s.data.arrayStrideWords = 2;
        s.data.arraySegWords = 384;
        s.data.arraySegRepeats = 72;
        s.data.loadArrayFrac = 0.62;
        s.data.loadStackFrac = 0.12;
        s.data.loadGlobalFrac = 0.10;
        s.data.storeArrayFrac = 0.48;
        s.data.storeStackFrac = 0.40;
        s.data.storeGlobalFrac = 0.12;
        suite.push_back(std::move(s));
    }

    // ---- Benchmarks 9..16 (used at multiprogramming level 16) ------

    {
        auto s = makeSpec("spice2g6", "analog circuit simulator",
                          Lang::Fortran, ArithClass::DoubleFloat, 233,
                          0.220, 0.065, 1.0, 1.30, 109);
        s.code.codeWords = 64 * 1024;
        s.code.procCount = 72;
        s.code.jumpProb = 0.055;
        s.data.heapWords = 384 * 1024;
        s.data.heapAlpha = 0.78;
        s.data.arraySegWords = 256;
        s.data.arraySegRepeats = 12;
        s.data.arrayCount = 4;
        s.data.arrayWords = 64 * 1024;
        s.data.loadArrayFrac = 0.22;
        s.data.storeArrayFrac = 0.18;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("fpppp", "quantum chemistry two-electron "
                          "integrals", Lang::Fortran,
                          ArithClass::DoubleFloat, 244, 0.270, 0.090,
                          0.3, 1.45, 110);
        s.code.codeWords = 20 * 1024;
        s.code.procCount = 10;
        s.code.jumpProb = 0.004;
        s.code.meanRunLen = 24.0; // famously huge basic blocks
        s.code.meanLoopIters = 16.0;
        s.data.heapWords = 32 * 1024;
        s.data.arraySegWords = 512;
        s.data.arraySegRepeats = 30;
        s.data.arrayCount = 6;
        s.data.arrayWords = 80 * 1024;
        s.data.arrayStrideWords = 2;
        s.data.loadArrayFrac = 0.55;
        s.data.storeArrayFrac = 0.40;
        s.data.storeStackFrac = 0.40;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("linpack", "linear algebra (DAXPY loops)",
                          Lang::Fortran, ArithClass::SingleFloat, 72,
                          0.280, 0.085, 0.5, 1.35, 111);
        s.code.codeWords = 2 * 1024;
        s.code.procCount = 4;
        s.code.meanLoopIters = 100.0;
        s.code.loopProb = 0.45;
        s.data.heapWords = 8 * 1024;
        s.data.arraySegWords = 256;
        s.data.arraySegRepeats = 64;
        s.data.arrayCount = 2;
        s.data.arrayWords = 100 * 1024;
        s.data.loadStackFrac = 0.10;
        s.data.loadGlobalFrac = 0.08;
        s.data.loadArrayFrac = 0.75;
        s.data.storeArrayFrac = 0.60;
        s.data.storeStackFrac = 0.25;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("whetstone", "classic synthetic FP mix",
                          Lang::Fortran, ArithClass::SingleFloat, 39,
                          0.210, 0.070, 0.5, 1.28, 112);
        s.code.codeWords = 3 * 1024;
        s.code.procCount = 12;
        s.data.heapWords = 4 * 1024;
        s.data.arrayCount = 2;
        s.data.arrayWords = 2 * 1024;
        s.data.loadArrayFrac = 0.30;
        s.data.storeArrayFrac = 0.20;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("livermore", "Livermore FORTRAN kernels",
                          Lang::Fortran, ArithClass::SingleFloat, 58,
                          0.260, 0.080, 0.3, 1.32, 113);
        s.code.codeWords = 4 * 1024;
        s.code.procCount = 24;
        s.code.meanLoopIters = 40.0;
        s.code.loopProb = 0.40;
        s.data.heapWords = 8 * 1024;
        s.data.arraySegWords = 256;
        s.data.arraySegRepeats = 24;
        s.data.arrayCount = 6;
        s.data.arrayWords = 24 * 1024;
        s.data.loadStackFrac = 0.15;
        s.data.loadGlobalFrac = 0.10;
        s.data.loadArrayFrac = 0.65;
        s.data.storeArrayFrac = 0.50;
        s.data.storeStackFrac = 0.30;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("yacc", "LALR parser generator", Lang::C,
                          ArithClass::Integer, 27, 0.190, 0.075, 6.0,
                          1.12, 114);
        s.code.codeWords = 10 * 1024;
        s.code.procCount = 20;
        s.code.jumpProb = 0.020;
        s.data.heapWords = 256 * 1024;
        s.data.heapAlpha = 1.0;
        s.data.arrayCount = 2;
        s.data.arrayWords = 48 * 1024;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("nroff", "text formatter", Lang::C,
                          ArithClass::Integer, 14, 0.180, 0.085, 12.0,
                          1.10, 115);
        s.code.codeWords = 14 * 1024;
        s.code.procCount = 28;
        s.code.jumpProb = 0.025;
        s.data.heapWords = 128 * 1024;
        s.data.heapAlpha = 1.1;
        s.data.arrayCount = 1;
        s.data.arrayWords = 16 * 1024;
        suite.push_back(std::move(s));
    }
    {
        auto s = makeSpec("simple", "2-D hydrodynamics kernel",
                          Lang::Fortran, ArithClass::DoubleFloat, 81,
                          0.250, 0.080, 0.3, 1.34, 116);
        s.code.codeWords = 6 * 1024;
        s.code.procCount = 10;
        s.code.meanLoopIters = 32.0;
        s.code.loopProb = 0.38;
        s.data.heapWords = 16 * 1024;
        s.data.arraySegWords = 512;
        s.data.arraySegRepeats = 24;
        s.data.arrayCount = 5;
        s.data.arrayWords = 128 * 1024;
        s.data.arrayStrideWords = 2;
        s.data.loadArrayFrac = 0.60;
        s.data.storeArrayFrac = 0.45;
        s.data.storeStackFrac = 0.35;
        suite.push_back(std::move(s));
    }

    return suite;
}

} // namespace

const std::vector<BenchmarkSpec> &
defaultSuite()
{
    static const std::vector<BenchmarkSpec> suite = buildSuite();
    return suite;
}

std::vector<BenchmarkSpec>
workloadSpecs(unsigned mp_level)
{
    const auto &suite = defaultSuite();
    if (mp_level == 0 || mp_level > suite.size()) {
        gaas_fatal("multiprogramming level must be 1..", suite.size(),
                   ", got ", mp_level);
    }
    return {suite.begin(), suite.begin() + mp_level};
}

std::vector<double>
instructionShares(const std::vector<BenchmarkSpec> &specs)
{
    double invSum = 0.0;
    for (const auto &s : specs)
        invSum += 1.0 / s.baseCpi;
    std::vector<double> shares;
    shares.reserve(specs.size());
    for (const auto &s : specs)
        shares.push_back((1.0 / s.baseCpi) / invSum);
    return shares;
}

void
scaleSuite(std::vector<BenchmarkSpec> &specs, double factor)
{
    if (factor <= 0.0)
        gaas_fatal("suite scale factor must be positive");
    for (auto &spec : specs) {
        const double scaled =
            static_cast<double>(spec.simInstructions) * factor;
        spec.simInstructions =
            std::max<Count>(static_cast<Count>(scaled), 1000);
    }
}

} // namespace gaas::synth
