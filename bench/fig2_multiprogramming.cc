/**
 * @file
 * Figure 2: the effect of multiprogramming level on cache
 * performance (500k-cycle time slice).
 *
 * The paper's findings: the L1-I miss ratio does not change with the
 * multiprogramming level, the L1-D miss ratio changes by only ~2%,
 * the L2 miss ratio changes by ~70% (of a very small number), and
 * CPI degrades only slightly; performance is essentially unaffected
 * beyond level 8.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/config.hh"

int
main(int argc, char **argv)
{
    using namespace gaas;
    bench::init(argc, argv);
    bench::banner("Fig. 2", "effect of multiprogramming level on "
                            "cache performance");

    stats::Table t({"MP level", "L1-I miss ratio", "L1-D miss ratio",
                    "L2 miss ratio", "CPI"});
    t.setTitle("Base architecture, 500k-cycle time slice "
               "(level n runs the first n suite benchmarks, so the "
               "instruction mix shifts with n)");

    const unsigned levels[] = {1u, 2u, 4u, 8u, 16u};
    bench::Sweep sweep;
    for (unsigned mp : levels)
        sweep.add(core::baseline(), mp);
    const auto results = sweep.run();

    double l2_first = 0.0, l2_last = 0.0;
    double l1i_first = 0.0, l1i_last = 0.0;
    std::size_t job = 0;
    for (unsigned mp : levels) {
        const auto &out = results[job++];
        const auto &res = out.result;
        const auto &s = res.sys;
        const double instr = static_cast<double>(res.instructions);
        const double l1i = static_cast<double>(s.l1iMisses) / instr;
        const double l1d =
            static_cast<double>(s.l1dReadMisses + s.l1dWriteMisses) /
            instr;
        const double l2 = s.l2MissRatio();
        if (mp == 1) {
            l2_first = l2;
            l1i_first = l1i;
        }
        l2_last = l2;
        l1i_last = l1i;
        t.newRow()
            .cell(static_cast<std::uint64_t>(mp))
            .cell(bench::cell(out, l1i, 4))
            .cell(bench::cell(out, l1d, 4))
            .cell(bench::cell(out, l2, 4))
            .cell(bench::cell(out, res.cpi(), 4));
    }
    bench::emit(t, "fig2_multiprogramming");

    std::cout << "L1-I miss ratio change 1 -> 16: "
              << (l1i_first > 0
                      ? 100.0 * (l1i_last - l1i_first) / l1i_first
                      : 0.0)
              << "%  (paper: ~0%)\n"
              << "L2 miss ratio change 1 -> 16:   "
              << (l2_first > 0
                      ? 100.0 * (l2_last - l2_first) / l2_first
                      : 0.0)
              << "%  (paper: ~70%, of a very small number)\n";
    return bench::exitCode();
}
