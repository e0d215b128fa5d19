/**
 * @file
 * Figure 3: the effect of the context-switch interval on cache
 * performance (multiprogramming level 8).
 *
 * The paper sweeps the time slice from ~10k to ~10M cycles and shows
 * performance improving markedly with longer slices (more
 * opportunity to reuse lines brought into the caches); it settles on
 * 500k cycles as a realistic compromise, which together with syscall
 * switches yields an average of ~310k cycles between switches.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"
#include "core/config.hh"

int
main(int argc, char **argv)
{
    using namespace gaas;
    bench::init(argc, argv);
    bench::banner("Fig. 3", "effect of context-switch interval on "
                            "cache performance");

    stats::Table t({"time slice (cycles)", "L1-I miss ratio",
                    "L1-D miss ratio", "L2 miss ratio", "CPI",
                    "avg cycles/switch"});
    t.setTitle("Base architecture, MP=8 "
               "(slice in cycles; paper's x-axis is 10k..10M)");

    const Cycles slices[] = {10'000ull,    50'000ull,    100'000ull,
                             500'000ull,   1'000'000ull, 5'000'000ull,
                             10'000'000ull};
    bench::Sweep sweep;
    for (Cycles slice : slices) {
        auto cfg = core::baseline();
        cfg.timeSliceCycles = slice;
        // A fair measurement must cover several full rotations of
        // the 8-process round robin, so the budget grows with the
        // slice (10M-cycle slices need ~50M+ instructions).
        const Count budget = std::max<Count>(
            bench::instructionBudget(), 8 * slice);
        sweep.add(cfg, bench::mpLevel(), budget, budget / 2);
    }
    const auto results = sweep.run();

    std::size_t job = 0;
    for (Cycles slice : slices) {
        const auto &out = results[job++];
        const auto &res = out.result;
        const auto &s = res.sys;
        const double instr = static_cast<double>(res.instructions);
        t.newRow()
            .cell(static_cast<std::uint64_t>(slice))
            .cell(bench::cell(out,
                              static_cast<double>(s.l1iMisses) / instr,
                              4))
            .cell(bench::cell(out,
                              static_cast<double>(s.l1dReadMisses +
                                                  s.l1dWriteMisses) /
                                  instr,
                              4))
            .cell(bench::cell(out, s.l2MissRatio(), 4))
            .cell(bench::cell(out, res.cpi(), 4))
            .cell(bench::cell(
                out,
                res.contextSwitches
                    ? static_cast<double>(res.cycles /
                                          res.contextSwitches)
                    : 0.0,
                0));
    }
    bench::emit(t, "fig3_timeslice");
    std::cout << "expected: CPI falls as the slice grows (line reuse); "
                 "at 500k cycles the average interval including "
                 "syscall switches is ~310k cycles\n";
    return bench::exitCode();
}
