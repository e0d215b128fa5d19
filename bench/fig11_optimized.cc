/**
 * @file
 * Figure 11 + conclusions: the optimized architecture.
 *
 * The end point of the design study: write-only L1-D policy, 8W
 * lines, a 32KW 2-cycle L2-I on the MCM, a 256KW 6-cycle L2-D off
 * it, concurrent I-refill, loads passing stores via the dirty-bit
 * scheme, and an L2-D dirty buffer.  The paper reports a 54.5%
 * memory-system improvement and a 13.7% total improvement over the
 * base architecture.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/config.hh"

int
main(int argc, char **argv)
{
    using namespace gaas;
    bench::init(argc, argv);
    bench::banner("Fig. 11", "the optimized architecture");

    const auto opt_cfg = core::optimized();
    bench::Sweep sweep;
    sweep.addScaled(core::baseline(), 3);
    sweep.addScaled(opt_cfg, 3);
    const auto results = sweep.run();
    const auto &base_out = results[0];
    const auto &opt_out = results[1];
    const auto &base = base_out.result;
    const auto &opt = opt_out.result;

    std::cout << opt_cfg.describe() << "\n\n";

    stats::Table t({"metric", "base", "optimized"});
    t.setTitle("Base vs optimized architecture");
    auto row = [&](const char *name, double b, double o) {
        t.newRow()
            .cell(name)
            .cell(bench::cell(base_out, b, 4))
            .cell(bench::cell(opt_out, o, 4));
    };
    row("CPI", base.cpi(), opt.cpi());
    row("memory CPI", base.memCpi(), opt.memCpi());
    row("L1-I miss/instr",
        static_cast<double>(base.sys.l1iMisses) /
            static_cast<double>(base.instructions),
        static_cast<double>(opt.sys.l1iMisses) /
            static_cast<double>(opt.instructions));
    row("L1-D miss/instr",
        static_cast<double>(base.sys.l1dReadMisses +
                            base.sys.l1dWriteMisses) /
            static_cast<double>(base.instructions),
        static_cast<double>(opt.sys.l1dReadMisses +
                            opt.sys.l1dWriteMisses) /
            static_cast<double>(opt.instructions));
    row("L2-I miss ratio", base.sys.l2iMissRatio(),
        opt.sys.l2iMissRatio());
    row("L2-D miss ratio", base.sys.l2dMissRatio(),
        opt.sys.l2dMissRatio());
    bench::emit(t, "fig11_optimized");

    std::cout << opt.formatBreakdown() << '\n'
              << "memory-system improvement: "
              << 100.0 * (1.0 - opt.memCpi() / base.memCpi())
              << "% (paper: 54.5%)\n"
              << "total improvement:         "
              << 100.0 * (1.0 - opt.cpi() / base.cpi())
              << "% (paper: 13.7%)\n";
    return bench::exitCode();
}
