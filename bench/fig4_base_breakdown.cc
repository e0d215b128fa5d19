/**
 * @file
 * Figure 4: performance losses of the base architecture.
 *
 * The paper's histogram stacks the CPI contribution of each memory-
 * system loss source on top of the 1.238 CPU floor, reaching about
 * 1.65 CPI, with writes (L1 writes + WB) accounting for 24% of the
 * memory-system loss.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/config.hh"

int
main(int argc, char **argv)
{
    using namespace gaas;
    bench::init(argc, argv);
    bench::banner("Fig. 4",
                  "performance losses of the base architecture");

    bench::Sweep sweep;
    sweep.add(core::baseline());
    const auto results = sweep.run();
    const auto &out = results.front();
    const auto &res = out.result;

    stats::Table t({"component", "CPI contribution", "cumulative"});
    t.setTitle("Base architecture CPI breakdown (paper: 1.238 floor, "
               "~1.65 total)");
    double cum = 0.0;
    auto add = [&](const char *label, double value) {
        cum += value;
        t.newRow()
            .cell(label)
            .cell(bench::cell(out, value, 4))
            .cell(bench::cell(out, cum, 4));
    };
    add("base machine", res.baseCpi());
    add("L1-I miss", res.perInstruction(res.comp.l1iMiss));
    add("L1-D miss", res.perInstruction(res.comp.l1dMiss));
    add("L1 writes", res.perInstruction(res.comp.l1Writes));
    add("WB", res.perInstruction(res.comp.wbWait));
    add("L2-I miss", res.perInstruction(res.comp.l2iMiss));
    add("L2-D miss", res.perInstruction(res.comp.l2dMiss));
    bench::emit(t, "fig4_base_breakdown");

    const double writes = res.perInstruction(res.comp.l1Writes) +
                          res.perInstruction(res.comp.wbWait);
    std::cout << "total CPI: " << res.cpi() << "\n"
              << "memory CPI: " << res.memCpi() << "\n"
              << "writes share of memory loss: "
              << 100.0 * writes / res.memCpi()
              << "%  (paper: 24%)\n";
    return bench::exitCode();
}
