/**
 * @file
 * Workload calibration tool (development aid, not a paper figure).
 *
 * Prints the observables the synthetic suite is tuned against --
 * reference mix, base CPI, L1/L2 miss ratios, CPI breakdown, context
 * switch interval -- next to the targets the paper states, plus a
 * per-benchmark breakdown to identify offenders.
 *
 * Usage: calibrate [instructions] [mode]
 *   mode: all | base | bench | l2
 *
 * A budget that is not a positive decimal integer, an unknown mode
 * or an extra argument exits 1 naming it before any simulation.
 */

#include <iostream>
#include <string>

#include "core/config.hh"
#include "core/simulator.hh"
#include "stats/table.hh"
#include "synth/suite.hh"
#include "util/env.hh"
#include "util/logging.hh"

using namespace gaas;

namespace
{

void
printBase(Count budget)
{
    const auto cfg = core::baseline();
    const auto res = core::runStandard(cfg, budget, 8, budget / 2);
    const auto &s = res.sys;

    stats::Table t({"observable", "measured", "target (paper)"});
    t.setTitle("Base architecture, MP=8");
    auto row = [&](const char *name, double v, const char *target,
                   int prec = 4) {
        t.newRow().cell(name).cell(v, prec).cell(target);
    };
    row("store fraction",
        static_cast<double>(s.stores) /
            static_cast<double>(res.instructions),
        "0.0725");
    row("load fraction",
        static_cast<double>(s.loads) /
            static_cast<double>(res.instructions),
        "~0.20");
    row("base CPI", res.baseCpi(), "1.238");
    row("L1-I miss / instr",
        static_cast<double>(s.l1iMisses) /
            static_cast<double>(res.instructions),
        "~0.015-0.020");
    row("L1-D miss / instr",
        static_cast<double>(s.l1dReadMisses + s.l1dWriteMisses) /
            static_cast<double>(res.instructions),
        "~0.020-0.030");
    row("write miss ratio", s.l1dWriteMissRatio(), "~0.02");
    row("L2 miss ratio", s.l2MissRatio(), "0.0112 (256KW uni)");
    row("L2 acc / instr",
        static_cast<double>(s.l2iAccesses + s.l2dAccesses) /
            static_cast<double>(res.instructions),
        "~0.04");
    row("mem CPI", res.memCpi(), "~0.415");
    row("total CPI", res.cpi(), "~1.65");
    row("writes % of mem loss",
        100.0 *
            (res.perInstruction(res.comp.l1Writes) +
             res.perInstruction(res.comp.wbWait)) /
            res.memCpi(),
        "24%", 1);
    row("cycles / ctx switch",
        res.contextSwitches
            ? static_cast<double>(res.cycles) /
                  static_cast<double>(res.contextSwitches)
            : 0.0,
        "~310,000", 0);
    t.print(std::cout);
    std::cout << '\n' << res.formatBreakdown() << '\n';
}

void
printBenchmarks(Count budget)
{
    stats::Table t({"benchmark", "ld%", "st%", "baseCPI", "L1-I m/i",
                    "L1-D m/i", "L2 mr", "memCPI"});
    t.setTitle("Per-benchmark solo runs (base architecture, MP=1)");
    for (const auto &spec : synth::workloadSpecs(8)) {
        core::Workload wl = core::Workload::fromSpecs({spec});
        core::Simulator sim(core::baseline(), std::move(wl));
        const auto res = sim.run(budget / 2, budget / 4);
        const auto &s = res.sys;
        const auto instr = static_cast<double>(res.instructions);
        t.newRow()
            .cell(spec.name)
            .cell(100.0 * static_cast<double>(s.loads) / instr, 1)
            .cell(100.0 * static_cast<double>(s.stores) / instr, 1)
            .cell(res.baseCpi(), 3)
            .cell(static_cast<double>(s.l1iMisses) / instr, 4)
            .cell(static_cast<double>(s.l1dReadMisses +
                                      s.l1dWriteMisses) /
                      instr,
                  4)
            .cell(s.l2MissRatio(), 4)
            .cell(res.memCpi(), 3);
    }
    t.print(std::cout);
    std::cout << '\n';
}

void
printL2Sweep(Count budget)
{
    // Table 2 targets, unified 1-way.
    const double targets[] = {0.0335, 0.0240, 0.0186, 0.0133,
                              0.0112, 0.0102, 0.0102};
    stats::Table t({"L2 size", "measured miss ratio", "Table 2"});
    t.setTitle("Unified 1-way L2 sweep (write-only policy)");
    int i = 0;
    for (std::uint64_t size = 16 * 1024; size <= 1024 * 1024;
         size *= 2, ++i) {
        auto cfg = core::afterWritePolicy();
        cfg.l2.cache.sizeWords = size;
        const auto res = core::runStandard(cfg, budget, 8, budget / 2);
        t.newRow()
            .cell(std::to_string(size / 1024) + "KW")
            .cell(res.sys.l2MissRatio(), 4)
            .cell(targets[i], 4);
    }
    t.print(std::cout);
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    Count budget = 2'000'000;
    std::string mode = "all";
    if (argc > 1) {
        const auto v = parseU64(argv[1]);
        if (!v || *v == 0) {
            std::cerr << "calibrate: bad instruction budget '"
                      << argv[1]
                      << "' (positive decimal integer required)\n";
            return 1;
        }
        budget = *v;
    }
    if (argc > 2) {
        mode = argv[2];
        if (mode != "all" && mode != "base" && mode != "bench" &&
            mode != "l2") {
            std::cerr << "calibrate: unknown mode '" << mode
                      << "' (all, base, bench or l2)\n";
            return 1;
        }
    }
    if (argc > 3) {
        std::cerr << "calibrate: unexpected argument '" << argv[3]
                  << "'\nusage: calibrate [instructions] "
                     "[all|base|bench|l2]\n";
        return 1;
    }

    try {
        if (mode == "all" || mode == "base")
            printBase(budget);
        if (mode == "all" || mode == "bench")
            printBenchmarks(budget);
        if (mode == "all" || mode == "l2")
            printL2Sweep(budget);
    } catch (const FatalError &err) {
        std::cerr << err.what() << '\n';
        return 1;
    }
    return 0;
}
