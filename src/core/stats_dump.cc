#include "stats_dump.hh"

#include <filesystem>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/json.hh"
#include "util/file_io.hh"
#include "util/logging.hh"

namespace gaas::core
{

obs::Registry
collectStats(const SimResult &r)
{
    obs::Registry reg;
    reg.beginSection("machine");
    reg.counter("sim.instructions", r.instructions,
                "instructions executed");
    reg.counter("sim.cycles", r.cycles, "cycles elapsed");
    reg.value("sim.cpi", r.cpi(), "cycles per instruction");
    reg.value("sim.base_cpi", r.baseCpi(),
              "CPU-only floor (1 + cpu stalls)");
    reg.value("sim.mem_cpi", r.memCpi(),
              "memory-system contribution to CPI");
    reg.counter("sim.context_switches", r.contextSwitches,
                "total context switches");
    reg.counter("sim.syscall_switches", r.syscallSwitches,
                "switches forced by voluntary syscalls");
    r.comp.registerInto(reg);
    r.sys.registerInto(reg);
    if (r.sampling.enabled()) {
        // Only sampled runs carry this section, so every dump of a
        // full-detail run -- the golden corpus included -- is
        // byte-identical to the pre-sampling format.
        reg.beginSection("sampling");
        reg.counter("sampling.passes", r.sampling.passes,
                    "controller sizing passes");
        reg.counter("sampling.intervals", r.sampling.intervals,
                    "measurement intervals (0 = full-detail "
                    "fallback)");
        reg.counter("sampling.measured_instructions",
                    r.sampling.measuredInstructions,
                    "instructions simulated in detail");
        reg.counter("sampling.warmed_instructions",
                    r.sampling.warmedInstructions,
                    "instructions functionally warmed");
        reg.counter("sampling.skipped_instructions",
                    r.sampling.skippedInstructions,
                    "instructions fast-forwarded past");
        reg.value("sampling.cpi_mean", r.sampling.cpiMean,
                  "mean of per-interval CPIs");
        reg.value("sampling.cpi_std_error", r.sampling.cpiStdError,
                  "standard error of the mean CPI");
        reg.value("sampling.cpi_half_width",
                  r.sampling.cpiHalfWidth,
                  "95% confidence half-width on the mean CPI");
        reg.value("sampling.confidence", r.sampling.confidence,
                  "confidence level of the interval");
    }
    return reg;
}

namespace
{

/** The flat golden format, one registry entry per line. */
class Emitter
{
  public:
    explicit Emitter(std::ostream &os) : os(os) {}

    void
    section(const std::string &title)
    {
        os << "\n# ---- " << title << " ----\n";
    }

    void
    value(const std::string &name, double v, const std::string &desc)
    {
        os << std::left << std::setw(36) << name << ' '
           << std::setw(16) << std::setprecision(8) << v << " # "
           << desc << '\n';
    }

    void
    count(const std::string &name, Count v, const std::string &desc)
    {
        os << std::left << std::setw(36) << name << ' '
           << std::setw(16) << v << " # " << desc << '\n';
    }

  private:
    std::ostream &os;
};

} // namespace

void
dumpStats(const SimResult &r, std::ostream &os)
{
    const obs::Registry reg = collectStats(r);
    Emitter e(os);
    os << "# gaascache statistics: " << r.configName << '\n';

    const std::string *section = nullptr;
    for (const obs::Entry &entry : reg.entries()) {
        if (!section || *section != entry.section) {
            section = &entry.section;
            e.section(entry.section);
        }
        switch (entry.kind) {
          case obs::Kind::Counter:
            e.count(entry.name, entry.count, entry.desc);
            break;
          case obs::Kind::Value:
            e.value(entry.name, entry.value, entry.desc);
            break;
        }
    }
    os.flush();
}

bool
dumpStatsFile(const SimResult &result, const std::string &path)
{
    std::ostringstream out;
    dumpStats(result, out);
    std::string error;
    if (!util::writeFileAtomicRetry(path, out.str(), &error)) {
        warn("stats dump: ", error);
        return false;
    }
    return true;
}

void
dumpStatsJson(const SimResult &result, std::ostream &os)
{
    obs::JsonValue doc = obs::JsonValue::object();
    doc.members.emplace_back(
        "config", obs::JsonValue::string(result.configName));
    obs::JsonValue stats = obs::toJson(collectStats(result));
    for (auto &m : stats.members)
        doc.members.push_back(std::move(m));
    obs::writeJson(doc, os);
}

bool
dumpStatsJsonFile(const SimResult &result, const std::string &path)
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ostringstream out;
    dumpStatsJson(result, out);
    std::string error;
    if (!util::writeFileAtomicRetry(path, out.str(), &error)) {
        warn("JSON stats dump: ", error);
        return false;
    }
    return true;
}

} // namespace gaas::core
