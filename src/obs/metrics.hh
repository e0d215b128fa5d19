/**
 * @file
 * The observability layer: a named metrics registry and wall-clock
 * phase timers.
 *
 * The simulator's subsystems keep their event counters as plain
 * integer fields (a counter increment stays a single `uint64_t` add
 * on the hot path); a Registry is only built when a dump is
 * requested, by walking those fields and binding each one to a
 * stable hierarchical name (`l1d.read_misses`, `wb.full_stall_cycles`,
 * ...).  Both statistics emitters -- the flat golden `name value
 * # desc` format and the machine-readable JSON sibling (obs/json.hh)
 * -- render the same Registry, so the two dumps can never drift
 * apart.
 *
 * Naming scheme: dotted lower_snake_case paths.  The first segment is
 * the subsystem (`sim`, `cpi`, `l1i`, `l1d`, `l2`, `l2i`, `l2d`,
 * `wb`, `mem`, `itlb`, `dtlb`); the remainder names the statistic.
 * Registration order is the dump order and is part of the schema:
 * the JSON exporter emits keys in exactly this order so dumps are
 * byte-diffable across runs.
 */

#ifndef GAAS_OBS_METRICS_HH
#define GAAS_OBS_METRICS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hh"

namespace gaas::obs
{

/** What one registry entry holds. */
enum class Kind
{
    Counter, //!< monotonically counted events (uint64)
    Value,   //!< a derived or sampled scalar (double gauge)
};

/** One named statistic captured at registration time. */
struct Entry
{
    std::string name;    //!< hierarchical dotted name
    std::string desc;    //!< one-line human description
    std::string section; //!< flat-dump section heading
    Kind kind = Kind::Counter;
    Count count = 0;
    double value = 0.0;
};

/**
 * An ordered collection of named statistics.  Entries keep their
 * registration order (the schema order); duplicate names are a
 * configuration error and throw FatalError.
 */
class Registry
{
  public:
    /** Start a new flat-dump section; subsequent entries belong to
     *  it.  Consecutive identical titles merge into one section. */
    void beginSection(std::string title);

    /** Register an event counter. */
    void counter(std::string name, Count v, std::string desc);

    /** Register a scalar gauge / derived value. */
    void value(std::string name, double v, std::string desc);

    const std::vector<Entry> &entries() const { return items; }

    /** Lookup by full dotted name; nullptr if absent. */
    const Entry *find(std::string_view name) const;

    bool empty() const { return items.empty(); }

  private:
    void push(Entry e);

    std::string section;
    std::vector<Entry> items;
};

/** A started steady-clock timer (no stop state; read it anytime). */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction. */
    double
    seconds() const
    {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * RAII phase timer: adds the scope's wall-clock seconds to an
 * accumulator on destruction.  Used to attribute a sweep point's
 * host time to its phases (workload build vs. simulation vs. stats
 * assembly); the accumulator is a plain double, so instrumented code
 * pays two clock reads per *phase*, never per simulated event.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &accumulator) : acc(accumulator) {}

    ~ScopedTimer() { acc += watch.seconds(); }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /** Seconds elapsed so far (the accumulator is only updated on
     *  destruction). */
    double seconds() const { return watch.seconds(); }

  private:
    double &acc;
    Stopwatch watch;
};

} // namespace gaas::obs

#endif // GAAS_OBS_METRICS_HH
