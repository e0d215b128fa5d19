/**
 * @file
 * What a benchmark run reports: named metrics with units, the host
 * context block, and the in-memory span log of a traced run.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** JSON object {name: {"value": v, "unit": u}, ...}. */
gaas::obs::JsonValue metricsJson(const Metrics &metrics);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Spans recorded by the benchmark around its calls into the
 * simulator's layers.  Kept in memory; json() renders them when the
 * run ends.  Every span of one run shares the run's trace id.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::string trace_id) : traceId(std::move(trace_id))
    {}

    /** Open a span; @return its id (the parent of nested spans). */
    int begin(std::string name, int parent);

    void end(int id);

    /** Id of the innermost open span, or -1. */
    int current() const { return open.empty() ? -1 : open.back(); }

    gaas::obs::JsonValue json() const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        double start;
        double end;
    };

    std::string traceId;
    gaas::obs::Stopwatch clock;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span; a null log records nothing (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name)
        : spanLog(log),
          id(log ? log->begin(std::move(name), log->current()) : -1)
    {}

    ~ScopedSpan()
    {
        if (spanLog)
            spanLog->end(id);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *spanLog;
    int id;
};

/**
 * The calibration yardstick: refs/s of one pinned single-thread drain
 * of the synthetic generator (suite entry 0, 2M instructions), the
 * same drain the repository's speed tool records.  Identical work on
 * every host, so rate / yardstick compares across machines.
 */
double calibrationRefsPerSecond();

/** Peak resident set (VmHWM) of this process in MiB.  Forked sweep
 *  workers are not counted: they share its trace arena
 *  copy-on-write, and what else they touch depends on which points
 *  the scheduler hands them. */
double peakRssMib();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
