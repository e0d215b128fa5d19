#include "report.hh"

#include <algorithm>
#include <fstream>

#include "synth/suite.hh"

namespace perfbench
{

using gaas::obs::JsonValue;

JsonValue
metricsJson(const Metrics &metrics)
{
    JsonValue obj = JsonValue::object();
    for (const Metric &m : metrics) {
        JsonValue one = JsonValue::object();
        one.members.emplace_back("value", JsonValue::number(m.value));
        one.members.emplace_back("unit", JsonValue::string(m.unit));
        obj.members.emplace_back(m.name, std::move(one));
    }
    return obj;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
SpanLog::begin(std::string name, int parent)
{
    spans.push_back(Span{std::move(name), parent, clock.seconds(), -1.0});
    const int id = static_cast<int>(spans.size()) - 1;
    open.push_back(id);
    return id;
}

void
SpanLog::end(int id)
{
    spans[static_cast<std::size_t>(id)].end = clock.seconds();
    auto it = std::find(open.begin(), open.end(), id);
    if (it != open.end())
        open.erase(it);
}

JsonValue
SpanLog::json() const
{
    JsonValue arr = JsonValue::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        JsonValue one = JsonValue::object();
        one.members.emplace_back("trace", JsonValue::string(traceId));
        one.members.emplace_back(
            "id", JsonValue::number(static_cast<gaas::Count>(i)));
        one.members.emplace_back("name", JsonValue::string(s.name));
        one.members.emplace_back(
            "parent", s.parent < 0
                          ? JsonValue::string("")
                          : JsonValue::number(
                                static_cast<gaas::Count>(s.parent)));
        one.members.emplace_back("start_s", JsonValue::number(s.start));
        one.members.emplace_back("end_s", JsonValue::number(s.end));
        arr.items.push_back(std::move(one));
    }
    return arr;
}

double
calibrationRefsPerSecond()
{
    gaas::synth::BenchmarkSpec spec = gaas::synth::defaultSuite()[0];
    spec.simInstructions = 2'000'000;
    auto src = gaas::synth::makeBenchmark(spec);
    constexpr std::size_t kBatch = 1u << 14;
    std::vector<gaas::trace::MemRef> buf(kBatch);
    std::uint64_t n = 0;
    const gaas::obs::Stopwatch clock;
    for (;;) {
        const std::size_t got = src->nextBatch(buf.data(), kBatch);
        n += got;
        if (got < kBatch)
            break;
    }
    const double secs = clock.seconds();
    return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench
