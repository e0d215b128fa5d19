#include "metrics.hh"

#include <utility>

#include "util/logging.hh"

namespace gaas::obs
{

void
Registry::beginSection(std::string title)
{
    section = std::move(title);
}

void
Registry::push(Entry e)
{
    if (find(e.name)) {
        gaas_fatal("duplicate metric name '", e.name,
                   "' registered");
    }
    e.section = section;
    items.push_back(std::move(e));
}

void
Registry::counter(std::string name, Count v, std::string desc)
{
    Entry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = Kind::Counter;
    e.count = v;
    push(std::move(e));
}

void
Registry::value(std::string name, double v, std::string desc)
{
    Entry e;
    e.name = std::move(name);
    e.desc = std::move(desc);
    e.kind = Kind::Value;
    e.value = v;
    push(std::move(e));
}

const Entry *
Registry::find(std::string_view name) const
{
    for (const auto &e : items) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

} // namespace gaas::obs
