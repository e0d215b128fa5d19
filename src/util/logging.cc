#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace gaas
{

namespace
{

std::atomic<bool> quiet_flag{false};

} // namespace

void
setLogQuiet(bool quiet)
{
    quiet_flag.store(quiet, std::memory_order_relaxed);
}

bool
logQuiet()
{
    return quiet_flag.load(std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ':' << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << "\n  at " << file << ':' << line;
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    if (!logQuiet())
        std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail

} // namespace gaas
