#include "config_io.hh"

#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/env.hh"
#include "util/error.hh"

namespace gaas::core
{

namespace
{

/**
 * Apply @p f(key, field) to every key of the config text, in
 * canonical order: the order saveConfig writes and loadConfig
 * applies.  Instantiated over `const SystemConfig &` (saving) and
 * `SystemConfig &` (loading), so the two directions can never
 * disagree about the key list.
 *
 * A key that does more than set its field when loaded passes a third
 * argument that does the rest: each `*.line_words` also sets the
 * fetch size (the study grows both together, Section 8), and
 * `write_policy` applies the policy's write-buffer shape.
 * `write_policy` ranks before `wb.depth` / `wb.entry_words`, so an
 * explicit wb.* line always wins, wherever it appears in the file.
 */
template <typename Config, typename Fn>
void
visitKeys(Config &c, Fn &&f)
{
    f("name", c.name);
    f("l1i.size_words", c.l1i.sizeWords);
    f("l1i.assoc", c.l1i.assoc);
    f("l1i.line_words", c.l1i.lineWords, [](SystemConfig &s) {
        s.l1i.fetchWords = s.l1i.lineWords;
    });
    f("l1d.size_words", c.l1d.sizeWords);
    f("l1d.assoc", c.l1d.assoc);
    f("l1d.line_words", c.l1d.lineWords, [](SystemConfig &s) {
        s.l1d.fetchWords = s.l1d.lineWords;
    });
    f("write_policy", c.writePolicy, [](SystemConfig &s) {
        s.applyPolicyDefaults();
    });
    f("l2.org", c.l2Org);
    f("l2.size_words", c.l2.cache.sizeWords);
    f("l2.assoc", c.l2.cache.assoc);
    f("l2.line_words", c.l2.cache.lineWords, [](SystemConfig &s) {
        s.l2.cache.fetchWords = s.l2.cache.lineWords;
    });
    f("l2.access_time", c.l2.accessTime);
    f("l2i.size_words", c.l2i.cache.sizeWords);
    f("l2i.assoc", c.l2i.cache.assoc);
    f("l2i.line_words", c.l2i.cache.lineWords, [](SystemConfig &s) {
        s.l2i.cache.fetchWords = s.l2i.cache.lineWords;
    });
    f("l2i.access_time", c.l2i.accessTime);
    f("l2d.size_words", c.l2d.cache.sizeWords);
    f("l2d.assoc", c.l2d.cache.assoc);
    f("l2d.line_words", c.l2d.cache.lineWords, [](SystemConfig &s) {
        s.l2d.cache.fetchWords = s.l2d.cache.lineWords;
    });
    f("l2d.access_time", c.l2d.accessTime);
    f("transfer_words_per_cycle", c.transferWordsPerCycle);
    f("wb.depth", c.wbDepth);
    f("wb.entry_words", c.wbEntryWords);
    f("wb.stream_overlap", c.wbStreamOverlap);
    f("concurrent_i_refill", c.concurrentIRefill);
    f("load_bypass", c.loadBypass);
    f("l2_dirty_buffer", c.l2DirtyBuffer);
    f("memory.clean_miss", c.memory.cleanMissPenalty);
    f("memory.dirty_miss", c.memory.dirtyMissPenalty);
    f("mmu.tlb_miss_penalty", c.mmu.tlbMissPenalty);
    f("mmu.page_colors", c.mmu.pageTable.colors);
    f("mmu.page_coloring", c.mmu.pageTable.coloring);
    f("time_slice_cycles", c.timeSliceCycles);
}

/**
 * @name Value names of the non-numeric fields
 * saveConfig writes the first name listed for a value; loadConfig
 * accepts every name listed.
 */
///@{
template <typename E>
using Names = std::span<const std::pair<E, const char *>>;

constexpr std::pair<WritePolicy, const char *> kWritePolicies[] = {
    {WritePolicy::WriteBack, "writeback"},
    {WritePolicy::WriteMissInvalidate, "invalidate"},
    {WritePolicy::WriteOnly, "writeonly"},
    {WritePolicy::SubblockPlacement, "subblock"},
};

constexpr std::pair<L2Org, const char *> kL2Orgs[] = {
    {L2Org::Unified, "unified"},
    {L2Org::LogicalSplit, "logical"},
    {L2Org::PhysicalSplit, "physical"},
};

constexpr std::pair<LoadBypass, const char *> kLoadBypasses[] = {
    {LoadBypass::None, "none"},
    {LoadBypass::Associative, "associative"},
    {LoadBypass::DirtyBit, "dirtybit"},
};

constexpr std::pair<bool, const char *> kBools[] = {
    {true, "true"}, {false, "false"}, {true, "1"},
    {false, "0"},   {true, "yes"},    {false, "no"},
};

Names<WritePolicy> names(WritePolicy) { return kWritePolicies; }
Names<L2Org> names(L2Org) { return kL2Orgs; }
Names<LoadBypass> names(LoadBypass) { return kLoadBypasses; }
Names<bool> names(bool) { return kBools; }
///@}

/** An unsigned field of any width (bool is a named value). */
template <typename T>
constexpr bool kIsNumber =
    std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

/** Write one field's value as the config text spells it. */
template <typename T>
void
writeValue(std::ostream &os, const T &value)
{
    if constexpr (std::is_same_v<T, std::string> || kIsNumber<T>) {
        os << value;
    } else {
        for (const auto &[v, name] : names(value)) {
            if (v == value) {
                os << name;
                return;
            }
        }
    }
}

/** One `key = value` line, collected before any state is touched. */
struct Entry
{
    std::string value;
    unsigned lineno = 0;
};

/**
 * Parse @p e's value into @p out.  Numbers are unsigned decimals
 * (no sign, base prefix or trailing text) within the field's
 * width; named values must be one of the field's names.
 */
template <typename T>
void
parseValue(const char *key, const Entry &e, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = e.value;
    } else if constexpr (kIsNumber<T>) {
        const auto v = parseU64(e.value);
        if (!v || *v > std::numeric_limits<T>::max()) {
            gaas_error(ErrorCode::Config, "config line ", e.lineno,
                       ": bad value for ", key, ": '", e.value,
                       "' (want a decimal integer up to ",
                       std::numeric_limits<T>::max(), ")");
        }
        out = static_cast<T>(*v);
    } else {
        std::string choices;
        for (const auto &[v, name] : names(out)) {
            if (e.value == name) {
                out = v;
                return;
            }
            choices += choices.empty() ? name : std::string(", ") + name;
        }
        gaas_error(ErrorCode::Config, "config line ", e.lineno,
                   ": bad value for ", key, ": '", e.value,
                   "' (want one of ", choices, ")");
    }
}

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

} // namespace

void
saveConfig(const SystemConfig &cfg, std::ostream &os)
{
    os << "# gaascache system configuration\n";
    visitKeys(cfg, [&os](const char *key, const auto &field, auto...) {
        os << key << " = ";
        writeValue(os, field);
        os << '\n';
    });
}

void
saveConfigFile(const SystemConfig &cfg, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        gaas_error(ErrorCode::Config, "cannot write config to ", path);
    saveConfig(cfg, out);
    if (!out)
        gaas_error(ErrorCode::Config, "I/O error writing config to ", path);
}

SystemConfig
loadConfig(std::istream &is)
{
    SystemConfig cfg = baseline();
    cfg.name = "loaded";
    std::set<std::string_view> known;
    visitKeys(cfg, [&known](const char *key, const auto &...) {
        known.insert(key);
    });

    // Phase 1: collect every key/value pair without touching any
    // config state.  Unknown keys, malformed lines, and duplicate
    // keys are fatal here, with the offending line number.
    std::map<std::string, Entry, std::less<>> entries;
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;
        const auto eq = text.find('=');
        if (eq == std::string::npos) {
            gaas_error(ErrorCode::Config, "config line ", lineno,
                       ": expected 'key = value', got '", text, "'");
        }
        const std::string key = trim(text.substr(0, eq));
        if (!known.count(key)) {
            gaas_error(ErrorCode::Config, "config line ", lineno,
                       ": unknown key '", key, "'");
        }
        const auto [it, inserted] = entries.emplace(
            key, Entry{trim(text.substr(eq + 1)), lineno});
        if (!inserted) {
            gaas_error(ErrorCode::Config, "config line ", lineno,
                       ": duplicate key '", key,
                       "' (first set on line ", it->second.lineno, ")");
        }
    }

    // Phase 2: apply in key-table order, never in file order -- each
    // key appears at most once, so the result is a pure function of
    // the key/value set.
    visitKeys(cfg, [&](const char *key, auto &field, auto... effect) {
        const auto it = entries.find(key);
        if (it == entries.end())
            return;
        parseValue(key, it->second, field);
        (effect(cfg), ...);
    });

    cfg.validate();
    return cfg;
}

SystemConfig
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        gaas_error(ErrorCode::Config, "cannot read config from ", path);
    return loadConfig(in);
}

} // namespace gaas::core
