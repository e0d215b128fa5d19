#include "json.hh"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/error.hh"
#include "util/logging.hh"

namespace gaas::obs
{

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type = Type::Object;
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type = Type::Array;
    return v;
}

JsonValue
JsonValue::string(std::string text)
{
    JsonValue v;
    v.type = Type::String;
    v.scalar = std::move(text);
    return v;
}

JsonValue
JsonValue::number(Count n)
{
    JsonValue v;
    v.type = Type::Number;
    v.scalar = std::to_string(n);
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    if (!std::isfinite(d)) {
        v.type = Type::Null;
        return v;
    }
    v.type = Type::Number;
    v.scalar = formatDouble(d);
    return v;
}

const JsonValue *
JsonValue::member(std::string_view key) const
{
    for (const auto &[name, value] : members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

JsonValue
toJson(const Registry &reg)
{
    JsonValue root = JsonValue::object();

    // Walk (and create) the object path for one dotted name.
    auto place = [&root](const std::string &name, JsonValue leaf) {
        JsonValue *node = &root;
        std::size_t pos = 0;
        while (true) {
            const std::size_t dot = name.find('.', pos);
            const std::string key =
                name.substr(pos, dot == std::string::npos
                                     ? std::string::npos
                                     : dot - pos);
            if (node->type != JsonValue::Type::Object) {
                gaas_fatal("metric name '", name,
                           "' conflicts with an earlier leaf");
            }
            JsonValue *child = nullptr;
            for (auto &[k, v] : node->members) {
                if (k == key) {
                    child = &v;
                    break;
                }
            }
            if (dot == std::string::npos) {
                if (child)
                    gaas_fatal("metric name '", name,
                               "' registered twice");
                node->members.emplace_back(key, std::move(leaf));
                return;
            }
            if (!child) {
                node->members.emplace_back(key, JsonValue::object());
                child = &node->members.back().second;
            }
            node = child;
            pos = dot + 1;
        }
    };

    for (const auto &e : reg.entries()) {
        switch (e.kind) {
          case Kind::Counter:
            place(e.name, JsonValue::number(e.count));
            break;
          case Kind::Value:
            place(e.name, JsonValue::number(e.value));
            break;
        }
    }
    return root;
}

namespace
{

void
writeEscaped(const std::string &text, std::ostream &os)
{
    os << '"';
    for (const char c : text) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                constexpr char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeValue(const JsonValue &v, std::ostream &os, unsigned indent)
{
    const std::string pad(indent, ' ');
    switch (v.type) {
      case JsonValue::Type::Null:
        os << "null";
        break;
      case JsonValue::Type::Number:
        os << v.scalar;
        break;
      case JsonValue::Type::String:
        writeEscaped(v.scalar, os);
        break;
      case JsonValue::Type::Array:
        os << '[';
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i)
                os << ", ";
            writeValue(v.items[i], os, indent);
        }
        os << ']';
        break;
      case JsonValue::Type::Object:
        if (v.members.empty()) {
            os << "{}";
            break;
        }
        os << "{\n";
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            os << pad << "  ";
            writeEscaped(v.members[i].first, os);
            os << ": ";
            writeValue(v.members[i].second, os, indent + 2);
            if (i + 1 < v.members.size())
                os << ',';
            os << '\n';
        }
        os << pad << '}';
        break;
    }
}

void
writeValueCompact(const JsonValue &v, std::ostream &os)
{
    switch (v.type) {
      case JsonValue::Type::Null:
        os << "null";
        break;
      case JsonValue::Type::Number:
        os << v.scalar;
        break;
      case JsonValue::Type::String:
        writeEscaped(v.scalar, os);
        break;
      case JsonValue::Type::Array:
        os << '[';
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i)
                os << ',';
            writeValueCompact(v.items[i], os);
        }
        os << ']';
        break;
      case JsonValue::Type::Object:
        os << '{';
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i)
                os << ',';
            writeEscaped(v.members[i].first, os);
            os << ':';
            writeValueCompact(v.members[i].second, os);
        }
        os << '}';
        break;
    }
}

/** Recursive-descent parser over the emitted subset. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text(text) {}

    JsonValue
    document()
    {
        skipSpace();
        JsonValue v = value();
        skipSpace();
        if (pos != text.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        gaas_error(ErrorCode::StatsIO, "JSON parse error at offset ",
                   pos, ": ", what);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    JsonValue
    value()
    {
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return JsonValue::string(string());
          case 'n':
            return null();
          default:
            return number();
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v = JsonValue::object();
        skipSpace();
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            skipSpace();
            std::string key = string();
            skipSpace();
            expect(':');
            skipSpace();
            v.members.emplace_back(std::move(key), value());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v = JsonValue::array();
        skipSpace();
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            skipSpace();
            v.items.push_back(value());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out.push_back(esc);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                if (code > 0x7f)
                    fail("non-ASCII \\u escapes are not supported");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    null()
    {
        if (text.substr(pos, 4) != "null")
            fail("expected 'null'");
        pos += 4;
        JsonValue v;
        v.type = JsonValue::Type::Null;
        return v;
    }

    JsonValue
    number()
    {
        const std::size_t start = pos;
        auto digits = [&] {
            if (pos >= text.size() || text[pos] < '0' ||
                text[pos] > '9')
                fail("malformed number");
            while (pos < text.size() && text[pos] >= '0' &&
                   text[pos] <= '9')
                ++pos;
        };
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        digits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            digits();
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            digits();
        }
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.scalar = std::string(text.substr(start, pos - start));
        return v;
    }

    std::string_view text;
    std::size_t pos = 0;
};

} // namespace

void
writeJson(const JsonValue &v, std::ostream &os)
{
    writeValue(v, os, 0);
    os << '\n';
}

std::string
writeJsonString(const JsonValue &v)
{
    std::ostringstream os;
    writeJson(v, os);
    return os.str();
}

std::string
writeJsonCompact(const JsonValue &v)
{
    std::ostringstream os;
    writeValueCompact(v, os);
    return os.str();
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).document();
}

} // namespace gaas::obs
