#include "json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dysel {
namespace support {

namespace {

[[noreturn]] void
kindError(const char *wanted)
{
    throw std::runtime_error(std::string("json: value is not ") + wanted);
}

} // namespace

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        kindError("a bool");
    return boolV;
}

double
Json::asNumber() const
{
    if (kind_ != Kind::Number)
        kindError("a number");
    return numV;
}

std::int64_t
Json::asInt() const
{
    return static_cast<std::int64_t>(std::llround(asNumber()));
}

std::uint64_t
Json::asUint() const
{
    const double v = asNumber();
    if (v < 0)
        kindError("a non-negative number");
    return static_cast<std::uint64_t>(std::llround(v));
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        kindError("a string");
    return strV;
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::Array)
        kindError("an array");
    return arrV;
}

const std::map<std::string, Json> &
Json::fields() const
{
    if (kind_ != Kind::Object)
        kindError("an object");
    return objV;
}

Json &
Json::push(Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        kindError("an array");
    arrV.push_back(std::move(v));
    return *this;
}

Json &
Json::set(const std::string &key, Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        kindError("an object");
    objV[key] = std::move(v);
    return *this;
}

bool
Json::has(const std::string &key) const
{
    return kind_ == Kind::Object && objV.count(key) > 0;
}

const Json &
Json::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        kindError("an object");
    auto it = objV.find(key);
    if (it == objV.end())
        throw std::runtime_error("json: missing field '" + key + "'");
    return it->second;
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

std::int64_t
Json::intOr(const std::string &key, std::int64_t fallback) const
{
    return has(key) ? at(key).asInt() : fallback;
}

bool
Json::boolOr(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

std::string
Json::stringOr(const std::string &key, const std::string &fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(indent > 0 ? indent * (depth + 1) : 0, ' ');
    const std::string closePad(indent > 0 ? indent * depth : 0, ' ');
    const char *nl = indent > 0 ? "\n" : "";

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolV ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[32];
        if (numV == std::floor(numV) && std::fabs(numV) < 1e15)
            std::snprintf(buf, sizeof(buf), "%.0f", numV);
        else
            std::snprintf(buf, sizeof(buf), "%.17g", numV);
        out += buf;
        break;
      }
      case Kind::String:
        out += '"';
        out += jsonEscape(strV);
        out += '"';
        break;
      case Kind::Array: {
        if (arrV.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < arrV.size(); ++i) {
            out += pad;
            arrV[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < arrV.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += ']';
        break;
      }
      case Kind::Object: {
        if (objV.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        std::size_t i = 0;
        for (const auto &[key, value] : objV) {
            out += pad;
            out += '"';
            out += jsonEscape(key);
            out += "\":";
            if (indent > 0)
                out += ' ';
            value.dumpTo(out, indent, depth + 1);
            if (++i < objV.size())
                out += ',';
            out += nl;
        }
        out += closePad;
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Json
    run()
    {
        Json v = value(0);
        skipWs();
        if (pos != s.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        throw std::runtime_error("json: " + std::string(what)
                                 + " at offset " + std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < s.size() && std::isspace(
                   static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos;
    }

    bool
    consume(const char *lit)
    {
        const std::size_t n = std::string(lit).size();
        if (s.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    /** A value nested in @p depth arrays and objects. */
    Json
    value(int depth)
    {
        skipWs();
        const char c = peek();
        if (c == '{')
            return object(depth + 1);
        if (c == '[')
            return array(depth + 1);
        if (c == '"')
            return Json(string());
        if (consume("true"))
            return Json(true);
        if (consume("false"))
            return Json(false);
        if (consume("null"))
            return Json();
        return number();
    }

    /** Fail at the opening bracket of a container nested too deep. */
    void
    checkDepth(int depth)
    {
        if (depth > Json::kMaxParseDepth)
            fail("nesting too deep");
    }

    Json
    object(int depth)
    {
        checkDepth(depth);
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos;
            return obj;
        }
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            obj.set(key, value(depth));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    array(int depth)
    {
        checkDepth(depth);
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos;
            return arr;
        }
        for (;;) {
            arr.push(value(depth));
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= s.size())
                fail("unterminated string");
            const char c = s[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                fail("unterminated escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    fail("short unicode escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad unicode escape");
                }
                // Basic-plane code points only; encode as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Json
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size()
               && (std::isdigit(static_cast<unsigned char>(s[pos]))
                   || s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E'
                   || s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        try {
            return Json(std::stod(s.substr(start, pos - start)));
        } catch (const std::exception &) {
            fail("malformed number");
        }
    }

    const std::string &s;
    std::size_t pos = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).run();
}

} // namespace support
} // namespace dysel
