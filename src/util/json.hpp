/**
 * @file
 * Minimal header-only JSON support without an external dependency:
 * the one number formatter every emitter shares, and a parser just
 * large enough to validate the emitted documents (metrics dumps,
 * Chrome trace-event files, reports, job records). The parser is
 * strict on structure, permissive on nothing: any malformed input
 * returns std::nullopt rather than a partial tree.
 */

#ifndef MINNOC_UTIL_JSON_HPP
#define MINNOC_UTIL_JSON_HPP

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace minnoc::json {

/** %.17g — enough digits for exact double round-tripping. */
inline std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** @p raw as the body of a JSON string literal (ASCII-safe). */
inline std::string
escape(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size() + raw.size() / 8);
    for (const char c : raw) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", u);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/** One JSON value: null / bool / number / string / array / object. */
class Value
{
  public:
    Value() : _data(nullptr) {}
    Value(std::nullptr_t) : _data(nullptr) {}
    Value(bool b) : _data(b) {}
    Value(double d) : _data(d) {}
    Value(std::string s) : _data(std::move(s)) {}
    Value(Array a) : _data(std::move(a)) {}
    Value(Object o) : _data(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(_data); }
    bool isBool() const { return std::holds_alternative<bool>(_data); }
    bool isNumber() const { return std::holds_alternative<double>(_data); }
    bool isString() const { return std::holds_alternative<std::string>(_data); }
    bool isArray() const { return std::holds_alternative<Array>(_data); }
    bool isObject() const { return std::holds_alternative<Object>(_data); }

    bool asBool() const { return std::get<bool>(_data); }
    double asNumber() const { return std::get<double>(_data); }
    const std::string &asString() const { return std::get<std::string>(_data); }
    const Array &asArray() const { return std::get<Array>(_data); }
    const Object &asObject() const { return std::get<Object>(_data); }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (!isObject())
            return nullptr;
        const auto &obj = asObject();
        const auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        _data;
};

namespace detail {

class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    std::optional<Value>
    run()
    {
        skipWs();
        auto v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (_pos != _text.size())
            return std::nullopt; // trailing garbage
        return v;
    }

  private:
    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    consume(char c)
    {
        if (_pos < _text.size() && _text[_pos] == c) {
            ++_pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (_text.compare(_pos, n, word) == 0) {
            _pos += n;
            return true;
        }
        return false;
    }

    std::optional<Value>
    parseValue()
    {
        if (_pos >= _text.size())
            return std::nullopt;
        switch (_text[_pos]) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return Value(std::move(*s));
        }
        case 't':
            return literal("true") ? std::optional<Value>(Value(true))
                                   : std::nullopt;
        case 'f':
            return literal("false") ? std::optional<Value>(Value(false))
                                    : std::nullopt;
        case 'n':
            return literal("null")
                       ? std::optional<Value>(Value(nullptr))
                       : std::nullopt;
        default: return parseNumber();
        }
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (_pos < _text.size()) {
            const char c = _text[_pos++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (_pos >= _text.size())
                    return std::nullopt;
                const char esc = _text[_pos++];
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (_pos + 4 > _text.size())
                        return std::nullopt;
                    const auto hex = _text.substr(_pos, 4);
                    char *end = nullptr;
                    const long cp =
                        std::strtol(hex.c_str(), &end, 16);
                    if (end != hex.c_str() + 4)
                        return std::nullopt;
                    _pos += 4;
                    // ASCII-only escapes are all our emitters produce;
                    // encode anything else as UTF-8 (no surrogates).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default: return std::nullopt;
                }
            } else {
                out += c;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<Value>
    parseNumber()
    {
        const std::size_t start = _pos;
        if (_pos < _text.size() && _text[_pos] == '-')
            ++_pos;
        while (_pos < _text.size() &&
               (std::isdigit(static_cast<unsigned char>(_text[_pos])) ||
                _text[_pos] == '.' || _text[_pos] == 'e' ||
                _text[_pos] == 'E' || _text[_pos] == '+' ||
                _text[_pos] == '-'))
            ++_pos;
        if (_pos == start)
            return std::nullopt;
        const std::string tok = _text.substr(start, _pos - start);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return std::nullopt;
        return Value(v);
    }

    std::optional<Value>
    parseArray()
    {
        if (!consume('['))
            return std::nullopt;
        Array arr;
        skipWs();
        if (consume(']'))
            return std::optional<Value>(std::in_place, std::move(arr));
        while (true) {
            skipWs();
            auto v = parseValue();
            if (!v)
                return std::nullopt;
            arr.push_back(std::move(*v));
            skipWs();
            if (consume(']'))
                return std::optional<Value>(std::in_place, std::move(arr));
            if (!consume(','))
                return std::nullopt;
        }
    }

    std::optional<Value>
    parseObject()
    {
        if (!consume('{'))
            return std::nullopt;
        Object obj;
        skipWs();
        if (consume('}'))
            return std::optional<Value>(std::in_place, std::move(obj));
        while (true) {
            skipWs();
            auto key = parseString();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':'))
                return std::nullopt;
            skipWs();
            auto v = parseValue();
            if (!v)
                return std::nullopt;
            obj.emplace(std::move(*key), std::move(*v));
            skipWs();
            if (consume('}'))
                return std::optional<Value>(std::in_place, std::move(obj));
            if (!consume(','))
                return std::nullopt;
        }
    }

    const std::string &_text;
    std::size_t _pos = 0;
};

} // namespace detail

/** Parse @p text; std::nullopt on any syntax error. */
inline std::optional<Value>
parse(const std::string &text)
{
    return detail::Parser(text).run();
}

} // namespace minnoc::json

#endif // MINNOC_UTIL_JSON_HPP
