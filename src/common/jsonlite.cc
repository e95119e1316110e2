#include "common/jsonlite.hh"

#include <cstring>
#include <stdexcept>

namespace rvp
{

namespace
{

struct LineParser
{
    const char *p;
    const char *end;

    explicit LineParser(const std::string &line)
        : p(line.data()), end(line.data() + line.size())
    {
    }

    [[noreturn]] void fail() { throw std::runtime_error("bad json line"); }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t'))
            ++p;
    }

    char
    peek()
    {
        skipWs();
        if (p >= end)
            fail();
        return *p;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail();
        ++p;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (p < end && *p != '"') {
            char c = *p++;
            if (c == '\\') {
                if (p >= end)
                    fail();
                c = *p++;
            }
            out += c;
        }
        if (p >= end)
            fail();
        ++p;   // closing quote
        return out;
    }

    JsonValue
    parseValue()
    {
        JsonValue v;
        char c = peek();
        if (c == '"') {
            v.kind = JsonValue::Kind::Str;
            v.str = parseString();
        } else if (c == '{') {
            v.kind = JsonValue::Kind::Obj;
            v.obj = parseObject();
        } else if (c == '[') {
            v.kind = JsonValue::Kind::Arr;
            v.arr = parseArray();
        } else if (c == 't' || c == 'f') {
            v.kind = JsonValue::Kind::Bool;
            const char *word = c == 't' ? "true" : "false";
            std::size_t len = std::strlen(word);
            if (end - p < static_cast<std::ptrdiff_t>(len) ||
                std::strncmp(p, word, len) != 0)
                fail();
            p += len;
            v.boolean = c == 't';
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            v.kind = JsonValue::Kind::Num;
            const char *start = p;
            while (p < end &&
                   (*p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                    *p == 'E' || (*p >= '0' && *p <= '9')))
                ++p;
            v.str.assign(start, p);
        } else {
            fail();
        }
        return v;
    }

    std::vector<JsonValue>
    parseArray()
    {
        std::vector<JsonValue> arr;
        expect('[');
        if (peek() == ']') {
            ++p;
            return arr;
        }
        for (;;) {
            arr.push_back(parseValue());
            char c = peek();
            ++p;
            if (c == ']')
                return arr;
            if (c != ',')
                fail();
        }
    }

    JsonObject
    parseObject()
    {
        JsonObject obj;
        expect('{');
        if (peek() == '}') {
            ++p;
            return obj;
        }
        for (;;) {
            std::string key = parseString();
            expect(':');
            obj.emplace(std::move(key), parseValue());
            char c = peek();
            ++p;
            if (c == '}')
                return obj;
            if (c != ',')
                fail();
        }
    }
};

} // namespace

JsonObject
parseJsonLine(const std::string &line)
{
    LineParser parser(line);
    JsonObject obj = parser.parseObject();
    // Trailing garbage after the closing brace = torn line.
    parser.skipWs();
    if (parser.p != parser.end)
        throw std::runtime_error("trailing bytes");
    return obj;
}

const JsonValue &
jsonField(const JsonObject &obj, const char *name)
{
    auto it = obj.find(name);
    if (it == obj.end())
        throw std::runtime_error(std::string("missing field ") + name);
    return it->second;
}

} // namespace rvp
