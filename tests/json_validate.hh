/**
 * @file json_validate.hh
 * Strict JSON validator for the tests: checks that emitted trace,
 * sample and stats files actually parse. No DOM — the simulator only
 * ever writes JSON, never consumes it.
 */

#ifndef FDIP_TESTS_JSON_VALIDATE_HH
#define FDIP_TESTS_JSON_VALIDATE_HH

#include <cctype>
#include <string>

namespace fdip
{

/** Recursive-descent cursor over the text being validated. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text(text) {}

    /** One complete value and nothing after it. */
    bool
    document()
    {
        if (!value())
            return false;
        skipWs();
        return atEnd() || fail("trailing garbage");
    }

    const std::string &error() const { return err; }

  private:
    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(pos);
        return false;
    }

    bool atEnd() const { return pos >= text.size(); }

    char peek() const { return atEnd() ? '\0' : text[pos]; }

    bool
    digit() const
    {
        return std::isdigit(static_cast<unsigned char>(peek())) != 0;
    }

    void
    skipWs()
    {
        while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
               peek() == '\r')
            ++pos;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p, ++pos) {
            if (peek() != *p)
                return fail(std::string("expected '") + word + "'");
        }
        return true;
    }

    bool
    string()
    {
        if (peek() != '"')
            return fail("expected string");
        for (++pos;; ++pos) {
            if (atEnd())
                return fail("unterminated string");
            unsigned char c = static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\')
                continue;
            ++pos;
            char e = peek();
            if (e == 'u') {
                for (int i = 0; i < 4; ++i) {
                    ++pos;
                    if (!std::isxdigit(static_cast<unsigned char>(peek())))
                        return fail("bad \\u escape");
                }
            } else if (std::string("\"\\/bfnrt").find(e) ==
                       std::string::npos) {
                return fail("bad escape character");
            }
        }
    }

    bool
    number()
    {
        if (peek() == '-')
            ++pos;
        if (!digit())
            return fail("expected digit");
        if (peek() == '0') {
            ++pos;
        } else {
            while (digit())
                ++pos;
        }
        if (peek() == '.') {
            ++pos;
            if (!digit())
                return fail("expected fraction digit");
            while (digit())
                ++pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos;
            if (peek() == '+' || peek() == '-')
                ++pos;
            if (!digit())
                return fail("expected exponent digit");
            while (digit())
                ++pos;
        }
        return true;
    }

    bool
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return members('}', true);
          case '[':
            return members(']', false);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    /** The body of an object (keyed) or array, after its opener. */
    bool
    members(char close, bool keyed)
    {
        ++pos;
        skipWs();
        if (peek() == close) {
            ++pos;
            return true;
        }
        while (true) {
            if (keyed) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (peek() != ':')
                    return fail("expected ':'");
                ++pos;
            }
            if (!value())
                return false;
            skipWs();
            if (peek() == close) {
                ++pos;
                return true;
            }
            if (peek() != ',')
                return fail(std::string("expected ',' or '") + close + "'");
            ++pos;
        }
    }

    const std::string &text;
    std::size_t pos = 0;
    std::string err;
};

/**
 * Strict check that @p text is one complete JSON value (RFC 8259).
 * Returns false and fills @p error (if non-null) with a
 * position-annotated message on the first violation.
 */
inline bool
jsonValidate(const std::string &text, std::string *error = nullptr)
{
    JsonParser p(text);
    bool ok = p.document();
    if (!ok && error != nullptr)
        *error = p.error();
    return ok;
}

} // namespace fdip

#endif // FDIP_TESTS_JSON_VALIDATE_HH
