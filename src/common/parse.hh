/**
 * @file
 * Input from outside the program. Every number a user or a peer hands
 * the program (options, RVP_BENCH_* knobs, JSON numbers, predictor
 * params, frame lengths) goes through parseNumber(), and every broken
 * config rule (validateExperimentConfig) throws ConfigError: tools exit
 * 1 on it, the sweep service answers with a `validation` frame.
 *
 * Grammar (std::from_chars): decimal only, the whole text consumed —
 * no space, no '+', no hex or octal ("010" is ten). Integers: [0-9]+,
 * with a leading '-' for signed types only, that fit the target type
 * (4294967297 is never an `unsigned` 1). Doubles:
 * -?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?, finite; every
 * value jsonNum()'s %.17g writes, subnormals too, reads back exactly.
 */

#ifndef RVP_COMMON_PARSE_HH
#define RVP_COMMON_PARSE_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rvp
{

/**
 * Invalid input from outside the program: a value that does not
 * parse or fit its field, or a configuration that breaks a rule. The
 * message names the field, the value and the rule. Derived by
 * VpConfigError (vp/registry.hh), so one catch covers every kind.
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw ConfigError with a printf-style message. */
[[noreturn, gnu::format(printf, 1, 2)]] inline void
throwConfigError(const char *fmt, ...)
{
    char message[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(message, sizeof(message), fmt, args);
    va_end(args);
    throw ConfigError(message);
}

/** Parse text as a T under the grammar above; false (out untouched)
 *  when it is not one. */
template <typename T>
bool
tryParseNumber(std::string_view text, T &out)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    const char *last = text.data() + text.size();
    T value{};
    std::from_chars_result r = std::from_chars(text.data(), last, value);
    if (r.ec != std::errc() || r.ptr != last)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return false;
    }
    out = value;
    return true;
}

/** Parse text as a T, or throw ConfigError "<field>: '<text>' is not
 *  <what a T is>" (the message is built only on failure). */
template <typename T>
T
parseNumber(std::string_view text, std::string_view field)
{
    T value{};
    if (tryParseNumber(text, value))
        return value;
    using Lim = std::numeric_limits<T>;
    std::string kind = "a finite decimal number";
    if constexpr (std::is_integral_v<T>)
        kind = std::string(Lim::is_signed ? "a decimal integer in ["
                                          : "an unsigned decimal "
                                            "integer in [") +
               std::to_string(Lim::min()) + ", " +
               std::to_string(Lim::max()) + "]";
    throw ConfigError(std::string(field) + ": '" + std::string(text) +
                      "' is not " + kind);
}

/** A comma-separated list option ("go,mgrid"); empty items dropped. */
inline std::vector<std::string>
splitCsv(std::string_view text)
{
    std::vector<std::string> items;
    while (!text.empty()) {
        std::size_t comma = std::min(text.find(','), text.size());
        if (comma > 0)
            items.emplace_back(text.substr(0, comma));
        text.remove_prefix(std::min(comma + 1, text.size()));
    }
    return items;
}

} // namespace rvp

#endif // RVP_COMMON_PARSE_HH
