/**
 * @file
 * Minimal single-line JSON parser for exactly the subset this repo's
 * own serializers emit: one object per line; string / number / bool
 * values; nested objects (journal "stats" maps) and arrays (a service
 * submit's run specs). Any deviation — a torn line from a killed
 * writer, hand-edited garbage, trailing bytes — throws, and callers
 * skip or refuse the line instead of misreading it.
 *
 * Shared by the run journal (sim/journal.cc), the sweep-service wire
 * protocol (service/protocol.cc) and its result store
 * (service/store.cc), so the two sides of every file and socket format
 * in the tree agree on one grammar.
 */

#ifndef RVP_COMMON_JSONLITE_HH
#define RVP_COMMON_JSONLITE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rvp
{

/** One parsed JSON value (string / number / bool / object / array). */
struct JsonValue
{
    enum class Kind { Str, Num, Bool, Obj, Arr };
    Kind kind = Kind::Num;
    std::string str;   ///< Str: unescaped text; Num: raw token
    bool boolean = false;
    std::map<std::string, JsonValue> obj;
    std::vector<JsonValue> arr;

    double num() const;
    std::uint64_t u64() const;
};

/**
 * Parse one complete JSON object line. Throws std::runtime_error on
 * any syntax error, unsupported construct, or trailing non-space
 * bytes after the closing brace (a torn journal line).
 */
std::map<std::string, JsonValue> parseJsonLine(const std::string &line);

/** Required-field lookup; throws std::runtime_error when absent. */
const JsonValue &jsonField(const std::map<std::string, JsonValue> &obj,
                           const char *name);

} // namespace rvp

#endif // RVP_COMMON_JSONLITE_HH
