/**
 * @file
 * String helpers shared across the library: splitting, prefix tests,
 * namespace extraction from C++-style mangled-readable symbol names,
 * printf-style formatting into std::string, and the command-line tools'
 * numeric flag parser.
 */

#ifndef WEBSLICE_SUPPORT_STRINGS_HH
#define WEBSLICE_SUPPORT_STRINGS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webslice {

/** Split on a single character delimiter; empty fields are kept. */
std::vector<std::string> split(std::string_view text, char delim);

/** True if text begins with prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if text ends with suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Strip leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/**
 * Extract the top-level namespace of a qualified symbol name:
 * "v8::Parser::parseFunction" -> "v8"; names without "::" yield "".
 */
std::string_view topNamespace(std::string_view symbol);

/**
 * Extract the leading namespace path up to depth components:
 * namespacePath("base::threading::MutexLock", 2) -> "base::threading".
 */
std::string namespacePath(std::string_view symbol, int depth);

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Render a byte count with a binary-unit suffix ("1.6 MB"). */
std::string humanBytes(uint64_t bytes);

/** Render an instruction count the way the paper does ("6,217 M"). */
std::string humanMillions(uint64_t count);

/** Insert thousands separators ("1234567" -> "1,234,567"). */
std::string withCommas(uint64_t value);

/**
 * Parse `text` as a decimal integer in [0, max_value] into `value`.
 * Anything else (empty, negative, a leading blank or '+', non-numeric,
 * trailing garbage, or out of range) returns false, leaves `value`
 * alone, and sets `error` to a message naming `what`.
 */
bool tryParseCount(const char *what, const char *text, uint64_t max_value,
                   uint64_t &value, std::string &error);

/**
 * tryParseCount for a command-line flag's value, where a rejection is a
 * usage error: it exits 1 with the message naming the flag.
 */
uint64_t parseCount(const char *flag, const char *text, uint64_t max_value);

} // namespace webslice

#endif // WEBSLICE_SUPPORT_STRINGS_HH
