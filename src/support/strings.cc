#include "support/strings.hh"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace webslice {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        const size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string_view
trim(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
               text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
               text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::string_view
topNamespace(std::string_view symbol)
{
    const size_t pos = symbol.find("::");
    if (pos == std::string_view::npos)
        return {};
    return symbol.substr(0, pos);
}

std::string
namespacePath(std::string_view symbol, int depth)
{
    size_t pos = 0;
    int seen = 0;
    while (seen < depth) {
        const size_t next = symbol.find("::", pos);
        if (next == std::string_view::npos) {
            // Fewer components than requested: the last component is the
            // function name itself, not a namespace; drop it.
            if (seen == 0)
                return {};
            return std::string(symbol.substr(0, pos - 2));
        }
        pos = next + 2;
        ++seen;
    }
    return std::string(symbol.substr(0, pos - 2));
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);

    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string
humanBytes(uint64_t bytes)
{
    if (bytes >= 1024ull * 1024 * 1024) {
        return format("%.1f GB",
                      static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
    }
    if (bytes >= 1024ull * 1024) {
        return format("%.1f MB", static_cast<double>(bytes) / (1024.0 * 1024));
    }
    if (bytes >= 1024) {
        return format("%.0f KB", static_cast<double>(bytes) / 1024.0);
    }
    return format("%llu B", static_cast<unsigned long long>(bytes));
}

std::string
humanMillions(uint64_t count)
{
    const uint64_t millions = count / 1000000ull;
    if (millions > 0)
        return withCommas(millions) + " M";
    return withCommas(count / 1000ull) + " K";
}

std::string
withCommas(uint64_t value)
{
    std::string raw = std::to_string(value);
    std::string out;
    const size_t n = raw.size();
    for (size_t i = 0; i < n; ++i) {
        if (i > 0 && (n - i) % 3 == 0)
            out.push_back(',');
        out.push_back(raw[i]);
    }
    return out;
}

bool
tryParseCount(const char *what, const char *text, uint64_t max_value,
              uint64_t &value, std::string &error)
{
    if (text[0] == '\0') {
        error = format("empty value for %s", what);
        return false;
    }
    if (text[0] == '-') {
        error = format("negative value for %s: '%s'", what, text);
        return false;
    }
    // strtoull alone would also take leading blanks and a '+'.
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0') {
        error = format("non-numeric value for %s: '%s'", what, text);
        return false;
    }
    if (errno == ERANGE || parsed > max_value) {
        error = format("value for %s out of range: '%s' (max %llu)", what,
                       text, static_cast<unsigned long long>(max_value));
        return false;
    }
    value = parsed;
    return true;
}

uint64_t
parseCount(const char *flag, const char *text, uint64_t max_value)
{
    uint64_t value = 0;
    std::string error;
    if (!tryParseCount(flag, text, max_value, value, error))
        fatal(error);
    return value;
}

} // namespace webslice
