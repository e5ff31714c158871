// Round-trip-exact text formatting for doubles. The model/table text
// exports must reload bit-identically (tests assert bit-exactness against
// the pack encoding), so values are written as C99 hexadecimal float
// literals ("%a", e.g. 0x1.8p+3) and parsed with strtod, which accepts both
// hex and the legacy decimal files. iostream operator>> is avoided on the
// read side because libstdc++ does not parse hexfloat through num_get.
//
// Locale handling: printf/strtod use the process LC_NUMERIC radix
// character. Files must stay portable across locales, so the writer
// normalizes the radix to '.' and the reader maps '.' back to the current
// locale's radix before strtod -- an embedding application that calls
// setlocale(LC_NUMERIC, "de_DE...") can still read caches written under
// the C locale and vice versa.
#ifndef MCSM_COMMON_FP_TEXT_H
#define MCSM_COMMON_FP_TEXT_H

#include <cctype>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>

namespace mcsm {

// Writes v as a hexadecimal float literal; parse_exact_double returns v
// bit-exactly for every finite double, including subnormals and -0.0.
inline void write_exact_double(std::ostream& os, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    if (std::isfinite(v)) {
        // The only non-[0-9a-fA-FxXpP+-] character %a can emit for a
        // finite value is the locale radix; normalize it to '.'.
        for (char* p = buf; *p != '\0'; ++p) {
            const unsigned char c = static_cast<unsigned char>(*p);
            if (!std::isxdigit(c) && *p != 'x' && *p != 'X' && *p != 'p' &&
                *p != 'P' && *p != '+' && *p != '-')
                *p = '.';
        }
    }
    os << buf;
}

// Parses a whole token as a double (hexfloat or decimal, '.' radix).
// Returns false when the token is empty or has trailing garbage.
inline bool parse_exact_double(const std::string& token, double& out) {
    if (token.empty()) return false;
    const char* radix = std::localeconv()->decimal_point;
    char* end = nullptr;
    if (radix == nullptr || std::strcmp(radix, ".") == 0) {
        out = std::strtod(token.c_str(), &end);
        return end == token.c_str() + token.size();
    }
    // Non-'.' locale: strtod expects the locale radix, files use '.'.
    std::string local = token;
    const std::size_t dot = local.find('.');
    if (dot != std::string::npos) local.replace(dot, 1, radix);
    out = std::strtod(local.c_str(), &end);
    return end == local.c_str() + local.size();
}

// Parses a whole token as a decimal (or scientific) double, LOCALE-
// INDEPENDENTLY: std::from_chars always uses the '.' radix and never
// consults LC_NUMERIC, so a wire protocol parsed through here reads
// "2.5e-12" identically whether the embedding process runs under "C" or a
// comma-radix locale like de_DE (strtod/std::stod would stop at the '.'
// and silently drop the fraction). Returns false for empty tokens,
// trailing garbage, or non-finite results -- a network peer cannot smuggle
// "inf"/"nan" into a query. This is the parser for NETWORK/CLI input;
// store files keep parse_exact_double (hexfloat via strtod).
inline bool parse_double_token(std::string_view token, double& out) {
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc() || end != token.data() + token.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

}  // namespace mcsm

#endif  // MCSM_COMMON_FP_TEXT_H
