// Locale-independent double parsing for the wire protocol and CLI input.
// std::from_chars always uses the '.' radix and never consults
// LC_NUMERIC, so a query reads "2.5e-12" identically whether the
// embedding process runs under "C" or a comma-radix locale like de_DE
// (strtod/std::stod would stop at the '.' and silently drop the fraction).
#ifndef MCSM_COMMON_FP_TEXT_H
#define MCSM_COMMON_FP_TEXT_H

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

namespace mcsm {

// Parses a whole token as a decimal (or scientific) double. Returns false
// for empty tokens, trailing garbage, or non-finite results -- a network
// peer cannot smuggle "inf"/"nan" into a query.
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
