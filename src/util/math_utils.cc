#include "util/math_utils.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace herald::util
{

std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    if (den == 0)
        panic("ceilDiv by zero (num=", num, ")");
    return (num + den - 1) / den;
}

std::uint64_t
isqrt(std::uint64_t value)
{
    if (value == 0)
        return 0;
    std::uint64_t r = static_cast<std::uint64_t>(
        std::max(1.0, std::min((double)value,
                               __builtin_sqrt((double)value))));
    while (r * r > value)
        --r;
    while ((r + 1) * (r + 1) <= value)
        ++r;
    return r;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace herald::util
