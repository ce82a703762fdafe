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
roundUp(std::uint64_t value, std::uint64_t mult)
{
    if (mult == 0)
        panic("roundUp with zero multiple");
    return ceilDiv(value, mult) * mult;
}

std::vector<std::uint64_t>
divisors(std::uint64_t value)
{
    std::vector<std::uint64_t> low;
    std::vector<std::uint64_t> high;
    for (std::uint64_t d = 1; d * d <= value; ++d) {
        if (value % d == 0) {
            low.push_back(d);
            if (d != value / d)
                high.push_back(value / d);
        }
    }
    low.insert(low.end(), high.rbegin(), high.rend());
    return low;
}

std::uint64_t
largestDivisorAtMost(std::uint64_t value, std::uint64_t bound)
{
    if (value == 0 || bound == 0)
        return 1;
    std::uint64_t best = 1;
    for (std::uint64_t d = 1; d * d <= value; ++d) {
        if (value % d != 0)
            continue;
        if (d <= bound)
            best = std::max(best, d);
        std::uint64_t other = value / d;
        if (other <= bound)
            best = std::max(best, other);
    }
    return best;
}

FactorPair
bestFactorPair(std::uint64_t pes, std::uint64_t bound_a,
               std::uint64_t bound_b)
{
    bound_a = std::max<std::uint64_t>(bound_a, 1);
    bound_b = std::max<std::uint64_t>(bound_b, 1);
    pes = std::max<std::uint64_t>(pes, 1);

    FactorPair best{1, 1};
    std::uint64_t best_prod = 1;
    std::uint64_t best_imbalance = ~0ULL;

    // Candidate 'a' values: every value 1..min(bound_a, pes) would be
    // O(pes); restrict to divisors of pes plus the bounds themselves,
    // which always contains the optimum for the product metric.
    std::vector<std::uint64_t> cands = divisors(pes);
    cands.push_back(std::min(bound_a, pes));
    for (std::uint64_t a : cands) {
        if (a > bound_a || a == 0)
            continue;
        std::uint64_t b = std::min(bound_b, pes / a);
        if (b == 0)
            continue;
        std::uint64_t prod = a * b;
        std::uint64_t imbalance = a > b ? a - b : b - a;
        if (prod > best_prod ||
            (prod == best_prod && imbalance < best_imbalance)) {
            best_prod = prod;
            best_imbalance = imbalance;
            best = FactorPair{a, b};
        }
    }
    return best;
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
