/**
 * @file
 * Small integer-math helpers shared by the mapper, cost model and DSE.
 */

#pragma once

#include <cstdint>

namespace herald::util
{

/** Ceiling division for unsigned integers; ceilDiv(x, 0) panics. */
std::uint64_t ceilDiv(std::uint64_t num, std::uint64_t den);

/** Integer floor of sqrt. */
std::uint64_t isqrt(std::uint64_t value);

/** Bit pattern of a double, for exact-identity cache keys. */
std::uint64_t doubleBits(double value);

/**
 * Deterministic 64-bit PRNG (splitmix64). Herald never uses
 * std::random_device so that every DSE run is reproducible.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, bound). @p bound must be > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        return next() % bound;
    }

    /**
     * Uniform double in [0, 1): the top 53 bits of next(), scaled.
     * Exactly reproducible across platforms (a single multiply of an
     * integer by a power of two), which the annealing acceptance
     * test relies on for bit-identical reruns.
     */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state;
};

} // namespace herald::util

