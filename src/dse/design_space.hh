/**
 * @file
 * Hardware-partitioning design space (paper Sec. IV-C): enumeration
 * of PE and bandwidth splits across sub-accelerators at a user-chosen
 * granularity, with exhaustive, binary (coarse-to-fine), random and
 * simulated-annealing search strategies. Annealing is not an
 * up-front enumeration — proposals depend on evaluated costs — so
 * this file only supplies its move kernel (randomCandidate /
 * neighborCandidate); the accept/reject driver lives in
 * Herald::explore (see docs/DSE.md).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/math_utils.hh"

namespace herald::dse
{

/**
 * All ways to split @p units indivisible units across @p ways parts,
 * each part >= @p min_units (default 1). Order matters (parts are
 * per-sub-accelerator). E.g. splitting 4 units 2 ways: {1,3} {2,2}
 * {3,1}.
 */
std::vector<std::vector<std::uint64_t>>
enumerateCompositions(std::uint64_t units, std::size_t ways,
                      std::uint64_t min_units = 1);

/** One candidate hardware partitioning. */
struct PartitionCandidate
{
    std::vector<std::uint64_t> peSplit; //!< PEs per sub-accelerator
    std::vector<double> bwSplit;        //!< GB/s per sub-accelerator
};

/** How the partition space is traversed. */
enum class SearchStrategy
{
    Exhaustive, //!< full grid at the given granularity
    Binary,     //!< coarse grid, then refine around the best
    Random,     //!< uniform samples from the fine grid
    Annealing,  //!< simulated annealing (driver in Herald::explore)
};

const char *toString(SearchStrategy strategy);

/**
 * Simulated-annealing parameters (SearchStrategy::Annealing). The
 * schedule is geometric: iteration i of every chain runs at
 * temperature 0.10 * 0.97^i (kAnnealInitialTemp, kAnnealCooling in
 * herald_dse.cc), and a worse proposal with relative regression r is
 * accepted with probability exp(-r / T).
 * All randomness flows from per-chain SplitMix64 streams derived
 * from PartitionSpaceOptions::seed, so a run is a pure function of
 * (workload, chip, options) — independent of HERALD_THREADS.
 */
struct AnnealingOptions
{
    /** Independent chains per iteration batch (parallel width). */
    std::size_t chains = 8;
    /** Metropolis iterations per chain. */
    std::size_t iterations = 256;
    /**
     * Stop once this many *distinct* candidates have been evaluated
     * (revisits are memoized and free); 0 means no cap. The cap is
     * checked between iteration batches, so up to `chains` fresh
     * evaluations may land past it.
     */
    std::size_t maxEvaluations = 0;
};

/** Partition-space generation parameters. */
struct PartitionSpaceOptions
{
    /** PE step; 0 selects totalPes / 16. */
    std::uint64_t peGranularity = 0;
    /** Bandwidth step in GB/s; 0 selects totalBw / 8. */
    double bwGranularity = 0.0;
    SearchStrategy strategy = SearchStrategy::Exhaustive;
    /** Sample count for SearchStrategy::Random. */
    std::size_t randomSamples = 64;
    /** PRNG seed for Random and Annealing (deterministic). */
    std::uint64_t seed = 1;
    /** Metaheuristic knobs for SearchStrategy::Annealing. */
    AnnealingOptions annealing;
};

/**
 * Generate the partition candidates for @p ways sub-accelerators on a
 * chip with @p total_pes and @p total_bw. For Binary, this returns
 * the coarse grid; refinement happens in the DSE driver.
 */
std::vector<PartitionCandidate>
generateCandidates(std::uint64_t total_pes, double total_bw,
                   std::size_t ways,
                   const PartitionSpaceOptions &opts);

/**
 * Candidates near @p center : every PE/BW split whose parts differ
 * from the center by at most one @p opts step (used by the Binary
 * strategy's refinement).
 */
std::vector<PartitionCandidate>
refineAround(const PartitionCandidate &center, std::uint64_t total_pes,
             double total_bw, const PartitionSpaceOptions &opts);

/**
 * A uniformly random point of the fine grid (each axis an
 * independent uniform composition), for annealing chain starts.
 * Consumes a deterministic amount of @p rng state per call.
 */
PartitionCandidate randomCandidate(std::uint64_t total_pes,
                                   double total_bw, std::size_t ways,
                                   const PartitionSpaceOptions &opts,
                                   util::SplitMix64 &rng);

/**
 * One annealing move from @p center : transfer a single granularity
 * step of one axis (PE or bandwidth, coin-flipped) from a random
 * donor sub-accelerator to a random distinct receiver. Moves that
 * would push the donor below one step are redrawn a bounded number
 * of times; if none lands, @p center is returned unchanged (the
 * chain stays put for that iteration). Totals are conserved by
 * construction, so every neighbor is a valid fine-grid point.
 */
PartitionCandidate neighborCandidate(const PartitionCandidate &center,
                                     std::uint64_t total_pes,
                                     double total_bw,
                                     const PartitionSpaceOptions &opts,
                                     util::SplitMix64 &rng);

} // namespace herald::dse

