/**
 * @file
 * Reuse analysis: derives per-tensor data-movement volumes from a
 * mapping, following MAESTRO's methodology (Sec. IV-B of the paper):
 * identify the amount of reuse, then derive activity counts (energy)
 * and communication volumes (latency) from it.
 *
 * The central primitive is the refetch factor: scanning the tile-
 * sequencing (outer temporal) loops from innermost to outermost, a
 * tensor stays resident across loops over dimensions it does not
 * reference until the first referencing loop replaces its tile; every
 * loop outside that point multiplies the number of tile deliveries.
 * Spatial reuse appears as the ratio between the summed per-PE tiles
 * and their union (multicast), and spatial reduction as unrolled
 * reduction dimensions (NVDLA's adder tree, Eyeriss' row accumulation).
 */

#pragma once

#include <array>
#include <cstdint>

#include "dataflow/loop_nest.hh"

namespace herald::cost
{

/** Data-movement summary for one tensor of one mapped layer. */
struct TensorTraffic
{
    std::uint64_t unionTileElems = 0; //!< union footprint per delivery
    std::uint64_t sumTileElems = 0;   //!< summed per-PE footprints
    std::uint64_t refetch = 0;        //!< deliveries of the union tile
    std::uint64_t wholeElems = 0;     //!< padded whole-layer footprint

    /** Average PEs sharing each delivered word (spatial reuse). */
    double
    multicast() const
    {
        if (unionTileElems == 0)
            return 1.0;
        return static_cast<double>(sumTileElems) /
               static_cast<double>(unionTileElems);
    }

    /** Total words read from the global buffer onto the NoC. */
    std::uint64_t
    l2Words() const
    {
        return unionTileElems * refetch;
    }
};

/** Full reuse report for a mapping. */
struct ReuseReport
{
    std::array<TensorTraffic, 3> tensor; //!< indexed by TensorKind

    std::uint64_t spatialSize = 1;   //!< PEs occupied
    std::uint64_t outerIters = 1;    //!< product of outer-loop trips
    std::uint64_t innerMacsPerPe = 1; //!< MACs per PE per outer iter
    std::uint64_t spatialReduction = 1; //!< unrolled reduction width
    /**
     * Temporal accumulation run length: product of the innermost
     * consecutive reduction loops of the per-PE nest. A partial sum
     * stays in the PE's accumulator for this many MACs before the
     * register file is touched (the essence of output-stationary
     * dataflows).
     */
    std::uint64_t innerAccumRun = 1;

    const TensorTraffic &
    of(dataflow::TensorKind t) const
    {
        return tensor[static_cast<std::size_t>(t)];
    }

    /** Output words written to L2 (final results + partial sums). */
    std::uint64_t
    outputWrites() const
    {
        return of(dataflow::TensorKind::Output).l2Words();
    }

    /** Partial-sum words read back from L2 for re-accumulation. */
    std::uint64_t
    outputReadbacks() const
    {
        const TensorTraffic &out =
            of(dataflow::TensorKind::Output);
        std::uint64_t writes = out.l2Words();
        return writes > out.wholeElems ? writes - out.wholeElems : 0;
    }
};

/** Analyze @p mapping and return its reuse report. */
ReuseReport analyzeMapping(const dataflow::Mapping &mapping);

/**
 * Refetch factor of @p tensor over the given tile-sequencing loops
 * (outer to inner): walking from the innermost loop outward,
 * irrelevant loops are free until the first relevant loop replaces
 * the tile; every loop outside that point multiplies deliveries.
 */
std::uint64_t refetchFactor(const dnn::CanonicalConv &conv,
                            dataflow::TensorKind tensor,
                            const std::vector<dataflow::LoopLevel>
                                &outer_loops);

} // namespace herald::cost

