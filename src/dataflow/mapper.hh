/**
 * @file
 * Mapping construction: binds a dataflow style to a concrete layer on
 * a concrete PE array, choosing spatial unrolling and tile sizes.
 *
 * Each style keeps its published parallelization strategy pure — that
 * purity is precisely what creates the per-layer preferences HDAs
 * exploit (Sec. II-B): NVDLA unrolls K x C, Shi-diannao unrolls
 * Y' x X', Eyeriss unrolls Y' x R. Tile sizes are chosen to maximize
 * mapping utilization subject to register-file and global-buffer
 * staging capacity.
 */

#pragma once

#include <cstdint>

#include "dataflow/loop_nest.hh"
#include "dataflow/style.hh"
#include "dnn/layer.hh"

namespace herald::dataflow
{

/** Per-PE register file bytes (every style, every array size). */
inline constexpr std::uint64_t kL1Bytes = 512;

/** Hardware constraints the mapper must respect. */
struct MapperConstraints
{
    std::uint64_t numPes = 256;       //!< PEs of the sub-accelerator
    std::uint64_t l2TileBudgetBytes = 1ULL << 20; //!< staging budget
};

/**
 * Build the mapping of @p layer under @p style on hardware @p hw.
 * Always succeeds: every style degrades gracefully (possibly to very
 * low utilization, which is the phenomenon the paper studies).
 */
Mapping buildMapping(DataflowStyle style, const dnn::Layer &layer,
                     const MapperConstraints &hw);

/** As above but directly from a canonical convolution. */
Mapping buildMapping(DataflowStyle style,
                     const dnn::CanonicalConv &conv,
                     const MapperConstraints &hw);

} // namespace herald::dataflow

