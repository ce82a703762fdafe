#include "dataflow/mapper.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace herald::dataflow
{

namespace
{

using util::ceilDiv;
using util::isqrt;

/**
 * Append a loop level. Single-trip temporal loops are degenerate and
 * skipped; single-trip spatial loops are kept so that the nest always
 * has a well-defined spatial cut (the inner/outer split must not
 * change shape for degenerate layers such as FCs).
 */
void
addLoop(std::vector<LoopLevel> &nest, Dim dim, std::uint64_t trips,
        LoopKind kind)
{
    if (kind == LoopKind::Spatial || trips > 1)
        nest.push_back(LoopLevel{dim, trips, kind});
}

/** Elements that fit in the per-PE register file. */
constexpr std::uint64_t kL1Elems =
    std::max<std::uint64_t>(8, kL1Bytes / dnn::kDataBytes);

/** Input rows/cols covered by an output extent and filter extent. */
std::uint64_t
haloExtent(const dnn::CanonicalConv &conv, std::uint64_t out_extent,
           std::uint64_t filter_extent)
{
    if (out_extent == 0)
        return filter_extent;
    return (out_extent - 1) * conv.strideNum / conv.strideDen +
           filter_extent;
}

/**
 * NVDLA-style weight-stationary mapping (paper Fig. 4a).
 *
 * The array is *wired* as k0 x c0 lanes with the published 1:4
 * output-to-input-channel ratio (NVDLA-large is 16x64): inputs are
 * multicast across the k0 rows and partial sums accumulate spatially
 * down the c0 adder trees. A layer only occupies min(K, k0) x
 * min(C, c0) lanes — this rigidity is exactly what makes an FDA
 * collapse on shallow-channel and depthwise layers (Fig. 5: 37.5%
 * and 12.5% utilization on a 16-PE array).
 */
Mapping
mapNvdla(const dnn::CanonicalConv &conv, const MapperConstraints &hw)
{
    const std::uint64_t k0 =
        std::max<std::uint64_t>(1, isqrt(hw.numPes) / 2);
    const std::uint64_t c0 = std::max<std::uint64_t>(1,
                                                     hw.numPes / k0);

    const std::uint64_t k_used = std::min(conv.k, k0);
    const std::uint64_t c_used =
        conv.depthwise ? 1 : std::min(conv.c, c0);
    const std::uint64_t k1 = ceilDiv(conv.k, k_used);
    const std::uint64_t c1 = ceilDiv(conv.c, c_used);

    // Per-PE output block (ty x tx): weights (r*s) stay resident and
    // sweep a whole block per pass, amortizing the input halo; the
    // input window and the psum block share the rest of the RF. The
    // block edge is chosen to minimize ceil-padding first (a 14x14
    // map tiles as 7, not 8), then maximized.
    auto pick_block = [](std::uint64_t extent) {
        std::uint64_t best = 1;
        std::uint64_t best_padded = ~0ULL;
        for (std::uint64_t t = 1;
             t <= std::min<std::uint64_t>(extent, 8); ++t) {
            std::uint64_t padded = util::ceilDiv(extent, t) * t;
            if (padded < best_padded ||
                (padded == best_padded && t > best)) {
                best_padded = padded;
                best = t;
            }
        }
        return best;
    };
    std::uint64_t ty = pick_block(conv.oy);
    std::uint64_t tx = pick_block(conv.ox);
    auto fits_l1 = [&](std::uint64_t by, std::uint64_t bx) {
        std::uint64_t wt = conv.r * conv.s;
        std::uint64_t in = haloExtent(conv, by, conv.r) *
                           haloExtent(conv, bx, conv.s);
        std::uint64_t ps = by * bx;
        return wt + in + ps <= kL1Elems;
    };
    while (ty * tx > 1 && !fits_l1(ty, tx)) {
        if (ty >= tx)
            ty = std::max<std::uint64_t>(1, ty - 1);
        else
            tx = std::max<std::uint64_t>(1, tx - 1);
    }

    // Global-buffer staging: shrink the block until the array tile
    // (all three tensors, double buffered) fits the budget.
    auto l2_bytes = [&](std::uint64_t by, std::uint64_t bx) {
        std::uint64_t in = c_used * haloExtent(conv, by, conv.r) *
                           haloExtent(conv, bx, conv.s);
        std::uint64_t wt = conv.depthwise
                               ? k_used * conv.r * conv.s
                               : k_used * c_used * conv.r * conv.s;
        std::uint64_t out = k_used * by * bx;
        return 2 * (in + wt + out) * dnn::kDataBytes;
    };
    while (ty * tx > 1 && l2_bytes(ty, tx) > hw.l2TileBudgetBytes) {
        if (ty >= tx)
            ty = std::max<std::uint64_t>(1, ty / 2);
        else
            tx = std::max<std::uint64_t>(1, tx / 2);
    }

    const std::uint64_t y1 = ceilDiv(conv.oy, ty);
    const std::uint64_t x1 = ceilDiv(conv.ox, tx);

    std::vector<LoopLevel> nest;
    addLoop(nest, Dim::K, k1, LoopKind::Temporal);
    addLoop(nest, Dim::K, k_used, LoopKind::Spatial);
    addLoop(nest, Dim::C, c1, LoopKind::Temporal);
    addLoop(nest, Dim::OY, y1, LoopKind::Temporal);
    addLoop(nest, Dim::OX, x1, LoopKind::Temporal);
    addLoop(nest, Dim::C, c_used, LoopKind::Spatial);
    addLoop(nest, Dim::R, conv.r, LoopKind::Temporal);
    addLoop(nest, Dim::S, conv.s, LoopKind::Temporal);
    addLoop(nest, Dim::OY, ty, LoopKind::Temporal);
    addLoop(nest, Dim::OX, tx, LoopKind::Temporal);
    return Mapping(conv, std::move(nest), hw.numPes);
}

/**
 * Shi-diannao-style output-stationary mapping (paper Fig. 4b).
 *
 * The array is a square grid of output pixels (the chip's Px x Py
 * plane); each PE accumulates its pixel over C, R, S temporally and
 * additionally carries kt output maps in its register file (the
 * chip's Pf dimension), so inputs stream in once per ceil(K/kt)
 * passes rather than once per output map. Neighboring PEs share
 * input halos (convolutional reuse). A layer occupies min(OY, y0) x
 * min(OX, x0) PEs — tiny activations (late layers, FCs) strand the
 * array.
 */
Mapping
mapShiDiannao(const dnn::CanonicalConv &conv,
              const MapperConstraints &hw)
{
    const std::uint64_t y0 =
        std::max<std::uint64_t>(1, isqrt(hw.numPes));
    const std::uint64_t x0 = std::max<std::uint64_t>(1,
                                                     hw.numPes / y0);
    const std::uint64_t y_used = std::min(conv.oy, y0);
    const std::uint64_t x_used = std::min(conv.ox, x0);
    const std::uint64_t y1 = ceilDiv(conv.oy, y_used);
    const std::uint64_t x1 = ceilDiv(conv.ox, x_used);

    // Output maps held per PE (the chip's Pf dimension): one NBout
    // psum entry per held map; 32 maps is well within ShiDianNao's
    // NBout capacity and amortizes input streaming across K.
    std::uint64_t kt = std::min<std::uint64_t>(conv.k, 32);
    while (kt > 1 && kt + 2 > kL1Elems)
        kt /= 2;

    // Channel tile: stream as many input channels as the staging
    // budget allows per array tile; the remainder becomes an outer
    // channel loop (psums stay pinned in the PEs either way). When
    // even a single channel slice overflows, shed output maps too.
    std::uint64_t ct = std::max<std::uint64_t>(1, conv.c);
    auto l2_bytes = [&](std::uint64_t t) {
        std::uint64_t ch = conv.depthwise ? kt : t;
        std::uint64_t in = ch * haloExtent(conv, y_used, conv.r) *
                           haloExtent(conv, x_used, conv.s);
        std::uint64_t wt = (conv.depthwise ? kt : kt * t) * conv.r *
                           conv.s;
        std::uint64_t out = kt * y_used * x_used;
        return 2 * (in + wt + out) * dnn::kDataBytes;
    };
    while (l2_bytes(ct) > hw.l2TileBudgetBytes) {
        if (ct > 1)
            ct /= 2;
        else if (kt > 1)
            kt /= 2;
        else
            break;
    }
    const std::uint64_t k1 = ceilDiv(conv.k, kt);
    const std::uint64_t c1 = ceilDiv(conv.c, ct);

    std::vector<LoopLevel> nest;
    addLoop(nest, Dim::K, k1, LoopKind::Temporal);
    addLoop(nest, Dim::OY, y1, LoopKind::Temporal);
    addLoop(nest, Dim::OX, x1, LoopKind::Temporal);
    addLoop(nest, Dim::C, c1, LoopKind::Temporal);
    addLoop(nest, Dim::OY, y_used, LoopKind::Spatial);
    addLoop(nest, Dim::OX, x_used, LoopKind::Spatial);
    addLoop(nest, Dim::K, kt, LoopKind::Temporal);
    addLoop(nest, Dim::C, ct, LoopKind::Temporal);
    addLoop(nest, Dim::R, conv.r, LoopKind::Temporal);
    addLoop(nest, Dim::S, conv.s, LoopKind::Temporal);
    return Mapping(conv, std::move(nest), hw.numPes);
}

/**
 * Eyeriss-style row-stationary mapping: the array pairs filter rows
 * with output rows (R x Y' spatial; psums accumulate spatially up
 * each column of R PEs). Each PE holds the filter rows of kt
 * different output channels (the chip's pass folding) and slides
 * them along an output-row segment of x0 pixels, so inputs are
 * fetched once per ceil(K/kt) passes with near-perfect halo reuse
 * along the diagonals.
 */
Mapping
mapEyeriss(const dnn::CanonicalConv &conv, const MapperConstraints &hw)
{
    const std::uint64_t r_used = std::min(conv.r, hw.numPes);
    const std::uint64_t r1 = ceilDiv(conv.r, r_used);
    const std::uint64_t y_used = std::max<std::uint64_t>(
        1, std::min(conv.oy, hw.numPes / r_used));
    const std::uint64_t y1 = ceilDiv(conv.oy, y_used);

    // Output-row segment per PE, then as many output channels as the
    // RF can hold psum+weight rows for.
    std::uint64_t x0 = std::min<std::uint64_t>(conv.ox, 16);
    std::uint64_t kt = 1;
    auto fits_l1 = [&](std::uint64_t seg, std::uint64_t maps) {
        std::uint64_t wt = conv.s * maps;
        std::uint64_t in = haloExtent(conv, seg, conv.s);
        std::uint64_t ps = seg * maps;
        return wt + in + ps <= kL1Elems;
    };
    while (x0 > 1 && !fits_l1(x0, 1))
        --x0;
    kt = std::min<std::uint64_t>(conv.k, 16);
    while (kt > 1 && !fits_l1(x0, kt))
        kt /= 2;

    auto l2_bytes = [&](std::uint64_t seg) {
        std::uint64_t ch = conv.depthwise ? kt : 1;
        std::uint64_t in = ch * haloExtent(conv, y_used, conv.r) *
                           haloExtent(conv, seg, conv.s);
        std::uint64_t wt = kt * r_used * conv.s;
        std::uint64_t out = kt * y_used * seg;
        return 2 * (in + wt + out) * dnn::kDataBytes;
    };
    while (l2_bytes(x0) > hw.l2TileBudgetBytes) {
        if (x0 > 1)
            x0 /= 2;
        else if (kt > 1)
            kt /= 2;
        else
            break;
    }
    const std::uint64_t k1 = ceilDiv(conv.k, kt);
    const std::uint64_t x1 = ceilDiv(conv.ox, x0);

    // The channel loop sits *inside* the output-stripe loops: each
    // PE's psum segment accumulates over all input channels before
    // the stripe advances (no partial-sum spilling — weights for a
    // stripe are re-streamed instead, which is far smaller traffic).
    std::vector<LoopLevel> nest;
    addLoop(nest, Dim::K, k1, LoopKind::Temporal);
    addLoop(nest, Dim::OY, y1, LoopKind::Temporal);
    addLoop(nest, Dim::OX, x1, LoopKind::Temporal);
    addLoop(nest, Dim::C, conv.c, LoopKind::Temporal);
    addLoop(nest, Dim::R, r1, LoopKind::Temporal);
    addLoop(nest, Dim::OY, y_used, LoopKind::Spatial);
    addLoop(nest, Dim::R, r_used, LoopKind::Spatial);
    addLoop(nest, Dim::K, kt, LoopKind::Temporal);
    addLoop(nest, Dim::S, conv.s, LoopKind::Temporal);
    addLoop(nest, Dim::OX, x0, LoopKind::Temporal);
    return Mapping(conv, std::move(nest), hw.numPes);
}

} // namespace

Mapping
buildMapping(DataflowStyle style, const dnn::CanonicalConv &conv,
             const MapperConstraints &hw)
{
    if (hw.numPes == 0)
        util::fatal("mapper: zero PEs");
    switch (style) {
      case DataflowStyle::NVDLA:
        return mapNvdla(conv, hw);
      case DataflowStyle::ShiDiannao:
        return mapShiDiannao(conv, hw);
      case DataflowStyle::Eyeriss:
        return mapEyeriss(conv, hw);
    }
    util::panic("unknown DataflowStyle");
}

Mapping
buildMapping(DataflowStyle style, const dnn::Layer &layer,
             const MapperConstraints &hw)
{
    return buildMapping(style, layer.canonical(), hw);
}

} // namespace herald::dataflow
