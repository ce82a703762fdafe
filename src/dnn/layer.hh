/**
 * @file
 * DNN layer representation.
 *
 * Layers are described by the seven-dimensional convolution space the
 * paper uses (Fig. 4): K output channels, C input channels, Y x X input
 * activation, R x S filter, plus stride. Every operator the evaluated
 * workloads need (CONV2D, PWCONV, DWCONV, FC, UPCONV) canonicalizes to
 * a single "canonical conv" form the cost model consumes, so the
 * analysis engine has exactly one code path.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace herald::dnn
{

/** Bytes per tensor element (16-bit fixed point, as in MAESTRO). */
constexpr std::uint64_t kDataBytes = 2;

/** Operator type of a layer. */
enum class LayerKind
{
    Conv2D,          //!< dense 2D convolution
    PointwiseConv2D, //!< 1x1 convolution (MobileNet expansion/projection)
    DepthwiseConv2D, //!< per-channel convolution; no C reduction
    FullyConnected,  //!< GEMV / GEMM; Y=X=R=S=1
    TransposedConv2D //!< up-scale convolution (UNet / DepthNet decoders)
};

/** Human-readable operator name ("CONV2D", "DWCONV", ...). */
const char *toString(LayerKind kind);

/**
 * Raw layer geometry as authored in the model zoo.
 *
 * For TransposedConv2D, @c upscale is the spatial up-scaling factor
 * (output = input * upscale) and r/s give the kernel size; for all
 * other kinds upscale must be 1.
 */
struct LayerShape
{
    std::uint64_t k = 1;       //!< output channels
    std::uint64_t c = 1;       //!< input channels
    std::uint64_t y = 1;       //!< input activation rows
    std::uint64_t x = 1;       //!< input activation columns
    std::uint64_t r = 1;       //!< filter rows
    std::uint64_t s = 1;       //!< filter columns
    std::uint64_t stride = 1;  //!< spatial stride (downsampling)
    std::uint64_t upscale = 1; //!< TransposedConv2D output scaling
};

/**
 * The single form the dataflow mapper and cost model operate on.
 *
 * All operators reduce to: for each output element (k, oy, ox),
 * accumulate over (c, r, s) — with @c depthwise selecting the variant
 * where the input channel equals the output channel and no cross-
 * channel accumulation happens. Input footprint along rows for an
 * output extent e is (e - 1) * strideNum / strideDen + r (rational
 * stride covers both strided convs and transposed convs).
 */
struct CanonicalConv
{
    bool depthwise = false;
    std::uint64_t k = 1;  //!< output channels
    std::uint64_t c = 1;  //!< reduction channels (1 when depthwise)
    std::uint64_t oy = 1; //!< output rows
    std::uint64_t ox = 1; //!< output columns
    std::uint64_t r = 1;  //!< effective filter taps per output, rows
    std::uint64_t s = 1;  //!< effective filter taps per output, cols
    std::uint64_t strideNum = 1; //!< input step per output step, num.
    std::uint64_t strideDen = 1; //!< input step per output step, den.

    /** Total multiply-accumulates in the layer. */
    std::uint64_t macs() const { return k * c * oy * ox * r * s; }

    /**
     * Every field as a 64-bit value, in declaration order: the
     * geometry identity cost caches key on. Two layers with equal
     * identities cost the same on any sub-accelerator.
     */
    std::array<std::uint64_t, 9>
    identity() const
    {
        return {depthwise ? 1U : 0U, k, c, oy, ox, r, s, strideNum,
                strideDen};
    }

    /** Input rows covered by @p extent output rows (with halo). */
    std::uint64_t inputRows(std::uint64_t extent) const;
    /** Input columns covered by @p extent output columns. */
    std::uint64_t inputCols(std::uint64_t extent) const;
};

/**
 * A single DNN layer: a named operator instance with geometry.
 *
 * Construction validates the geometry (fatal() on zero dims, filters
 * larger than the activation, non-1 upscale on non-transposed kinds).
 */
class Layer
{
  public:
    Layer(std::string name, LayerKind kind, LayerShape shape);

    const std::string &name() const { return layerName; }
    LayerKind kind() const { return layerKind; }
    const LayerShape &shape() const { return layerShape; }

    /** Output activation rows. */
    std::uint64_t outY() const;
    /** Output activation columns. */
    std::uint64_t outX() const;

    /** Total multiply-accumulate operations. */
    std::uint64_t macs() const { return canonical().macs(); }

    /** Input activation size in bytes. */
    std::uint64_t inputBytes() const;
    /** Filter weight size in bytes. */
    std::uint64_t weightBytes() const;
    /** Output activation size in bytes. */
    std::uint64_t outputBytes() const;

    /**
     * Channels divided by activation width — the layer-shape
     * abstraction of Table I.
     */
    double channelActivationRatio() const;

    /** The canonical convolution form (see CanonicalConv). */
    const CanonicalConv &canonical() const { return canon; }

    /**
     * Stable 64-bit digest of (kind, canonical dims): two layers with
     * the same kind and shape always produce the same key. A hash,
     * not an identity — exact-identity consumers (the cost cache)
     * key on the canonical dims themselves.
     */
    std::uint64_t shapeKey() const;

  private:
    std::string layerName;
    LayerKind layerKind;
    LayerShape layerShape;
    CanonicalConv canon;

    void validate() const;
    CanonicalConv canonicalize() const;
};

/** Convenience constructors used heavily by the model zoo. */
Layer makeConv(std::string name, std::uint64_t k, std::uint64_t c,
               std::uint64_t y, std::uint64_t x, std::uint64_t r,
               std::uint64_t s, std::uint64_t stride = 1);
Layer makePointwise(std::string name, std::uint64_t k, std::uint64_t c,
                    std::uint64_t y, std::uint64_t x);
Layer makeDepthwise(std::string name, std::uint64_t c, std::uint64_t y,
                    std::uint64_t x, std::uint64_t r, std::uint64_t s,
                    std::uint64_t stride = 1);
Layer makeFullyConnected(std::string name, std::uint64_t out,
                         std::uint64_t in);
Layer makeTransposedConv(std::string name, std::uint64_t k,
                         std::uint64_t c, std::uint64_t y,
                         std::uint64_t x, std::uint64_t r,
                         std::uint64_t s, std::uint64_t upscale);

} // namespace herald::dnn

