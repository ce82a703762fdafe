#include "dnn/layer.hh"

#include <functional>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace herald::dnn
{

const char *
toString(LayerKind kind)
{
    switch (kind) {
      case LayerKind::Conv2D:
        return "CONV2D";
      case LayerKind::PointwiseConv2D:
        return "PWCONV";
      case LayerKind::DepthwiseConv2D:
        return "DWCONV";
      case LayerKind::FullyConnected:
        return "FC";
      case LayerKind::TransposedConv2D:
        return "UPCONV";
    }
    util::panic("unknown LayerKind");
}

std::uint64_t
CanonicalConv::inputRows(std::uint64_t extent) const
{
    if (extent == 0)
        return 0;
    return (extent - 1) * strideNum / strideDen + r;
}

std::uint64_t
CanonicalConv::inputCols(std::uint64_t extent) const
{
    if (extent == 0)
        return 0;
    return (extent - 1) * strideNum / strideDen + s;
}

Layer::Layer(std::string name, LayerKind kind, LayerShape shape)
    : layerName(std::move(name)), layerKind(kind), layerShape(shape)
{
    validate();
    canon = canonicalize();
}

void
Layer::validate() const
{
    const LayerShape &sh = layerShape;
    if (sh.k == 0 || sh.c == 0 || sh.y == 0 || sh.x == 0 || sh.r == 0 ||
        sh.s == 0 || sh.stride == 0 || sh.upscale == 0) {
        util::fatal("layer '", layerName, "': zero-sized dimension");
    }
    if (layerKind != LayerKind::TransposedConv2D && sh.upscale != 1)
        util::fatal("layer '", layerName, "': upscale on non-UPCONV");
    if (layerKind == LayerKind::TransposedConv2D && sh.upscale < 2)
        util::fatal("layer '", layerName, "': UPCONV needs upscale >= 2");
    if (layerKind != LayerKind::TransposedConv2D &&
        (sh.r > sh.y || sh.s > sh.x)) {
        util::fatal("layer '", layerName, "': filter larger than input (",
                    sh.r, "x", sh.s, " vs ", sh.y, "x", sh.x, ")");
    }
    if (layerKind == LayerKind::DepthwiseConv2D && sh.k != sh.c) {
        util::fatal("layer '", layerName, "': depthwise needs K == C");
    }
    if (layerKind == LayerKind::PointwiseConv2D &&
        (sh.r != 1 || sh.s != 1)) {
        util::fatal("layer '", layerName, "': pointwise needs 1x1 filter");
    }
    if (layerKind == LayerKind::FullyConnected &&
        (sh.y != 1 || sh.x != 1 || sh.r != 1 || sh.s != 1)) {
        util::fatal("layer '", layerName, "': FC needs Y=X=R=S=1");
    }
}

CanonicalConv
Layer::canonicalize() const
{
    const LayerShape &sh = layerShape;
    CanonicalConv cc;
    switch (layerKind) {
      case LayerKind::Conv2D:
      case LayerKind::PointwiseConv2D:
      case LayerKind::FullyConnected:
        cc.depthwise = false;
        cc.k = sh.k;
        cc.c = sh.c;
        cc.oy = (sh.y - sh.r) / sh.stride + 1;
        cc.ox = (sh.x - sh.s) / sh.stride + 1;
        cc.r = sh.r;
        cc.s = sh.s;
        cc.strideNum = sh.stride;
        cc.strideDen = 1;
        break;
      case LayerKind::DepthwiseConv2D:
        // No cross-channel accumulation: the reduction extent C is 1
        // and the input channel index follows the output channel K.
        cc.depthwise = true;
        cc.k = sh.k;
        cc.c = 1;
        cc.oy = (sh.y - sh.r) / sh.stride + 1;
        cc.ox = (sh.x - sh.s) / sh.stride + 1;
        cc.r = sh.r;
        cc.s = sh.s;
        cc.strideNum = sh.stride;
        cc.strideDen = 1;
        break;
      case LayerKind::TransposedConv2D:
        // Equivalent dense form: each output element receives
        // (r/up) x (s/up) filter taps on average; the input advances
        // 1/up rows per output row (rational stride).
        cc.depthwise = false;
        cc.k = sh.k;
        cc.c = sh.c;
        cc.oy = sh.y * sh.upscale;
        cc.ox = sh.x * sh.upscale;
        cc.r = std::max<std::uint64_t>(1, sh.r / sh.upscale);
        cc.s = std::max<std::uint64_t>(1, sh.s / sh.upscale);
        cc.strideNum = 1;
        cc.strideDen = sh.upscale;
        break;
    }
    return cc;
}

std::uint64_t
Layer::outY() const
{
    return canon.oy;
}

std::uint64_t
Layer::outX() const
{
    return canon.ox;
}

std::uint64_t
Layer::inputBytes() const
{
    const LayerShape &sh = layerShape;
    return sh.c * sh.y * sh.x * kDataBytes;
}

std::uint64_t
Layer::weightBytes() const
{
    const LayerShape &sh = layerShape;
    if (layerKind == LayerKind::DepthwiseConv2D)
        return sh.c * sh.r * sh.s * kDataBytes;
    return sh.k * sh.c * sh.r * sh.s * kDataBytes;
}

std::uint64_t
Layer::outputBytes() const
{
    return canon.k * canon.oy * canon.ox * kDataBytes;
}

double
Layer::channelActivationRatio() const
{
    return static_cast<double>(layerShape.c) /
           static_cast<double>(layerShape.y);
}

std::uint64_t
Layer::shapeKey() const
{
    // FNV-1a over the canonical dims plus the kind tag.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(layerKind));
    for (std::uint64_t v : canon.identity())
        mix(v);
    return h;
}

Layer
makeConv(std::string name, std::uint64_t k, std::uint64_t c,
         std::uint64_t y, std::uint64_t x, std::uint64_t r,
         std::uint64_t s, std::uint64_t stride)
{
    return Layer(std::move(name), LayerKind::Conv2D,
                 LayerShape{k, c, y, x, r, s, stride, 1});
}

Layer
makePointwise(std::string name, std::uint64_t k, std::uint64_t c,
              std::uint64_t y, std::uint64_t x)
{
    return Layer(std::move(name), LayerKind::PointwiseConv2D,
                 LayerShape{k, c, y, x, 1, 1, 1, 1});
}

Layer
makeDepthwise(std::string name, std::uint64_t c, std::uint64_t y,
              std::uint64_t x, std::uint64_t r, std::uint64_t s,
              std::uint64_t stride)
{
    return Layer(std::move(name), LayerKind::DepthwiseConv2D,
                 LayerShape{c, c, y, x, r, s, stride, 1});
}

Layer
makeFullyConnected(std::string name, std::uint64_t out, std::uint64_t in)
{
    return Layer(std::move(name), LayerKind::FullyConnected,
                 LayerShape{out, in, 1, 1, 1, 1, 1, 1});
}

Layer
makeTransposedConv(std::string name, std::uint64_t k, std::uint64_t c,
                   std::uint64_t y, std::uint64_t x, std::uint64_t r,
                   std::uint64_t s, std::uint64_t upscale)
{
    return Layer(std::move(name), LayerKind::TransposedConv2D,
                 LayerShape{k, c, y, x, r, s, 1, upscale});
}

} // namespace herald::dnn
