/**
 * @file
 * Cost-model unit tests. The central fixture is a small convolution
 * (K=4, C=2, 5x5 input, 3x3 filter -> 3x3 output, 648 MACs) mapped
 * NVDLA-style on 8 PEs, for which every traffic quantity is computed
 * by hand in the comments and asserted exactly.
 */

#include <gtest/gtest.h>

#include "cost/cost_model.hh"
#include "cost/reuse_analysis.hh"
#include "dataflow/mapper.hh"
#include "dnn/layer.hh"
#include "util/logging.hh"

namespace
{

using namespace herald;
using dataflow::DataflowStyle;
using dataflow::Dim;
using dataflow::TensorKind;

class CostModelTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    dnn::Layer
    smallConv()
    {
        return dnn::makeConv("c", 4, 2, 5, 5, 3, 3);
    }

    dataflow::Mapping
    smallNvdlaMapping()
    {
        dataflow::MapperConstraints hw;
        hw.numPes = 8;
        return buildMapping(DataflowStyle::NVDLA, smallConv(), hw);
    }

    cost::SubAccResources
    smallRes()
    {
        cost::SubAccResources res;
        res.numPes = 8;
        res.bwGBps = 32.0;
        res.l2Bytes = 1ULL << 20;
        return res;
    }
};

TEST_F(CostModelTest, ReuseSpatialStructure)
{
    // NVDLA wires k0 x c0 = 1 x 8 lanes on an 8-PE array; this layer
    // occupies 1 x min(C,8) = 2 lanes and sequences K(4) x OY(3)
    // outer iterations.
    cost::ReuseReport r = cost::analyzeMapping(smallNvdlaMapping());
    EXPECT_EQ(r.spatialSize, 2u);
    EXPECT_EQ(r.outerIters, 4u); // K(4); the 3x3 block absorbs OY/OX
    EXPECT_EQ(r.innerMacsPerPe, 81u); // R3 * S3 * OY3 * OX3
    EXPECT_EQ(r.spatialReduction, 2u); // c lanes = 2
}

TEST_F(CostModelTest, ReuseInputTraffic)
{
    // The whole 3x3 output plane fits one per-PE block, so the array
    // tile covers the entire 2ch x 5 x 5 input; the only outer loop
    // (K) is irrelevant to the input, which is therefore fetched
    // exactly once (50 words) and never multicast (one k lane).
    cost::ReuseReport r = cost::analyzeMapping(smallNvdlaMapping());
    const cost::TensorTraffic &in = r.of(TensorKind::Input);
    EXPECT_EQ(in.unionTileElems, 50u);
    EXPECT_EQ(in.sumTileElems, 50u);
    EXPECT_EQ(in.refetch, 1u);
    EXPECT_EQ(in.wholeElems, 50u); // 2 x 5 x 5
    EXPECT_DOUBLE_EQ(in.multicast(), 1.0);
    EXPECT_EQ(in.l2Words(), 50u);
}

TEST_F(CostModelTest, ReuseWeightStationary)
{
    // The array holds one k-slice of weights (1 x 2ch x 3 x 3 = 18);
    // the innermost outer loop (OY) does not touch them (weight-
    // stationary), the K loop refetches per slice: 4 x 18 = 72 words
    // == every weight exactly once.
    cost::ReuseReport r = cost::analyzeMapping(smallNvdlaMapping());
    const cost::TensorTraffic &wt = r.of(TensorKind::Weight);
    EXPECT_EQ(wt.unionTileElems, 18u);
    EXPECT_EQ(wt.refetch, 4u);
    EXPECT_EQ(wt.l2Words(), 72u);
    EXPECT_DOUBLE_EQ(wt.multicast(), 1.0);
}

TEST_F(CostModelTest, ReuseOutputNoPsumSpill)
{
    // Each output tile is produced once (no reduction loop outside
    // the psum's residency): writes == whole, zero read-backs.
    cost::ReuseReport r = cost::analyzeMapping(smallNvdlaMapping());
    const cost::TensorTraffic &out = r.of(TensorKind::Output);
    EXPECT_EQ(out.unionTileElems, 9u);
    EXPECT_EQ(out.refetch, 4u);
    EXPECT_EQ(out.wholeElems, 36u);
    EXPECT_EQ(r.outputWrites(), 36u);
    EXPECT_EQ(r.outputReadbacks(), 0u);
}

TEST_F(CostModelTest, PsumSpillWhenReductionOuter)
{
    // Hand-built mapping with the C loop *outside* the output-tile
    // loops: psums must spill and be read back.
    dnn::CanonicalConv conv = smallConv().canonical();
    std::vector<dataflow::LoopLevel> nest{
        {Dim::C, 2, dataflow::LoopKind::Temporal},
        {Dim::OY, 3, dataflow::LoopKind::Temporal},
        {Dim::K, 4, dataflow::LoopKind::Spatial},
        {Dim::R, 3, dataflow::LoopKind::Temporal},
        {Dim::S, 3, dataflow::LoopKind::Temporal},
        {Dim::OX, 3, dataflow::LoopKind::Temporal}};
    dataflow::Mapping mapping(conv, nest, 8);
    cost::ReuseReport r = cost::analyzeMapping(mapping);
    // Output tile (K4 x OX3 = 12) delivered per (C,OY) iteration:
    // refetch 6 -> 72 writes for 36 outputs -> 36 read-backs.
    EXPECT_EQ(r.outputWrites(), 72u);
    EXPECT_EQ(r.outputReadbacks(), 36u);
}

TEST_F(CostModelTest, ComputeCyclesMatchHandCount)
{
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    // 4 outer iterations x 81 MACs/PE = 324 compute cycles.
    EXPECT_DOUBLE_EQ(c.computeCycles, 324.0);
    EXPECT_EQ(c.macs, 648u);
}

TEST_F(CostModelTest, NocBytesMatchHandCount)
{
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    // Reads (50 in + 72 wt + 0 psum) + writes (36) = 158 words.
    EXPECT_DOUBLE_EQ(c.nocBytes, 158.0 * dnn::kDataBytes);
}

TEST_F(CostModelTest, DramOnlyWeightsWhenEverythingResident)
{
    // 1 MiB L2 easily pins all tensors; activations are forwarded
    // through L2, so only the 72 weights cross DRAM.
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    EXPECT_DOUBLE_EQ(c.dramBytes, 72.0 * dnn::kDataBytes);
}

TEST_F(CostModelTest, DramGrowsWithoutForwarding)
{
    cost::CostOptions opts;
    opts.forwardActivationsThroughL2 = false;
    cost::CostModel model(cost::EnergyModel{}, opts);
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    // The input (50 words) and the output (36 words) now also cross
    // DRAM once each.
    EXPECT_DOUBLE_EQ(c.dramBytes,
                     (72.0 + 50.0 + 36.0) * dnn::kDataBytes);
}

TEST_F(CostModelTest, TinyL2ForcesStreamingRefetch)
{
    cost::SubAccResources res = smallRes();
    res.l2Bytes = 0; // nothing resident (staging warns but proceeds)
    cost::CostModel model;
    cost::LayerCost with_l2 =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    cost::LayerCost without =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, res);
    EXPECT_GT(without.dramBytes, with_l2.dramBytes);
}

TEST_F(CostModelTest, LatencyIsRooflinePlusFillPlusOverhead)
{
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    double fill = (c.l2FootprintBytes / 2.0) / 32.0;
    EXPECT_NEAR(c.cycles,
                std::max({c.computeCycles, c.nocCycles,
                          c.dramCycles}) +
                    fill + cost::kLayerOverheadCycles,
                1e-9);
}

TEST_F(CostModelTest, BandwidthBoundLayer)
{
    // Starve the global NoC share: the DRAM path dominates latency.
    cost::SubAccResources res = smallRes();
    res.bwGBps = 0.25;
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, res);
    EXPECT_GT(c.dramCycles, c.computeCycles);
    EXPECT_GE(c.cycles, c.dramCycles);
}

TEST_F(CostModelTest, UtilizationFields)
{
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    EXPECT_DOUBLE_EQ(c.mappingUtil, 0.25); // 2 of 8 wired lanes
    EXPECT_DOUBLE_EQ(c.edgeUtil, 1.0);     // exact tiling
    EXPECT_DOUBLE_EQ(c.effectiveUtil, 0.25);
}

TEST_F(CostModelTest, EnergyBreakdownSumsToTotal)
{
    cost::CostModel model;
    cost::LayerCost c =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    EXPECT_NEAR(c.energyUnits,
                c.macEnergy + c.l1EnergyTotal + c.l2EnergyTotal +
                    c.nocEnergyTotal + c.dramEnergyTotal +
                    c.staticEnergyTotal,
                1e-9);
    EXPECT_GT(c.energyMj, 0.0);
}

TEST_F(CostModelTest, StaticEnergyToggle)
{
    cost::CostOptions no_static;
    no_static.staticEnergy = false;
    cost::CostModel with(cost::EnergyModel{}, cost::CostOptions{});
    cost::CostModel without(cost::EnergyModel{}, no_static);
    cost::LayerCost a =
        with.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    cost::LayerCost b = without.evaluate(smallConv(),
                                         DataflowStyle::NVDLA,
                                         smallRes());
    EXPECT_GT(a.staticEnergyTotal, 0.0);
    EXPECT_DOUBLE_EQ(b.staticEnergyTotal, 0.0);
    EXPECT_GT(a.energyUnits, b.energyUnits);
}

TEST_F(CostModelTest, CacheHitsReturnSameResult)
{
    cost::CostModel model;
    const cost::LayerCost &a =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    double cycles = a.cycles;
    const cost::LayerCost &b =
        model.evaluate(smallConv(), DataflowStyle::NVDLA, smallRes());
    EXPECT_EQ(model.cacheSize(), 1u);
    EXPECT_DOUBLE_EQ(b.cycles, cycles);
}

TEST_F(CostModelTest, CacheDistinguishesResources)
{
    cost::CostModel model;
    cost::SubAccResources res = smallRes();
    model.evaluate(smallConv(), DataflowStyle::NVDLA, res);
    res.numPes = 16;
    model.evaluate(smallConv(), DataflowStyle::NVDLA, res);
    EXPECT_EQ(model.cacheSize(), 2u);
}

TEST_F(CostModelTest, DepthwisePrefersNonChannelStyles)
{
    // The Fig. 5 phenomenon: a depthwise layer runs far better on an
    // output-parallel dataflow than on a channel-parallel one.
    dnn::Layer dw = dnn::makeDepthwise("dw", 32, 58, 58, 3, 3);
    cost::CostModel model;
    cost::SubAccResources res;
    res.numPes = 1024;
    res.bwGBps = 16.0;
    res.l2Bytes = 4ULL << 20;
    cost::LayerCost nvdla =
        model.evaluate(dw, DataflowStyle::NVDLA, res);
    cost::LayerCost shi =
        model.evaluate(dw, DataflowStyle::ShiDiannao, res);
    EXPECT_LT(shi.edp(), nvdla.edp());
    EXPECT_LT(shi.cycles, nvdla.cycles);
}

TEST_F(CostModelTest, FcPrefersChannelParallelStyle)
{
    dnn::Layer fc = dnn::makeFullyConnected("fc", 1000, 2048);
    cost::CostModel model;
    cost::SubAccResources res;
    res.numPes = 1024;
    res.bwGBps = 16.0;
    res.l2Bytes = 4ULL << 20;
    cost::LayerCost nvdla =
        model.evaluate(fc, DataflowStyle::NVDLA, res);
    cost::LayerCost shi =
        model.evaluate(fc, DataflowStyle::ShiDiannao, res);
    EXPECT_LT(nvdla.cycles, shi.cycles);
    EXPECT_LT(nvdla.edp(), shi.edp());
}

TEST_F(CostModelTest, EnergyModelValidation)
{
    cost::EnergyModel bad;
    bad.macEnergy = 0.0;
    EXPECT_THROW(cost::CostModel{bad}, std::runtime_error);
    cost::EnergyModel negative;
    negative.dramEnergy = -1.0;
    EXPECT_THROW(cost::CostModel{negative}, std::runtime_error);
}

} // namespace
