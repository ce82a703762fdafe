/**
 * @file
 * Unit tests for the workload module: batch expansion, instance
 * independence, and the Table II workload definitions.
 */

#include <gtest/gtest.h>

#include <limits>

#include "dnn/model_zoo.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using workload::Workload;

class WorkloadTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }
};

TEST_F(WorkloadTest, BatchExpansion)
{
    Workload wl("test");
    wl.addModel(dnn::uNet(), 3);
    EXPECT_EQ(wl.numInstances(), 3u);
    EXPECT_EQ(wl.totalLayers(), 3u * dnn::uNet().numLayers());
    EXPECT_EQ(wl.instances()[0].name, "UNet#1");
    EXPECT_EQ(wl.instances()[2].name, "UNet#3");
}

TEST_F(WorkloadTest, InstancesShareSpec)
{
    Workload wl("test");
    wl.addModel(dnn::uNet(), 2);
    EXPECT_EQ(wl.instances()[0].specIdx, wl.instances()[1].specIdx);
    EXPECT_EQ(&wl.modelOf(0), &wl.modelOf(1));
}

TEST_F(WorkloadTest, RejectsZeroBatches)
{
    Workload wl("test");
    EXPECT_THROW(wl.addModel(dnn::uNet(), 0), std::runtime_error);
}

TEST_F(WorkloadTest, RejectsEmptyModel)
{
    Workload wl("test");
    EXPECT_THROW(wl.addModel(dnn::Model("empty"), 1),
                 std::runtime_error);
}

TEST_F(WorkloadTest, OutOfRangeInstancePanics)
{
    Workload wl("test");
    wl.addModel(dnn::uNet(), 1);
    EXPECT_THROW(wl.modelOf(1), std::logic_error);
}

TEST_F(WorkloadTest, ArvrAComposition)
{
    Workload wl = workload::arvrA();
    EXPECT_EQ(wl.name(), "AR/VR-A");
    // Resnet50 x2, UNet x4, MobileNetV2 x4 = 10 instances.
    EXPECT_EQ(wl.numInstances(), 10u);
    EXPECT_EQ(wl.specs().size(), 3u);
    // 2*54 + 4*23 + 4*53 = 412 layers with our zoo geometries
    // (paper: 448 with theirs).
    EXPECT_EQ(wl.totalLayers(), 412u);
}

TEST_F(WorkloadTest, ArvrBComposition)
{
    Workload wl = workload::arvrB();
    // 2+2+4+2+2 = 12 instances over five models.
    EXPECT_EQ(wl.numInstances(), 12u);
    EXPECT_EQ(wl.specs().size(), 5u);
    EXPECT_GT(wl.totalLayers(), workload::arvrA().totalLayers() - 100);
}

TEST_F(WorkloadTest, MlperfComposition)
{
    Workload wl = workload::mlperf();
    EXPECT_EQ(wl.numInstances(), 5u);
    EXPECT_EQ(wl.specs().size(), 5u);
    // Paper reports 181 layers; our zoo is within the same ballpark.
    EXPECT_GT(wl.totalLayers(), 150u);
    EXPECT_LT(wl.totalLayers(), 230u);
}

TEST_F(WorkloadTest, MlperfBatchScaling)
{
    Workload b1 = workload::mlperf(1);
    Workload b8 = workload::mlperf(8);
    EXPECT_EQ(b8.numInstances(), 8u * b1.numInstances());
    EXPECT_EQ(b8.totalLayers(), 8u * b1.totalLayers());
    EXPECT_EQ(b8.totalMacs(), 8u * b1.totalMacs());
    EXPECT_EQ(b8.name(), "MLPerf-b8");
}

TEST_F(WorkloadTest, TotalMacsIsSumOverInstances)
{
    Workload wl("test");
    wl.addModel(dnn::mobileNetV2(), 2);
    EXPECT_EQ(wl.totalMacs(), 2 * dnn::mobileNetV2().totalMacs());
}

TEST_F(WorkloadTest, UniqueModelsDedupAcrossSpecs)
{
    // Two separate addModel/addPeriodicModel calls carrying
    // structurally equal models must share one unique id — that is
    // exactly the frames-of-the-same-model pattern the LayerCostTable
    // relies on.
    Workload wl("test");
    wl.addModel(dnn::mobileNetV2(), 2);
    wl.addPeriodicModel(dnn::mobileNetV2(), 3, 1e6);
    wl.addModel(dnn::uNet(), 1);
    EXPECT_EQ(wl.specs().size(), 3u);
    EXPECT_EQ(wl.numUniqueModels(), 2u);
    EXPECT_EQ(wl.uniqueIdOfSpec(0), wl.uniqueIdOfSpec(1));
    EXPECT_NE(wl.uniqueIdOfSpec(0), wl.uniqueIdOfSpec(2));
    // Every instance maps to its spec's unique id.
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        EXPECT_EQ(wl.uniqueIdOfInstance(i),
                  wl.uniqueIdOfSpec(wl.instances()[i].specIdx));
    }
    // The representative model is structurally the right one.
    EXPECT_EQ(wl.uniqueModel(wl.uniqueIdOfSpec(0)).name(),
              dnn::mobileNetV2().name());
    EXPECT_EQ(wl.uniqueModel(wl.uniqueIdOfSpec(2)).name(),
              dnn::uNet().name());
}

TEST_F(WorkloadTest, UniqueModelsDistinguishGeometry)
{
    // Same name, different geometry => distinct unique models.
    Workload wl("test");
    dnn::Model a("M");
    a.addLayer(dnn::makeFullyConnected("f", 128, 128));
    dnn::Model b("M");
    b.addLayer(dnn::makeFullyConnected("f", 256, 128));
    wl.addModel(std::move(a), 1);
    wl.addModel(std::move(b), 1);
    EXPECT_EQ(wl.numUniqueModels(), 2u);
}

TEST_F(WorkloadTest, UniqueModelOutOfRangePanics)
{
    Workload wl("test");
    wl.addModel(dnn::uNet(), 1);
    EXPECT_THROW(wl.uniqueModel(1), std::logic_error);
    EXPECT_THROW(wl.uniqueIdOfSpec(1), std::logic_error);
    EXPECT_THROW(wl.uniqueIdOfInstance(1), std::logic_error);
}

TEST_F(WorkloadTest, RejectsNonFiniteRealtimeParameters)
{
    // NaN slips through ordered comparisons (NaN < 0 is false), so
    // the guards must check finiteness explicitly — a NaN arrival
    // or deadline would silently poison every release/slack
    // computation downstream.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Workload wl("test");
    EXPECT_THROW(wl.addModel(dnn::uNet(), 1, nan),
                 std::runtime_error);
    EXPECT_THROW(wl.addModel(dnn::uNet(), 1, inf),
                 std::runtime_error);
    EXPECT_THROW(wl.addModel(dnn::uNet(), 1, 0.0, nan),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, nan),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, inf),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, 1e6, nan),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, 1e6, -1.0),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, 1e6, 0.0, nan),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::uNet(), 1, 1e6, 0.0, -5.0),
                 std::runtime_error);
    EXPECT_THROW(workload::fpsPeriodCycles(nan), std::runtime_error);
    EXPECT_THROW(workload::fpsPeriodCycles(inf), std::runtime_error);
    // Nothing was added by any rejected call.
    EXPECT_EQ(wl.numInstances(), 0u);
}

TEST_F(WorkloadTest, FaultedFactoryComposition)
{
    Workload wl = workload::faultedFactory(4);
    EXPECT_EQ(wl.name(), "factory-faulted");
    // 4 + 2 + 1 periodic instances plus one best-effort frame.
    EXPECT_EQ(wl.numInstances(), 8u);
    EXPECT_TRUE(wl.hasArrivals());
    EXPECT_TRUE(wl.hasDeadlines());
    // The best-effort instance has no deadline.
    EXPECT_FALSE(wl.instances().back().hasDeadline());
    EXPECT_THROW(workload::faultedFactory(0), std::runtime_error);
}

TEST_F(WorkloadTest, PeriodicExpansionGuardsCycleOverflow)
{
    // With the implicit one-period deadline, frame K-1 of a
    // period-P stream carries deadline K * P; K * 1e15 crosses the
    // 2^53-cycle limit between K = 9 (9e15, representable) and
    // K = 10 (1e16, past it). The guard must cut exactly there —
    // beyond 2^53 consecutive doubles stop being consecutive
    // integers and arrival arithmetic silently loses cycles.
    Workload ok("edge");
    ok.addPeriodicModel(dnn::mobileNetV2(), 9, 1e15);
    EXPECT_EQ(ok.numInstances(), 9u);
    EXPECT_DOUBLE_EQ(ok.instances().back().deadlineCycle, 9e15);

    Workload over("over");
    EXPECT_THROW(over.addPeriodicModel(dnn::mobileNetV2(), 10, 1e15),
                 std::runtime_error);

    // Same limit on the aperiodic path (arrival + deadline).
    Workload ap("ap");
    EXPECT_THROW(ap.addModel(dnn::mobileNetV2(), 1, 8e15, 2e15),
                 std::runtime_error);
    ap.addModel(dnn::mobileNetV2(), 1, 8e15, 1e15);
    EXPECT_EQ(ap.numInstances(), 1u);
}

TEST_F(WorkloadTest, FpsPeriodCyclesGuardsDegenerateRates)
{
    EXPECT_GT(workload::fpsPeriodCycles(30.0), 0.0);
    // An fps so small the period overflows the cycle limit.
    EXPECT_THROW(workload::fpsPeriodCycles(1e-10), std::runtime_error);
    EXPECT_THROW(workload::fpsPeriodCycles(0.0), std::runtime_error);
}

TEST_F(WorkloadTest, CachedTotalsMatchInstanceSums)
{
    Workload wl("test");
    wl.addModel(dnn::resnet50(), 2);
    wl.addPeriodicModel(dnn::mobileNetV2(), 4, 1e6);
    std::size_t layers = 0;
    std::uint64_t macs = 0;
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        layers += wl.modelOf(i).numLayers();
        macs += wl.modelOf(i).totalMacs();
    }
    EXPECT_EQ(wl.totalLayers(), layers);
    EXPECT_EQ(wl.totalMacs(), macs);
}

} // namespace
