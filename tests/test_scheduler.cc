/**
 * @file
 * Scheduler tests: schedule well-formedness (validated by the
 * Schedule checker: completeness, dependences, non-overlap, memory),
 * layer parallelism across sub-accelerators, dataflow-preference
 * assignment, load balancing, post-processing monotonicity, and the
 * Herald-vs-greedy comparison.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/herald_scheduler.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::HeraldScheduler;
using sched::Schedule;
using sched::SchedulerOptions;
using workload::Workload;

/** Small two-model workload that schedules fast. */
Workload
miniWorkload()
{
    Workload wl("mini");
    dnn::Model conv_net("ConvNet");
    conv_net.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    conv_net.addLayer(dnn::makeDepthwise("dw", 64, 56, 56, 3, 3));
    conv_net.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    conv_net.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    dnn::Model fc_net("FcNet");
    fc_net.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
    fc_net.addLayer(dnn::makeFullyConnected("f2", 1024, 1024));
    fc_net.addLayer(dnn::makeFullyConnected("f3", 256, 1024));
    wl.addModel(std::move(conv_net), 2);
    wl.addModel(std::move(fc_net), 2);
    return wl;
}

Accelerator
miniHda()
{
    return Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {512, 512}, {8.0, 8.0});
}

class SchedulerTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;
};

TEST_F(SchedulerTest, ScheduleIsValid)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    EXPECT_EQ(s.entries().size(), wl.totalLayers());
}

TEST_F(SchedulerTest, ValidOnFda)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc =
        Accelerator::makeFda(accel::edgeClass(), DataflowStyle::NVDLA);
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, ValidOnRda)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = Accelerator::makeRda(accel::edgeClass());
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, ValidOnThreeWayHda)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {512, 256, 256}, {8.0, 4.0, 4.0});
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, ExploitsLayerParallelism)
{
    // Two independent FC chains on a 2-way HDA must overlap in time:
    // the makespan is below the serialized sum of durations.
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    double serial = 0.0;
    for (const auto &e : s.entries())
        serial += e.duration();
    EXPECT_LT(s.makespanCycles(), serial * 0.95);
}

TEST_F(SchedulerTest, BothSubAcceleratorsUsed)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    EXPECT_GT(s.busyCycles(0), 0.0);
    EXPECT_GT(s.busyCycles(1), 0.0);
}

TEST_F(SchedulerTest, DataflowPreferenceRoutesLayers)
{
    // With load balancing off, pure preference: the big FCs must go
    // to the NVDLA sub-accelerator, the depthwise layer must not.
    SchedulerOptions opts;
    opts.loadBalance = false;
    opts.postProcess = false;
    HeraldScheduler scheduler(model, opts);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda(); // sub 0: NVDLA, sub 1: ShiDiannao
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    for (const auto &e : s.entries()) {
        const dnn::Layer &layer =
            wl.modelOf(e.instanceIdx).layer(e.layerIdx);
        if (layer.kind() == dnn::LayerKind::FullyConnected &&
            layer.shape().c >= 1024) {
            EXPECT_EQ(e.accIdx, 0u) << layer.name();
        }
        if (layer.kind() == dnn::LayerKind::DepthwiseConv2D) {
            EXPECT_EQ(e.accIdx, 1u) << layer.name();
        }
    }
}

TEST_F(SchedulerTest, DepthFirstOrderingValid)
{
    SchedulerOptions opts;
    opts.ordering = sched::Ordering::DepthFirst;
    HeraldScheduler scheduler(model, opts);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, BreadthFirstInterleavesModels)
{
    // Breadth-first: the first layers of different instances appear
    // before the last layer of the first instance in start order.
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    double first_end_of_inst0 = 0.0;
    double first_start_of_inst3 = 1e300;
    for (const auto &e : s.entries()) {
        if (e.instanceIdx == 0 && e.layerIdx == 0)
            first_end_of_inst0 = e.endCycle;
        if (e.instanceIdx == 3 && e.layerIdx == 0)
            first_start_of_inst3 =
                std::min(first_start_of_inst3, e.startCycle);
    }
    // Instance 3's head is not deferred to the very end.
    EXPECT_LT(first_start_of_inst3,
              s.makespanCycles() - first_end_of_inst0);
}

TEST_F(SchedulerTest, PostProcessingNeverWorsensMakespan)
{
    SchedulerOptions with_pp;
    with_pp.postProcess = true;
    SchedulerOptions without_pp = with_pp;
    without_pp.postProcess = false;

    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule a = HeraldScheduler(model, with_pp).schedule(wl, acc);
    Schedule b = HeraldScheduler(model, without_pp).schedule(wl, acc);
    EXPECT_LE(a.makespanCycles(), b.makespanCycles() + 1e-6);
    EXPECT_EQ(a.validate(wl, acc), "");
    EXPECT_EQ(b.validate(wl, acc), "");
}

TEST_F(SchedulerTest, LoadBalanceFactorValidation)
{
    SchedulerOptions opts;
    opts.loadBalanceFactor = 0.5;
    EXPECT_THROW(HeraldScheduler(model, opts), std::runtime_error);
}

TEST_F(SchedulerTest, LoadBalancingTightensMakespan)
{
    // An FC-only workload is single-mindedly NVDLA-greedy; load
    // balancing should spill work to the second sub-accelerator and
    // shorten the makespan.
    Workload wl("fc-only");
    dnn::Model fc_net("FcNet");
    for (int i = 0; i < 6; ++i) {
        fc_net.addLayer(dnn::makeFullyConnected(
            "f" + std::to_string(i), 1024, 1024));
    }
    wl.addModel(std::move(fc_net), 4);

    Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::NVDLA}, {512, 512},
        {8.0, 8.0});

    SchedulerOptions balanced;
    balanced.loadBalanceFactor = 1.5;
    SchedulerOptions greedy;
    greedy.loadBalance = false;
    greedy.postProcess = false;

    Schedule a = HeraldScheduler(model, balanced).schedule(wl, acc);
    Schedule b = HeraldScheduler(model, greedy).schedule(wl, acc);
    EXPECT_EQ(a.validate(wl, acc), "");
    EXPECT_EQ(b.validate(wl, acc), "");
    EXPECT_LT(a.makespanCycles(), b.makespanCycles());
}

TEST_F(SchedulerTest, HeraldBeatsGreedyOnEdp)
{
    // The paper's scheduler-efficacy claim, on a reduced workload:
    // Herald's schedule has lower (or equal) EDP than the greedy
    // baseline (every layer on its least-EDP sub-accelerator, no load
    // balancing, no idle-time post-processing) on the same HDA.
    Workload wl("reduced-arvr");
    wl.addModel(dnn::mobileNetV2(), 2);
    wl.addModel(dnn::brqHandposeNet(), 2);
    Accelerator acc = miniHda();
    SchedulerOptions greedy;
    greedy.loadBalance = false;
    greedy.postProcess = false;

    Schedule h = HeraldScheduler(model).schedule(wl, acc);
    Schedule g = HeraldScheduler(model, greedy).schedule(wl, acc);
    EXPECT_EQ(h.validate(wl, acc), "");
    EXPECT_EQ(g.validate(wl, acc), "");
    auto hs = h.finalize(acc, model.energyModel());
    auto gs = g.finalize(acc, model.energyModel());
    EXPECT_LE(hs.edp(), gs.edp() * 1.001);
}

TEST_F(SchedulerTest, ContextChangePenaltyExtendsSchedule)
{
    SchedulerOptions with_penalty;
    with_penalty.contextChangeCycles = 1e5;
    with_penalty.postProcess = false;
    SchedulerOptions without = with_penalty;
    without.contextChangeCycles = 0.0;

    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule a =
        HeraldScheduler(model, with_penalty).schedule(wl, acc);
    Schedule b = HeraldScheduler(model, without).schedule(wl, acc);
    EXPECT_GT(a.makespanCycles(), b.makespanCycles());
    EXPECT_EQ(a.validate(wl, acc), "");
    EXPECT_EQ(b.validate(wl, acc), "");
}

TEST_F(SchedulerTest, MemoryConstraintRespectedUnderTinyBuffer)
{
    // Shrink the buffer; the schedule must still validate (the
    // checker sweeps occupancy). At 24 KiB the buffer binds and
    // dispatches wait for it.
    for (std::uint64_t kib : {96u, 24u}) {
        accel::AcceleratorClass tiny = accel::edgeClass();
        tiny.globalBufferBytes = kib << 10;
        Accelerator acc = Accelerator::makeHda(
            tiny, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
            {512, 512}, {8.0, 8.0});
        HeraldScheduler scheduler(model);
        Workload wl = miniWorkload();
        Schedule s = scheduler.schedule(wl, acc);
        EXPECT_EQ(s.validate(wl, acc), "") << kib << " KiB";
    }
}

TEST_F(SchedulerTest, SummaryAggregatesEnergy)
{
    HeraldScheduler scheduler(model);
    Workload wl = miniWorkload();
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
    auto summary = s.finalize(acc, model.energyModel());
    double dynamic = 0.0;
    for (const auto &e : s.entries())
        dynamic += e.energyUnits;
    // Idle static energy is added on top of the per-layer sums.
    EXPECT_GE(summary.energyUnits, dynamic);
    EXPECT_GT(summary.latencySec, 0.0);
    EXPECT_GT(summary.edp(), 0.0);
    ASSERT_EQ(summary.busyCycles.size(), 2u);
}

TEST_F(SchedulerTest, EmptyWorkload)
{
    HeraldScheduler scheduler(model);
    Workload wl("empty");
    Accelerator acc = miniHda();
    Schedule s = scheduler.schedule(wl, acc);
    EXPECT_EQ(s.entries().size(), 0u);
    EXPECT_DOUBLE_EQ(s.makespanCycles(), 0.0);
}

TEST_F(SchedulerTest, ScheduleValidatorCatchesDependenceViolation)
{
    Workload wl("one");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    m.addLayer(dnn::makeFullyConnected("b", 64, 64));
    wl.addModel(std::move(m), 1);
    Accelerator acc = miniHda();

    Schedule s(acc.numSubAccs());
    sched::ScheduledLayer e0;
    e0.instanceIdx = 0;
    e0.layerIdx = 0;
    e0.accIdx = 0;
    e0.startCycle = 100.0;
    e0.endCycle = 200.0;
    sched::ScheduledLayer e1 = e0;
    e1.layerIdx = 1;
    e1.startCycle = 0.0; // starts before its predecessor ends
    e1.endCycle = 50.0;
    s.add(e0);
    s.add(e1);
    EXPECT_NE(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, ScheduleValidatorCatchesOverlap)
{
    Workload wl("one");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    m.addLayer(dnn::makeFullyConnected("b", 64, 64));
    wl.addModel(std::move(m), 1);
    Accelerator acc = miniHda();

    Schedule s(acc.numSubAccs());
    sched::ScheduledLayer e0;
    e0.instanceIdx = 0;
    e0.layerIdx = 0;
    e0.accIdx = 0;
    e0.startCycle = 0.0;
    e0.endCycle = 100.0;
    sched::ScheduledLayer e1 = e0;
    e1.layerIdx = 1;
    e1.startCycle = 50.0; // overlaps on the same sub-accelerator
    e1.endCycle = 150.0;
    s.add(e0);
    s.add(e1);
    EXPECT_NE(s.validate(wl, acc), "");
}

TEST_F(SchedulerTest, ScheduleValidatorCatchesMissingLayer)
{
    Workload wl("one");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    m.addLayer(dnn::makeFullyConnected("b", 64, 64));
    wl.addModel(std::move(m), 1);
    Accelerator acc = miniHda();

    Schedule s(acc.numSubAccs());
    sched::ScheduledLayer e0;
    e0.instanceIdx = 0;
    e0.layerIdx = 0;
    e0.accIdx = 0;
    e0.startCycle = 0.0;
    e0.endCycle = 100.0;
    s.add(e0);
    EXPECT_NE(s.validate(wl, acc), "");
}

// Regression for the stale context-penalty bug: the penalty used to
// be baked into a layer's duration at initial assignment and never
// re-examined when post-processing's gap-fill pass reordered entries
// and changed a sub-accelerator's instance adjacency — retimed
// schedules carried penalties where no context switch remained (and
// vice versa). The fix keeps every entry's penalty consistent with
// the actual time-order adjacency; checkContextPenalties() is the
// exact invariant.
TEST_F(SchedulerTest, ContextPenaltyConsistentAfterPostProcess)
{
    const double penalty = 1e4;
    Accelerator hda = miniHda();
    for (const Workload &wl :
         {miniWorkload(), workload::arvrA60fps(3),
          workload::mixedTenantScenario(2)}) {
        for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                            sched::Policy::Lst}) {
            SchedulerOptions opts;
            opts.policy = policy;
            opts.contextChangeCycles = penalty;
            opts.postProcess = true;
            Schedule pp =
                HeraldScheduler(model, opts).schedule(wl, hda);
            EXPECT_EQ(pp.validate(wl, hda), "") << wl.name();
            EXPECT_EQ(sched::checkContextPenalties(pp, penalty), "")
                << wl.name() << "/" << sched::toString(policy);

            // Base (penalty-free) durations must survive the
            // post-processing unchanged: for every (instance, layer)
            // pair, duration minus the carried penalty equals the
            // postProcess-off run's duration minus its penalty.
            SchedulerOptions no_pp = opts;
            no_pp.postProcess = false;
            Schedule raw =
                HeraldScheduler(model, no_pp).schedule(wl, hda);
            EXPECT_EQ(sched::checkContextPenalties(raw, penalty),
                      "")
                << wl.name();
            std::map<std::pair<std::size_t, std::size_t>, double>
                base;
            for (const sched::ScheduledLayer &e : raw.entries()) {
                base[{e.instanceIdx, e.layerIdx}] =
                    e.duration() - e.contextPenaltyCycles;
            }
            for (const sched::ScheduledLayer &e : pp.entries()) {
                auto it = base.find({e.instanceIdx, e.layerIdx});
                ASSERT_NE(it, base.end());
                EXPECT_NEAR(e.duration() - e.contextPenaltyCycles,
                            it->second, 1e-6)
                    << wl.name() << " instance " << e.instanceIdx
                    << " layer " << e.layerIdx;
            }
        }
    }
}

} // namespace
