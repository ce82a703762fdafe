/**
 * @file
 * Real-time scenario engine tests: periodic workload expansion
 * (arrivals, deadlines), arrival-aware scheduling validity, EDF
 * vs. FIFO miss counts on the factory scenarios, SLA statistics, the
 * SlaViolations DSE objective, and determinism across thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "dse/herald_dse.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
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

class RealtimeTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    /** Small periodic two-stream workload that schedules fast. */
    Workload
    miniRealtime()
    {
        Workload wl("mini-rt");
        dnn::Model conv_net("ConvNet");
        conv_net.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
        conv_net.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
        conv_net.addLayer(dnn::makeFullyConnected("fc", 10, 128));
        dnn::Model fc_net("FcNet");
        fc_net.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
        fc_net.addLayer(dnn::makeFullyConnected("f2", 256, 1024));
        wl.addPeriodicModel(std::move(conv_net), 3, 4e6);
        wl.addPeriodicModel(std::move(fc_net), 2, 6e6, 3e6);
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

    cost::CostModel model;
};

// ---------------------------------------------------------------
// Workload expansion
// ---------------------------------------------------------------

TEST_F(RealtimeTest, PeriodicExpansionStaggersArrivals)
{
    Workload wl("t");
    wl.addPeriodicModel(dnn::mobileNetV2(), 3, 1000.0);
    ASSERT_EQ(wl.numInstances(), 3u);
    for (int f = 0; f < 3; ++f) {
        const workload::Instance &inst = wl.instances()[f];
        EXPECT_DOUBLE_EQ(inst.arrivalCycle, f * 1000.0);
        // Implicit deadline: one period after arrival.
        EXPECT_DOUBLE_EQ(inst.deadlineCycle, f * 1000.0 + 1000.0);
        EXPECT_TRUE(inst.hasDeadline());
    }
    EXPECT_TRUE(wl.hasArrivals());
    EXPECT_TRUE(wl.hasDeadlines());
    EXPECT_TRUE(wl.specs()[0].realtime.periodic());
}

TEST_F(RealtimeTest, ExplicitDeadlineAndPhase)
{
    Workload wl("t");
    wl.addPeriodicModel(dnn::mobileNetV2(), 2, 1000.0, 400.0, 50.0);
    EXPECT_DOUBLE_EQ(wl.instances()[0].arrivalCycle, 50.0);
    EXPECT_DOUBLE_EQ(wl.instances()[0].deadlineCycle, 450.0);
    EXPECT_DOUBLE_EQ(wl.instances()[1].arrivalCycle, 1050.0);
    EXPECT_DOUBLE_EQ(wl.instances()[1].deadlineCycle, 1450.0);
}

TEST_F(RealtimeTest, AperiodicDefaultsUnchanged)
{
    Workload wl("t");
    wl.addModel(dnn::mobileNetV2(), 2);
    for (const workload::Instance &inst : wl.instances()) {
        EXPECT_DOUBLE_EQ(inst.arrivalCycle, 0.0);
        EXPECT_FALSE(inst.hasDeadline());
    }
    EXPECT_FALSE(wl.hasArrivals());
    EXPECT_FALSE(wl.hasDeadlines());
}

TEST_F(RealtimeTest, AddModelWithArrivalAndDeadline)
{
    Workload wl("t");
    wl.addModel(dnn::mobileNetV2(), 2, 100.0, 500.0);
    EXPECT_DOUBLE_EQ(wl.instances()[1].arrivalCycle, 100.0);
    EXPECT_DOUBLE_EQ(wl.instances()[1].deadlineCycle, 600.0);
}

TEST_F(RealtimeTest, RejectsBadRealtimeArguments)
{
    Workload wl("t");
    EXPECT_THROW(wl.addPeriodicModel(dnn::mobileNetV2(), 0, 1000.0),
                 std::runtime_error);
    EXPECT_THROW(wl.addPeriodicModel(dnn::mobileNetV2(), 1, 0.0),
                 std::runtime_error);
    EXPECT_THROW(wl.addModel(dnn::mobileNetV2(), 1, -1.0),
                 std::runtime_error);
    EXPECT_THROW(workload::fpsPeriodCycles(0.0),
                 std::runtime_error);
}

TEST_F(RealtimeTest, FpsPeriodCycles)
{
    // 60 FPS at 1 GHz: 1e9 / 60 cycles per frame.
    EXPECT_NEAR(workload::fpsPeriodCycles(60.0), 1e9 / 60.0, 1e-3);
}

TEST_F(RealtimeTest, FactoryScenariosAreRealtime)
{
    Workload a = workload::arvrA60fps(4);
    EXPECT_TRUE(a.hasArrivals());
    EXPECT_TRUE(a.hasDeadlines());
    // 4 MobileNetV2 frames + 2 UNet frames + 1 Resnet50 frame.
    EXPECT_EQ(a.numInstances(), 7u);

    Workload m = workload::mixedTenantScenario(2);
    EXPECT_TRUE(m.hasDeadlines());
    // The MLPerf tenant is best-effort: some instances deadline-free.
    bool some_free = false;
    for (const workload::Instance &inst : m.instances())
        some_free |= !inst.hasDeadline();
    EXPECT_TRUE(some_free);
}

// ---------------------------------------------------------------
// Arrival-aware scheduling
// ---------------------------------------------------------------

TEST_F(RealtimeTest, ScheduleWithArrivalsIsValid)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    for (bool edf : {false, true}) {
        for (bool pp : {false, true}) {
            SchedulerOptions opts;
            opts.policy = edf ? sched::Policy::Edf : sched::Policy::Fifo;
            opts.postProcess = pp;
            Schedule s =
                HeraldScheduler(model, opts).schedule(wl, acc);
            EXPECT_EQ(s.validate(wl, acc), "")
                << "edf=" << edf << " pp=" << pp;
        }
    }
}

TEST_F(RealtimeTest, NoLayerStartsBeforeArrival)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    Schedule s = HeraldScheduler(model).schedule(wl, acc);
    for (const sched::ScheduledLayer &e : s.entries()) {
        EXPECT_GE(e.startCycle,
                  wl.instances()[e.instanceIdx].arrivalCycle - 1e-6);
    }
}

TEST_F(RealtimeTest, ValidatorCatchesArrivalViolation)
{
    Workload wl("t");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    wl.addModel(std::move(m), 1, 1000.0);
    Accelerator acc = miniHda();

    Schedule s(acc.numSubAccs());
    sched::ScheduledLayer e;
    e.instanceIdx = 0;
    e.layerIdx = 0;
    e.accIdx = 0;
    e.startCycle = 0.0; // before the instance arrives at 1000
    e.endCycle = 100.0;
    s.add(e);
    std::string err = s.validate(wl, acc);
    EXPECT_NE(err.find("arrival"), std::string::npos) << err;
}

TEST_F(RealtimeTest, FutureFramesDoNotBlockArrivedWork)
{
    // A periodic stream with far-apart arrivals shares the chip with
    // a best-effort job arriving at cycle 0. The greedy pass must
    // not reserve slots at future arrivals and serialize the
    // best-effort work behind frames that do not exist yet: the job
    // has to finish long before the stream's last frame arrives.
    const double period = 5e7;
    for (bool edf : {false, true}) {
        Workload wl("future-frames");
        wl.addPeriodicModel(dnn::mobileNetV2(), 4, period);
        wl.addModel(dnn::mobileNetV1(), 1); // best-effort, arrival 0
        Accelerator acc = miniHda();
        SchedulerOptions opts;
        opts.policy = edf ? sched::Policy::Edf : sched::Policy::Fifo;
        Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        EXPECT_EQ(s.validate(wl, acc), "");
        sched::SlaStats sla = s.computeSla(wl);
        // Instance 4 is the best-effort MobileNetV1.
        const sched::InstanceSla &job = sla.perInstance[4];
        ASSERT_TRUE(job.scheduled);
        EXPECT_LT(job.completionCycle, period)
            << "best-effort job serialized behind future frames"
            << " (edf=" << edf << ")";
    }
}

TEST_F(RealtimeTest, EdfPreemptsAtDispatchOnceFrameIsReleased)
{
    // Depth-first FIFO runs all of M1 before M2. With EDF,
    // once M2's (tiny) arrival falls inside the committed schedule
    // horizon it must be dispatched ahead of M1's remaining layers —
    // M1 has no deadline, M2 a finite one. This regresses the
    // release-clock definition: a frontier pinned at zero by an idle
    // sub-accelerator would never release M2 before M1 finishes.
    Workload wl("edf-preempt");
    dnn::Model m1("Long");
    for (int i = 0; i < 4; ++i) {
        m1.addLayer(dnn::makeFullyConnected(
            "l" + std::to_string(i), 1024, 1024));
    }
    dnn::Model m2("Urgent");
    m2.addLayer(dnn::makeFullyConnected("u", 256, 256));
    wl.addModel(std::move(m1), 1);
    wl.addModel(std::move(m2), 1, 1.0, 2e5);
    Accelerator acc = miniHda();

    SchedulerOptions opts;
    opts.ordering = sched::Ordering::DepthFirst;
    opts.policy = sched::Policy::Edf;
    opts.postProcess = false;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");

    double m1_last_start = 0.0;
    double m2_start = 0.0;
    for (const sched::ScheduledLayer &e : s.entries()) {
        if (e.instanceIdx == 0 && e.layerIdx == 3)
            m1_last_start = e.startCycle;
        if (e.instanceIdx == 1)
            m2_start = e.startCycle;
    }
    EXPECT_LT(m2_start, m1_last_start)
        << "EDF never released the urgent frame";
}

TEST_F(RealtimeTest, UnscheduledInstancesCountAsMisses)
{
    Workload wl("t");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    wl.addModel(std::move(m), 2, 0.0, 100.0);
    Accelerator acc = miniHda();

    // A partial schedule covering only instance 0.
    Schedule s(acc.numSubAccs());
    sched::ScheduledLayer e;
    e.instanceIdx = 0;
    e.layerIdx = 0;
    e.accIdx = 0;
    e.startCycle = 0.0;
    e.endCycle = 50.0;
    s.add(e);

    sched::SlaStats sla = s.computeSla(wl);
    EXPECT_EQ(sla.frames, 2u);
    EXPECT_EQ(sla.framesWithDeadline, 2u);
    // The never-executed frame cannot have made its deadline.
    EXPECT_EQ(sla.deadlineMisses, 1u);
    EXPECT_EQ(sla.droppedFrames, 0u);
    EXPECT_DOUBLE_EQ(sla.missRate, 0.5);
    ASSERT_EQ(sla.perInstance.size(), 2u);
    EXPECT_TRUE(sla.perInstance[0].scheduled);
    EXPECT_FALSE(sla.perInstance[0].missed);
    EXPECT_FALSE(sla.perInstance[1].scheduled);
    EXPECT_TRUE(sla.perInstance[1].missed);
    // Honest percentiles: the frame that never ran contributes +inf
    // latency instead of silently vanishing from the tail — p50 is
    // the surviving frame, p99 and max are unbounded. (The old
    // behaviour reported a rosy p99 of 50 cycles here.)
    EXPECT_DOUBLE_EQ(sla.p50LatencyCycles, 50.0);
    EXPECT_TRUE(std::isinf(sla.p99LatencyCycles));
    EXPECT_TRUE(std::isinf(sla.maxLatencyCycles));
}

TEST_F(RealtimeTest, ContextChangePenaltyStillValidWithArrivals)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    SchedulerOptions opts;
    opts.contextChangeCycles = 1e4;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc), "");
}

TEST_F(RealtimeTest, DeadlineAwareIsNoOpWithoutDeadlines)
{
    // On a deadline-free workload the EDF tie-break never fires, so
    // the schedules must be entry-for-entry identical.
    Workload wl("plain");
    wl.addModel(dnn::mobileNetV2(), 2);
    wl.addModel(dnn::brqHandposeNet(), 1);
    Accelerator acc = miniHda();

    SchedulerOptions fifo;
    SchedulerOptions edf;
    edf.policy = sched::Policy::Edf;
    Schedule a = HeraldScheduler(model, fifo).schedule(wl, acc);
    Schedule b = HeraldScheduler(model, edf).schedule(wl, acc);
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].instanceIdx,
                  b.entries()[i].instanceIdx);
        EXPECT_EQ(a.entries()[i].accIdx, b.entries()[i].accIdx);
        EXPECT_DOUBLE_EQ(a.entries()[i].startCycle,
                         b.entries()[i].startCycle);
    }
}

// ---------------------------------------------------------------
// SLA metrics
// ---------------------------------------------------------------

TEST_F(RealtimeTest, SlaStatsOnHandBuiltSchedule)
{
    Workload wl("t");
    dnn::Model m("M");
    m.addLayer(dnn::makeFullyConnected("a", 64, 64));
    // Frames arrive at 0 / 100 / 200 / 300, deadline 50 cycles each.
    wl.addPeriodicModel(std::move(m), 4, 100.0, 50.0);
    Accelerator acc = miniHda();

    Schedule s(acc.numSubAccs());
    const double completions[] = {40.0, 160.0, 230.0, 340.0};
    for (std::size_t i = 0; i < 4; ++i) {
        sched::ScheduledLayer e;
        e.instanceIdx = i;
        e.layerIdx = 0;
        e.accIdx = 0;
        e.startCycle = completions[i] - 10.0;
        e.endCycle = completions[i];
        s.add(e);
    }

    sched::SlaStats sla = s.computeSla(wl);
    EXPECT_EQ(sla.frames, 4u);
    EXPECT_EQ(sla.framesWithDeadline, 4u);
    // Latencies: 40, 60, 30, 40. Deadlines at 50/150/250/350:
    // misses are frames 1 (160 > 150) only.
    EXPECT_EQ(sla.deadlineMisses, 1u);
    EXPECT_DOUBLE_EQ(sla.missRate, 0.25);
    EXPECT_DOUBLE_EQ(sla.maxLatencyCycles, 60.0);
    // Sorted latencies {30, 40, 40, 60}: p50 = 2nd, p99 = 4th.
    EXPECT_DOUBLE_EQ(sla.p50LatencyCycles, 40.0);
    EXPECT_DOUBLE_EQ(sla.p99LatencyCycles, 60.0);
    ASSERT_EQ(sla.perInstance.size(), 4u);
    EXPECT_TRUE(sla.perInstance[1].missed);
    EXPECT_FALSE(sla.perInstance[0].missed);
    EXPECT_DOUBLE_EQ(sla.perInstance[2].latencyCycles, 30.0);
}

TEST_F(RealtimeTest, FinalizeEmbedsSlaStats)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    Schedule s = HeraldScheduler(model).schedule(wl, acc);
    sched::ScheduleSummary sum =
        s.finalize(wl, acc, model.energyModel());
    EXPECT_EQ(sum.sla.frames, wl.numInstances());
    EXPECT_EQ(sum.sla.framesWithDeadline, wl.numInstances());
    EXPECT_GT(sum.sla.p50LatencyCycles, 0.0);
    EXPECT_LE(sum.sla.p50LatencyCycles, sum.sla.p99LatencyCycles);
    EXPECT_LE(sum.sla.p99LatencyCycles, sum.sla.maxLatencyCycles);
    // The base overload computes identical non-SLA fields.
    sched::ScheduleSummary base =
        s.finalize(acc, model.energyModel());
    EXPECT_EQ(base.makespanCycles, sum.makespanCycles);
    EXPECT_EQ(base.energyMj, sum.energyMj);
    EXPECT_EQ(base.sla.frames, 0u);
}

// ---------------------------------------------------------------
// EDF vs. FIFO on the factory scenarios
// ---------------------------------------------------------------

TEST_F(RealtimeTest, EdfNeverWorseThanFifoOnFactoryScenarios)
{
    Accelerator acc = miniHda();
    for (int frames : {2, 4}) {
        for (const Workload &wl :
             {workload::arvrA60fps(frames),
              workload::mixedTenantScenario(frames)}) {
            SchedulerOptions fifo;
            SchedulerOptions edf;
            edf.policy = sched::Policy::Edf;
            Schedule sf =
                HeraldScheduler(model, fifo).schedule(wl, acc);
            Schedule se =
                HeraldScheduler(model, edf).schedule(wl, acc);
            EXPECT_EQ(sf.validate(wl, acc), "") << wl.name();
            EXPECT_EQ(se.validate(wl, acc), "") << wl.name();
            sched::SlaStats f = sf.computeSla(wl);
            sched::SlaStats e = se.computeSla(wl);
            EXPECT_LE(e.deadlineMisses, f.deadlineMisses)
                << wl.name() << " frames=" << frames;
        }
    }
}

// ---------------------------------------------------------------
// Selection policies (LST) and drop policies
// ---------------------------------------------------------------

TEST_F(RealtimeTest, LstIsExactNoOpWithoutDeadlines)
{
    // Deadline-free workloads key every instance to +inf slack, so
    // LST must be bit-identical to FIFO — with or without the drop
    // policy (which never drops deadline-free frames).
    Workload wl("plain");
    wl.addModel(dnn::mobileNetV2(), 2);
    wl.addModel(dnn::brqHandposeNet(), 1, 5e5);
    Accelerator acc = miniHda();

    SchedulerOptions fifo;
    Schedule base = HeraldScheduler(model, fifo).schedule(wl, acc);
    for (auto drop : {sched::DropPolicy::None,
                      sched::DropPolicy::HopelessFrames}) {
        SchedulerOptions lst;
        lst.policy = sched::Policy::Lst;
        lst.dropPolicy = drop;
        Schedule s = HeraldScheduler(model, lst).schedule(wl, acc);
        EXPECT_TRUE(base.identicalTo(s));
        EXPECT_TRUE(s.droppedInstances().empty());
    }
}

TEST_F(RealtimeTest, LstNeverWorseThanEdfOnOverloadedScenarios)
{
    // Property guardrail for the over-subscribed factory scenarios:
    // slack-aware dispatch must not lose to deadline-only dispatch,
    // with or without admission control.
    Accelerator acc = miniHda();
    for (int frames : {2, 4, 8}) {
        for (const Workload &wl :
             {workload::arvrAOverloaded(frames),
              workload::mixedTenantOverloaded(frames)}) {
            for (auto drop : {sched::DropPolicy::None,
                              sched::DropPolicy::HopelessFrames}) {
                SchedulerOptions edf;
                edf.policy = sched::Policy::Edf;
                edf.dropPolicy = drop;
                SchedulerOptions lst = edf;
                lst.policy = sched::Policy::Lst;
                Schedule se =
                    HeraldScheduler(model, edf).schedule(wl, acc);
                Schedule sl =
                    HeraldScheduler(model, lst).schedule(wl, acc);
                EXPECT_EQ(se.validate(wl, acc), "") << wl.name();
                EXPECT_EQ(sl.validate(wl, acc), "") << wl.name();
                EXPECT_LE(sl.computeSla(wl).deadlineMisses,
                          se.computeSla(wl).deadlineMisses)
                    << wl.name() << " frames=" << frames
                    << " drop=" << sched::toString(drop);
            }
        }
    }
}

TEST_F(RealtimeTest, LstBeatsEdfOnOverloadedMixedTenant)
{
    // The headline separation (acceptance criterion): on the
    // over-subscribed mixed-tenant scenario the heavy analytics job
    // has the least slack but the latest deadline — EDF
    // procrastinates on it behind the frame streams until it cannot
    // finish, LST starts it immediately and still lands the frames
    // (their multi-frame pipeline deadlines tolerate the wait).
    Accelerator acc = miniHda();
    Workload wl = workload::mixedTenantOverloaded(8);
    SchedulerOptions edf;
    edf.policy = sched::Policy::Edf;
    SchedulerOptions lst;
    lst.policy = sched::Policy::Lst;
    Schedule se = HeraldScheduler(model, edf).schedule(wl, acc);
    Schedule sl = HeraldScheduler(model, lst).schedule(wl, acc);
    EXPECT_EQ(se.validate(wl, acc), "");
    EXPECT_EQ(sl.validate(wl, acc), "");
    sched::SlaStats e = se.computeSla(wl);
    sched::SlaStats l = sl.computeSla(wl);
    EXPECT_LT(l.deadlineMisses, e.deadlineMisses)
        << "LST must yield strictly fewer misses than EDF here";
}

TEST_F(RealtimeTest, DropPolicyShedsHopelessFrames)
{
    // arvrAOverloaded carries a UNet stream whose frames are
    // provably hopeless (optimistic execution alone blows the
    // deadline): the drop policy sheds exactly those, they count as
    // misses, and the freed cycles save other frames.
    Accelerator acc = miniHda();
    Workload wl = workload::arvrAOverloaded(4);
    for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                        sched::Policy::Lst}) {
        SchedulerOptions keep;
        keep.policy = policy;
        SchedulerOptions drop = keep;
        drop.dropPolicy = sched::DropPolicy::HopelessFrames;
        Schedule sk = HeraldScheduler(model, keep).schedule(wl, acc);
        Schedule sd = HeraldScheduler(model, drop).schedule(wl, acc);
        EXPECT_EQ(sk.validate(wl, acc), "");
        EXPECT_EQ(sd.validate(wl, acc), "");

        sched::SlaStats kept = sk.computeSla(wl);
        sched::SlaStats shed = sd.computeSla(wl);
        EXPECT_EQ(kept.droppedFrames, 0u);
        ASSERT_GT(shed.droppedFrames, 0u);
        // Dropped = the UNet frames (spec 1), nothing else.
        for (std::size_t idx : sd.droppedInstances()) {
            EXPECT_EQ(wl.instances()[idx].specIdx, 1u);
            EXPECT_FALSE(shed.perInstance[idx].scheduled);
            EXPECT_TRUE(shed.perInstance[idx].dropped);
            EXPECT_TRUE(shed.perInstance[idx].missed)
                << "a dropped frame is a missed frame";
        }
        EXPECT_EQ(shed.droppedFrames, sd.droppedInstances().size());
        // No layer of a dropped instance may be scheduled.
        for (const sched::ScheduledLayer &e : sd.entries())
            EXPECT_FALSE(sd.isDropped(e.instanceIdx));
        // Shedding hopeless work must not create new misses — here
        // it strictly reduces them by rescuing live frames.
        EXPECT_LE(shed.deadlineMisses, kept.deadlineMisses)
            << sched::toString(policy);
        EXPECT_GE(shed.deadlineMisses, shed.droppedFrames);
        // Unbounded tail: dropped frames never complete.
        EXPECT_TRUE(std::isinf(shed.p99LatencyCycles));
    }
}

TEST_F(RealtimeTest, DropPolicyNoOpWhenEveryFrameIsFeasible)
{
    // miniRealtime's deadlines are generous: nothing is provably
    // hopeless, so admission control must change nothing at all.
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                        sched::Policy::Lst}) {
        SchedulerOptions keep;
        keep.policy = policy;
        SchedulerOptions drop = keep;
        drop.dropPolicy = sched::DropPolicy::HopelessFrames;
        Schedule a = HeraldScheduler(model, keep).schedule(wl, acc);
        Schedule b = HeraldScheduler(model, drop).schedule(wl, acc);
        EXPECT_TRUE(a.identicalTo(b)) << sched::toString(policy);
        EXPECT_TRUE(b.droppedInstances().empty());
    }
}

TEST_F(RealtimeTest, OverloadedFactoryScenariosAreOverSubscribed)
{
    // The over-subscribed variants must actually be over-subscribed:
    // even EDF cannot meet every deadline at the default sizes.
    Accelerator acc = miniHda();
    for (const Workload &wl : {workload::arvrAOverloaded(8),
                               workload::mixedTenantOverloaded(8)}) {
        EXPECT_TRUE(wl.hasArrivals());
        EXPECT_TRUE(wl.hasDeadlines());
        SchedulerOptions edf;
        edf.policy = sched::Policy::Edf;
        Schedule s = HeraldScheduler(model, edf).schedule(wl, acc);
        EXPECT_GT(s.computeSla(wl).deadlineMisses, 0u) << wl.name();
    }
}

// ---------------------------------------------------------------
// Preemption points, dynamic doomed-frame drop, LST hysteresis
// ---------------------------------------------------------------

TEST_F(RealtimeTest, InteractiveOverloadedFactoryShape)
{
    Workload wl = workload::interactiveOverloaded(8);
    EXPECT_TRUE(wl.hasArrivals());
    EXPECT_TRUE(wl.hasDeadlines());
    // 2 heavy analytics jobs + 8 interactive frames.
    EXPECT_EQ(wl.numInstances(), 10u);
    // Over-subscribed for run-to-completion dispatch: even LST
    // misses deadlines without preemption points.
    Accelerator acc = miniHda();
    SchedulerOptions lst;
    lst.policy = sched::Policy::Lst;
    Schedule s = HeraldScheduler(model, lst).schedule(wl, acc);
    EXPECT_GT(s.computeSla(wl).deadlineMisses, 0u);
}

TEST_F(RealtimeTest, PreemptionBeatsRunToCompletionLst)
{
    // The tentpole separation (acceptance criterion): interactive
    // arrivals land mid-heavy-layer, so run-to-completion LST queues
    // them behind committed work past their deadlines while a
    // preemption point serves them at arrival — strictly fewer
    // misses, with and without the dynamic drop riding along.
    Accelerator acc = miniHda();
    for (int frames : {4, 8}) {
        Workload wl = workload::interactiveOverloaded(frames);
        SchedulerOptions rtc;
        rtc.policy = sched::Policy::Lst;
        SchedulerOptions pre = rtc;
        pre.preemption = sched::Preemption::AtLayerBoundary;
        SchedulerOptions pre_drop = pre;
        pre_drop.dropPolicy = sched::DropPolicy::DoomedFrames;
        Schedule s_rtc =
            HeraldScheduler(model, rtc).schedule(wl, acc);
        Schedule s_pre =
            HeraldScheduler(model, pre).schedule(wl, acc);
        Schedule s_pre_drop =
            HeraldScheduler(model, pre_drop).schedule(wl, acc);
        EXPECT_EQ(s_rtc.validate(wl, acc), "");
        EXPECT_EQ(s_pre.validate(wl, acc), "");
        EXPECT_EQ(s_pre_drop.validate(wl, acc), "");
        sched::SlaStats rtc_sla = s_rtc.computeSla(wl);
        EXPECT_LT(s_pre.computeSla(wl).deadlineMisses,
                  rtc_sla.deadlineMisses)
            << "frames=" << frames;
        EXPECT_LT(s_pre_drop.computeSla(wl).deadlineMisses,
                  rtc_sla.deadlineMisses)
            << "frames=" << frames;
    }
}

TEST_F(RealtimeTest, NothingReadyFallbackPicksRotatedBandMember)
{
    // Three periodic streams share period and phase, and the period
    // far exceeds a band's makespan, so every band lands on an idle
    // accelerator and its first pick comes from the nothing-ready
    // fallback. Streams 0 and 2 (ids 0-2 and 6-8) tie
    // on the most urgent key under both EDF and LST; the less urgent
    // stream 1 (ids 3-5) commits last in each band, so breadth-first
    // rotation resumes past it and the fallback picks stream 2's
    // frame — an unrotated scan would pick stream 0's. No reference
    // oracle covers LST, so the sequence is pinned.
    const double period = 2e7;
    const double phase = period / 2;
    dnn::Model conv_net("ConvNet");
    conv_net.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    conv_net.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    conv_net.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    dnn::Model fc_net("FcNet");
    fc_net.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
    fc_net.addLayer(dnn::makeFullyConnected("f2", 256, 1024));
    Workload wl("banded");
    wl.addPeriodicModel(conv_net, 3, period, 0.5 * period, phase);
    wl.addPeriodicModel(fc_net, 3, period, 0.75 * period, phase);
    wl.addPeriodicModel(conv_net, 3, period, 0.5 * period, phase);
    Accelerator acc = miniHda();

    struct Placed
    {
        std::size_t instance;
        std::size_t layer;
        std::size_t acc;
        double start;
    };
    // Deadlines dominate slack here, so LST and EDF agree.
    const std::vector<Placed> expected = {
        {0, 0, 1, 10000000},   {6, 0, 1, 10020766},
        {0, 1, 0, 10020766},   {6, 1, 0, 10168615.5},
        {0, 2, 0, 10316465},   {6, 2, 0, 10317439},
        {3, 0, 0, 10318413},   {3, 1, 0, 10592546.75},
        {7, 0, 1, 30000000},   {1, 0, 1, 30020766},
        {7, 1, 0, 30020766},   {1, 1, 0, 30168615.5},
        {7, 2, 0, 30316465},   {1, 2, 0, 30317439},
        {4, 0, 0, 30318413},   {4, 1, 0, 30592546.75},
        {8, 0, 1, 50000000},   {2, 0, 1, 50020766},
        {8, 1, 0, 50020766},   {2, 1, 0, 50168615.5},
        {8, 2, 0, 50316465},   {2, 2, 0, 50317439},
        {5, 0, 0, 50318413},   {5, 1, 0, 50592546.75},
    };
    for (sched::Policy policy : {sched::Policy::Lst, sched::Policy::Edf}) {
        SchedulerOptions opts;
        opts.policy = policy;
        opts.ordering = sched::Ordering::BreadthFirst;
        opts.postProcess = false;
        Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        EXPECT_EQ(s.validate(wl, acc), "");
        ASSERT_EQ(s.entries().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const sched::ScheduledLayer &e = s.entries()[i];
            EXPECT_EQ(e.instanceIdx, expected[i].instance) << i;
            EXPECT_EQ(e.layerIdx, expected[i].layer) << i;
            EXPECT_EQ(e.accIdx, expected[i].acc) << i;
            EXPECT_EQ(e.startCycle, expected[i].start) << i;
        }
    }
}

TEST_F(RealtimeTest, PreemptionIsExactNoOpForFifo)
{
    // FIFO's constant key can never mark an arrival as strictly
    // more urgent, so the preemption machinery must be a no-op:
    // bit-identical schedules on every scenario shape.
    Accelerator acc = miniHda();
    for (const Workload &wl :
         {workload::interactiveOverloaded(4),
          workload::arvrAOverloaded(4), miniRealtime()}) {
        SchedulerOptions off;
        SchedulerOptions pre;
        pre.preemption = sched::Preemption::AtLayerBoundary;
        Schedule a = HeraldScheduler(model, off).schedule(wl, acc);
        Schedule b = HeraldScheduler(model, pre).schedule(wl, acc);
        EXPECT_TRUE(a.identicalTo(b)) << wl.name();
    }
}

TEST_F(RealtimeTest, PreemptionDeterministicAcrossThreadCounts)
{
    // The preemption decision reads only committed-schedule state,
    // so prefill-thread fan-out must not perturb it. The workload is
    // padded with deadline-carrying zoo models on a 4-way HDA so the
    // cost table crosses LayerCostTable::kMinParallelEvals and the
    // pool genuinely spins up (below the gate the prefill is serial
    // and the comparison would be vacuous).
    Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss, DataflowStyle::NVDLA},
        {256, 256, 256, 256}, {4.0, 4.0, 4.0, 4.0});
    Workload wl = workload::interactiveOverloaded(8);
    wl.addModel(dnn::resnet50(), 1, 1e6, 9e7);
    wl.addModel(dnn::uNet(), 1, 2e6, 8e8);
    wl.addModel(dnn::ssdResnet34(), 1, 3e6, 9e8);
    wl.addModel(dnn::gnmt(), 1, 4e6, 9e8);
    wl.addModel(dnn::mobileNetV1(), 2, 5e6, 6e7);
    ASSERT_GE(wl.totalLayers() * acc.numSubAccs(),
              sched::LayerCostTable::kMinParallelEvals)
        << "workload too small to engage the parallel prefill";
    for (auto drop : {sched::DropPolicy::None,
                      sched::DropPolicy::DoomedFrames}) {
        SchedulerOptions serial;
        serial.policy = sched::Policy::Lst;
        serial.preemption = sched::Preemption::AtLayerBoundary;
        serial.dropPolicy = drop;
        serial.prefillThreads = 1;
        SchedulerOptions parallel = serial;
        parallel.prefillThreads = 7;
        Schedule a =
            HeraldScheduler(model, serial).schedule(wl, acc);
        Schedule b =
            HeraldScheduler(model, parallel).schedule(wl, acc);
        EXPECT_TRUE(a.identicalTo(b))
            << sched::toString(drop);
        Schedule c =
            HeraldScheduler(model, serial).schedule(wl, acc);
        EXPECT_TRUE(a.identicalTo(c)) << "rerun divergence";
    }
}

TEST_F(RealtimeTest, DoomedFramesShedMidFlight)
{
    // Transient overload: a heavy straggler with a moderate deadline
    // is on track until a tight burst lands mid-flight. The dynamic
    // drop sheds frames that *become* doomed after partial
    // scheduling — their committed prefix stays on the timeline,
    // they count as dropped and missed, and the static
    // HopelessFrames test (arrival-time proof only) cannot see them.
    Workload wl("transient-burst");
    wl.addModel(dnn::resnet50(), 1, 0.0, 2.2e7);
    wl.addModel(dnn::mobileNetV2(), 6, 3e6, 4e6);
    Accelerator acc = miniHda();
    for (auto policy : {sched::Policy::Edf, sched::Policy::Lst}) {
        SchedulerOptions doomed;
        doomed.policy = policy;
        doomed.dropPolicy = sched::DropPolicy::DoomedFrames;
        SchedulerOptions hopeless = doomed;
        hopeless.dropPolicy = sched::DropPolicy::HopelessFrames;
        Schedule sd =
            HeraldScheduler(model, doomed).schedule(wl, acc);
        Schedule sh =
            HeraldScheduler(model, hopeless).schedule(wl, acc);
        EXPECT_EQ(sd.validate(wl, acc), "");
        ASSERT_GT(sd.droppedInstances().size(), 0u);
        // Nothing is hopeless at arrival — every drop is dynamic.
        EXPECT_TRUE(sh.droppedInstances().empty());
        // At least one shed frame keeps a committed prefix.
        std::map<std::size_t, std::size_t> count;
        for (const sched::ScheduledLayer &e : sd.entries())
            ++count[e.instanceIdx];
        std::size_t midflight = 0;
        for (std::size_t d : sd.droppedInstances()) {
            auto it = count.find(d);
            if (it == count.end())
                continue;
            ++midflight;
            EXPECT_LT(it->second, wl.modelOf(d).numLayers());
        }
        EXPECT_GT(midflight, 0u) << sched::toString(policy);
        sched::SlaStats sla = sd.computeSla(wl);
        EXPECT_EQ(sla.droppedFrames, sd.droppedInstances().size());
        EXPECT_GE(sla.deadlineMisses, sla.droppedFrames);
        for (std::size_t d : sd.droppedInstances()) {
            EXPECT_TRUE(sla.perInstance[d].dropped);
            EXPECT_TRUE(sla.perInstance[d].missed);
            EXPECT_FALSE(sla.perInstance[d].scheduled);
        }
    }
}

TEST_F(RealtimeTest, DoomedDropsSupersetOfHopelessDrops)
{
    // The dynamic test at "now" with partial progress can only ever
    // shed *more* than the arrival-time proof: every statically
    // hopeless frame is also doomed at release.
    Accelerator acc = miniHda();
    for (int frames : {2, 4, 8}) {
        for (const Workload &wl :
             {workload::arvrAOverloaded(frames),
              workload::mixedTenantOverloaded(frames)}) {
            for (auto policy :
                 {sched::Policy::Fifo, sched::Policy::Edf,
                  sched::Policy::Lst}) {
                SchedulerOptions hopeless;
                hopeless.policy = policy;
                hopeless.dropPolicy =
                    sched::DropPolicy::HopelessFrames;
                SchedulerOptions doomed = hopeless;
                doomed.dropPolicy = sched::DropPolicy::DoomedFrames;
                Schedule sh = HeraldScheduler(model, hopeless)
                                  .schedule(wl, acc);
                Schedule sd = HeraldScheduler(model, doomed)
                                  .schedule(wl, acc);
                EXPECT_EQ(sd.validate(wl, acc), "") << wl.name();
                EXPECT_TRUE(std::includes(
                    sd.droppedInstances().begin(),
                    sd.droppedInstances().end(),
                    sh.droppedInstances().begin(),
                    sh.droppedInstances().end()))
                    << wl.name() << " " << sched::toString(policy);
            }
        }
    }
}

TEST_F(RealtimeTest, DoomedFramesCutMissesOnOverloadedScenario)
{
    // Shedding work that provably cannot finish frees the cycles the
    // savable frames need: on the over-subscribed AR/VR mix the
    // dynamic drop cuts LST misses sharply (every miss left is a
    // shed frame, every survivor completes in time).
    Accelerator acc = miniHda();
    Workload wl = workload::arvrAOverloaded(8);
    SchedulerOptions keep;
    keep.policy = sched::Policy::Lst;
    SchedulerOptions doomed = keep;
    doomed.dropPolicy = sched::DropPolicy::DoomedFrames;
    Schedule sk = HeraldScheduler(model, keep).schedule(wl, acc);
    Schedule sd = HeraldScheduler(model, doomed).schedule(wl, acc);
    sched::SlaStats kept = sk.computeSla(wl);
    sched::SlaStats shed = sd.computeSla(wl);
    EXPECT_LT(shed.deadlineMisses, kept.deadlineMisses);
    EXPECT_EQ(shed.deadlineMisses, shed.droppedFrames)
        << "every remaining miss should be an intentional shed";
}

TEST_F(RealtimeTest, DoomedFramesNoOpWhenEveryFrameIsFeasible)
{
    // Generous deadlines: the doom test never fires and the whole
    // machinery must leave the schedule bit-identical.
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                        sched::Policy::Lst}) {
        SchedulerOptions keep;
        keep.policy = policy;
        SchedulerOptions doomed = keep;
        doomed.dropPolicy = sched::DropPolicy::DoomedFrames;
        Schedule a = HeraldScheduler(model, keep).schedule(wl, acc);
        Schedule b =
            HeraldScheduler(model, doomed).schedule(wl, acc);
        EXPECT_TRUE(a.identicalTo(b)) << sched::toString(policy);
        EXPECT_TRUE(b.droppedInstances().empty());
    }
}

TEST_F(RealtimeTest, LstHysteresisReducesThrashNotQuality)
{
    // ROADMAP follow-up (a): near-equal slack degenerates LST into
    // processor sharing (one layer per frame, round and round). The
    // hysteresis band keeps the grant with the running frame, which
    // must cut dispatch-order switches without costing misses on the
    // over-subscribed tenant mix.
    Accelerator acc = miniHda();
    Workload wl = workload::mixedTenantOverloaded(8);
    auto switches = [](const Schedule &s) {
        std::size_t n = 0;
        for (std::size_t i = 1; i < s.entries().size(); ++i) {
            n += s.entries()[i].instanceIdx !=
                 s.entries()[i - 1].instanceIdx;
        }
        return n;
    };
    SchedulerOptions base;
    base.policy = sched::Policy::Lst;
    SchedulerOptions hyst = base;
    hyst.lstHysteresisCycles = 1e6;
    Schedule sb = HeraldScheduler(model, base).schedule(wl, acc);
    Schedule sh = HeraldScheduler(model, hyst).schedule(wl, acc);
    EXPECT_EQ(sh.validate(wl, acc), "");
    EXPECT_LT(switches(sh), switches(sb))
        << "the band should suppress processor-sharing thrash";
    EXPECT_LE(sh.computeSla(wl).deadlineMisses,
              sb.computeSla(wl).deadlineMisses);

    // With a real context-change penalty the suppressed switches
    // stop paying the switch tax: the band strictly cuts misses.
    SchedulerOptions ctx_base = base;
    ctx_base.contextChangeCycles = 1e4;
    SchedulerOptions ctx_hyst = ctx_base;
    ctx_hyst.lstHysteresisCycles = 1e6;
    Schedule cb =
        HeraldScheduler(model, ctx_base).schedule(wl, acc);
    Schedule ch =
        HeraldScheduler(model, ctx_hyst).schedule(wl, acc);
    EXPECT_EQ(ch.validate(wl, acc), "");
    EXPECT_LT(ch.computeSla(wl).deadlineMisses,
              cb.computeSla(wl).deadlineMisses);
}

TEST_F(RealtimeTest, HysteresisRejectedForNonLstPolicies)
{
    // The band is an LST knob: on FIFO/EDF it would silently do
    // nothing, so validation rejects the combination up front.
    Accelerator acc = miniHda();
    Workload wl = workload::mixedTenantOverloaded(4);
    for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf}) {
        SchedulerOptions band;
        band.policy = policy;
        band.lstHysteresisCycles = 1e6;
        EXPECT_THROW(HeraldScheduler(model, band).schedule(wl, acc),
                     std::runtime_error)
            << sched::toString(policy);
    }
}

// ---------------------------------------------------------------
// DSE integration
// ---------------------------------------------------------------

TEST_F(RealtimeTest, SlaViolationsObjectivePicksMissArgmin)
{
    dse::HeraldOptions opts;
    opts.partition.peGranularity = 256;
    opts.partition.bwGranularity = 4.0;
    opts.objective = dse::Objective::SlaViolations;
    opts.scheduler.policy = sched::Policy::Edf;
    dse::Herald herald(model, opts);
    Workload wl = miniRealtime();
    dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    ASSERT_FALSE(result.points.empty());
    std::size_t best_misses =
        result.best().summary.sla.deadlineMisses;
    for (const dse::DsePoint &p : result.points)
        EXPECT_GE(p.summary.sla.deadlineMisses, best_misses);
}

TEST_F(RealtimeTest, ExploreReportsSlaAlongsideEdp)
{
    // Default (EDP) objective still carries SLA stats in every point.
    dse::HeraldOptions opts;
    opts.partition.peGranularity = 256;
    opts.partition.bwGranularity = 4.0;
    dse::Herald herald(model, opts);
    Workload wl = miniRealtime();
    dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    for (const dse::DsePoint &p : result.points) {
        EXPECT_EQ(p.summary.sla.frames, wl.numInstances());
        EXPECT_GT(p.summary.edp(), 0.0);
    }
}

TEST_F(RealtimeTest, SlaViolationsSweepWithLstAndDrop)
{
    // Hardware x policy co-design: the SlaViolations objective
    // composes with any selection/drop policy pair, and the dropped-
    // frame accounting flows through every swept design point.
    dse::HeraldOptions opts;
    opts.partition.peGranularity = 256;
    opts.partition.bwGranularity = 4.0;
    opts.objective = dse::Objective::SlaViolations;
    opts.scheduler.policy = sched::Policy::Lst;
    opts.scheduler.dropPolicy = sched::DropPolicy::HopelessFrames;
    dse::Herald herald(model, opts);
    Workload wl = workload::arvrAOverloaded(2);
    dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    ASSERT_FALSE(result.points.empty());
    std::size_t best = result.best().summary.sla.deadlineMisses;
    for (const dse::DsePoint &p : result.points) {
        EXPECT_GE(p.summary.sla.deadlineMisses, best);
        EXPECT_EQ(p.summary.sla.frames, wl.numInstances());
        // The UNet frame is hopeless on every partition of the edge
        // chip, so admission control fires at every design point.
        EXPECT_GT(p.summary.sla.droppedFrames, 0u);
        EXPECT_GE(p.summary.sla.deadlineMisses,
                  p.summary.sla.droppedFrames);
    }
}

TEST_F(RealtimeTest, RealtimeDseDeterministicAcrossThreadCounts)
{
    auto run = [&](std::size_t threads) {
        cost::CostModel fresh;
        dse::HeraldOptions opts;
        opts.partition.peGranularity = 128;
        opts.partition.bwGranularity = 2.0;
        opts.partition.strategy = dse::SearchStrategy::Binary;
        opts.objective = dse::Objective::SlaViolations;
        opts.scheduler.policy = sched::Policy::Edf;
        opts.numThreads = threads;
        dse::Herald herald(fresh, opts);
        Workload wl = miniRealtime();
        return herald.explore(
            wl, accel::edgeClass(),
            {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    };
    dse::DseResult serial = run(1);
    dse::DseResult parallel = run(4);
    EXPECT_EQ(serial.bestIdx, parallel.bestIdx);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        const sched::ScheduleSummary &a = serial.points[i].summary;
        const sched::ScheduleSummary &b = parallel.points[i].summary;
        EXPECT_EQ(a.makespanCycles, b.makespanCycles) << i;
        EXPECT_EQ(a.sla.deadlineMisses, b.sla.deadlineMisses) << i;
        EXPECT_EQ(a.sla.p99LatencyCycles, b.sla.p99LatencyCycles)
            << i;
    }
}

} // namespace
