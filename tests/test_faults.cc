/**
 * @file
 * Fault-injection tests: FaultTimeline queries and invariants,
 * degraded-capacity cost views, degraded-mode scheduling (outage
 * deferral, in-flight kills and rescheduling, dead-sub-accelerator
 * demotion, graceful degradation when all capacity is lost), the
 * fault-aware-beats-fault-oblivious guarantee on the factory
 * scenario, fault-consistency validation and rendering, and a
 * seeded chaos sweep asserting every random timeline yields a valid,
 * internally consistent, bit-identical schedule across reruns and
 * prefill thread counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::FaultTimeline;
using sched::HeraldScheduler;
using sched::kNeverCycle;
using sched::Schedule;
using sched::SchedulerOptions;
using sched::SlaStats;
using workload::Workload;

class FaultTest : public ::testing::Test
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

    /** Makespan of the fault-free FIFO schedule (fault horizon). */
    double
    faultFreeMakespan(const Workload &wl, const Accelerator &acc)
    {
        HeraldScheduler s(model, SchedulerOptions{});
        return s.schedule(wl, acc).makespanCycles();
    }

    cost::CostModel model;
};

/** The (policy x drop x preemption) grid the benches sweep. */
struct GridConfig
{
    sched::Policy policy;
    sched::DropPolicy drop;
    sched::Preemption preemption;
};

const GridConfig kGrid[] = {
    {sched::Policy::Fifo, sched::DropPolicy::None,
     sched::Preemption::Off},
    {sched::Policy::Edf, sched::DropPolicy::None,
     sched::Preemption::Off},
    {sched::Policy::Lst, sched::DropPolicy::None,
     sched::Preemption::Off},
    {sched::Policy::Lst, sched::DropPolicy::HopelessFrames,
     sched::Preemption::Off},
    {sched::Policy::Lst, sched::DropPolicy::None,
     sched::Preemption::AtLayerBoundary},
    {sched::Policy::Lst, sched::DropPolicy::DoomedFrames,
     sched::Preemption::AtLayerBoundary},
};

// ---------------------------------------------------------------
// FaultTimeline: construction and queries
// ---------------------------------------------------------------

TEST_F(FaultTest, EmptyTimelinesAndArityChecks)
{
    EXPECT_TRUE(FaultTimeline{}.empty());
    FaultTimeline tl(2);
    EXPECT_TRUE(tl.empty());
    EXPECT_EQ(tl.numSubAccs(), 2u);
    tl.addOutage(0, 100.0, 50.0);
    EXPECT_FALSE(tl.empty());
    // Out-of-range sub-accelerator index.
    EXPECT_THROW(tl.addOutage(2, 0.0, 1.0), std::runtime_error);
    EXPECT_THROW(tl.addPermanentFailure(5, 10.0),
                 std::runtime_error);
    // Non-finite / negative event parameters.
    EXPECT_THROW(tl.addOutage(0, -1.0, 1.0), std::runtime_error);
    EXPECT_THROW(tl.addOutage(0, 0.0, kNeverCycle),
                 std::runtime_error);
    EXPECT_THROW(tl.addThrottle(0, 0.0, 10.0, 0.5),
                 std::runtime_error);
}

TEST_F(FaultTest, OutagesMergeAndDriveAvailability)
{
    FaultTimeline tl(1);
    tl.addOutage(0, 100.0, 50.0); // [100, 150)
    tl.addOutage(0, 140.0, 60.0); // overlaps -> union [100, 200)
    ASSERT_EQ(tl.outages(0).size(), 1u);
    EXPECT_DOUBLE_EQ(tl.outages(0)[0].beginCycle, 100.0);
    EXPECT_DOUBLE_EQ(tl.outages(0)[0].endCycle, 200.0);

    EXPECT_TRUE(tl.availableAt(0, 99.0));
    EXPECT_FALSE(tl.availableAt(0, 100.0)); // half-open begin
    EXPECT_FALSE(tl.availableAt(0, 199.0));
    EXPECT_TRUE(tl.availableAt(0, 200.0)); // half-open end

    EXPECT_DOUBLE_EQ(tl.nextAvailable(0, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(tl.nextAvailable(0, 130.0), 200.0);
    EXPECT_TRUE(tl.windowAvailable(0, 0.0, 100.0));
    EXPECT_FALSE(tl.windowAvailable(0, 90.0, 20.0));
    EXPECT_TRUE(tl.windowAvailable(0, 200.0, 1000.0));
}

TEST_F(FaultTest, PermanentFailureAndOnsets)
{
    FaultTimeline tl(2);
    tl.addOutage(0, 100.0, 50.0);
    tl.addPermanentFailure(0, 1000.0);
    EXPECT_DOUBLE_EQ(tl.permanentFailureCycle(0), 1000.0);
    EXPECT_EQ(tl.permanentFailureCycle(1), kNeverCycle);

    // Past the permanent failure there is no availability left.
    EXPECT_EQ(tl.nextAvailable(0, 1000.0), kNeverCycle);
    EXPECT_EQ(tl.nextAvailable(0, 5000.0), kNeverCycle);
    EXPECT_DOUBLE_EQ(tl.nextAvailable(0, 999.0), 999.0);

    // nextOnset is strictly-after: a layer starting exactly at an
    // onset is not killed by that same onset.
    EXPECT_DOUBLE_EQ(tl.nextOnset(0, 0.0), 100.0);
    EXPECT_DOUBLE_EQ(tl.nextOnset(0, 100.0), 1000.0);
    EXPECT_EQ(tl.nextOnset(1, 0.0), kNeverCycle);

    EXPECT_TRUE(tl.isFaultOnset(0, 100.0));
    EXPECT_TRUE(tl.isFaultOnset(0, 1000.0));
    EXPECT_FALSE(tl.isFaultOnset(0, 150.0));

    // A window running into the permanent failure is unavailable.
    EXPECT_FALSE(tl.windowAvailable(0, 900.0, 200.0));
    EXPECT_TRUE(tl.windowAvailable(0, 900.0, 100.0));
}

TEST_F(FaultTest, ThrottleQueriesAndStretch)
{
    FaultTimeline tl(1);
    tl.addThrottle(0, 100.0, 100.0, 2.0); // [100, 200) at 2x
    EXPECT_DOUBLE_EQ(tl.throttleFactorAt(0, 150.0), 2.0);
    EXPECT_DOUBLE_EQ(tl.throttleFactorAt(0, 200.0), 1.0);
    EXPECT_DOUBLE_EQ(tl.throttleFactorAt(0, 50.0), 1.0);

    // Overlapping throttles are ambiguous and rejected.
    EXPECT_THROW(tl.addThrottle(0, 150.0, 100.0, 3.0),
                 std::runtime_error);

    // Stretch: 50 cycles of overlap at (2 - 1) extra.
    EXPECT_DOUBLE_EQ(tl.throttleStretchCycles(0, 150.0, 100.0),
                     50.0);
    EXPECT_DOUBLE_EQ(tl.throttleStretchCycles(0, 300.0, 100.0), 0.0);

    // Throttles disturb but do not forbid a window.
    EXPECT_TRUE(tl.windowAvailable(0, 120.0, 50.0));
    EXPECT_FALSE(tl.windowUndisturbed(0, 120.0, 50.0));
    EXPECT_TRUE(tl.windowUndisturbed(0, 200.0, 50.0));
}

TEST_F(FaultTest, RandomTimelinesAreSeedDeterministic)
{
    const double horizon = 1e6;
    FaultTimeline a = FaultTimeline::random(42, 4, horizon);
    FaultTimeline b = FaultTimeline::random(42, 4, horizon);
    EXPECT_EQ(a.describe(), b.describe());

    // Structural sanity: events live in [0, horizon), outages are
    // sorted and disjoint, and at least one sub-accelerator never
    // permanently fails (random timelines never kill the whole
    // chip).
    std::size_t survivors = 0;
    for (std::size_t acc = 0; acc < a.numSubAccs(); ++acc) {
        double prev_end = -1.0;
        for (const sched::OutageWindow &w : a.outages(acc)) {
            EXPECT_GE(w.beginCycle, 0.0);
            EXPECT_LT(w.beginCycle, w.endCycle);
            EXPECT_LE(w.endCycle, horizon);
            EXPECT_GT(w.beginCycle, prev_end);
            prev_end = w.endCycle;
        }
        for (const sched::ThrottleWindow &w : a.throttles(acc))
            EXPECT_GT(w.factor, 1.0);
        if (a.permanentFailureCycle(acc) == kNeverCycle)
            ++survivors;
    }
    EXPECT_GE(survivors, 1u);

    EXPECT_THROW(FaultTimeline::random(1, 0, horizon),
                 std::runtime_error);
    EXPECT_THROW(FaultTimeline::random(1, 2, kNeverCycle),
                 std::runtime_error);
}

TEST_F(FaultTest, RandomTimelinesArePinned)
{
    // Captured from the original generator: seeds must keep producing
    // the same timelines whatever PRNG implementation backs random().
    EXPECT_EQ(FaultTimeline::random(42, 4, 1e6).describe(),
              "acc0: outage [292562, 317506)\n"
              "acc0: permanent failure at 780379\n"
              "acc1: outage [174167, 258255)\n"
              "acc2: outage [172920, 206384)\n"
              "acc2: throttle x1.68263 [482262, 626715)\n"
              "acc2: throttle x1.6854 [783447, 884023)\n"
              "acc3: outage [671422, 910881)\n");
    EXPECT_EQ(FaultTimeline::random(7, 4, 1e6).describe(),
              "acc0: outage [495491, 574308)\n"
              "acc0: throttle x2.53285 [229654, 267107)\n"
              "acc0: permanent failure at 875924\n"
              "acc2: outage [277407, 377893)\n"
              "acc2: outage [643724, 751417)\n"
              "acc2: throttle x3.90082 [296641, 433971)\n"
              "acc2: throttle x3.75461 [464354, 537269)\n"
              "acc3: throttle x3.01693 [197812, 290284)\n");
}

TEST_F(FaultTest, FactoryFaultTimelineShape)
{
    EXPECT_TRUE(sched::factoryFaultTimeline(2, 0, 1e6).empty());
    FaultTimeline tl = sched::factoryFaultTimeline(2, 2, 1e6);
    EXPECT_DOUBLE_EQ(tl.permanentFailureCycle(0), 0.3e6);
    EXPECT_DOUBLE_EQ(tl.permanentFailureCycle(1), 0.55e6);
    EXPECT_THROW(sched::factoryFaultTimeline(2, 3, 1e6),
                 std::runtime_error);
    EXPECT_THROW(sched::factoryFaultTimeline(2, -1, 1e6),
                 std::runtime_error);
}

// ---------------------------------------------------------------
// Degraded-capacity cost views
// ---------------------------------------------------------------

TEST_F(FaultTest, DegradedViewMasksDeadColumns)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, sched::Metric::Edp, accel::RdaOverheads{});

    // The identity view equals the pristine table.
    sched::LayerCostTable::DegradedView view(table);
    for (std::size_t row = 0; row < table.numUniqueLayers(); ++row)
        EXPECT_DOUBLE_EQ(view.minCycles(row), table.minCycles(row));
    EXPECT_DOUBLE_EQ(view.remainingCycles(0, 0),
                     table.remainingCycles(0, 0));

    // Masking a column can only raise the per-row minimum, and the
    // degraded minimum must equal the surviving column's cycles.
    view.rebuild({1, 0});
    for (std::size_t row = 0; row < table.numUniqueLayers(); ++row) {
        EXPECT_GE(view.minCycles(row), table.minCycles(row));
        EXPECT_DOUBLE_EQ(view.minCycles(row),
                         table.cost(row, 1).cost.cycles);
    }
    EXPECT_GE(view.remainingCycles(0, 0),
              table.remainingCycles(0, 0));

    // All columns dead: no continuation exists.
    view.rebuild({1, 1});
    EXPECT_EQ(view.minCycles(0), kNeverCycle);
    EXPECT_EQ(view.remainingCycles(0, 0), kNeverCycle);
    // The empty suffix is still 0 by convention.
    EXPECT_DOUBLE_EQ(
        view.remainingCycles(0, wl.specs()[0].model.numLayers()),
        0.0);
}

// ---------------------------------------------------------------
// Degraded-mode scheduling
// ---------------------------------------------------------------

TEST_F(FaultTest, EmptyTimelineIsBitIdenticalAcrossGrid)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    for (const GridConfig &g : kGrid) {
        SchedulerOptions base;
        base.policy = g.policy;
        base.dropPolicy = g.drop;
        base.preemption = g.preemption;
        Schedule reference =
            HeraldScheduler(model, base).schedule(wl, acc);

        SchedulerOptions with_empty = base;
        with_empty.faults = FaultTimeline(acc.numSubAccs());
        Schedule faulted =
            HeraldScheduler(model, with_empty).schedule(wl, acc);
        EXPECT_TRUE(faulted.identicalTo(reference));
    }
}

TEST_F(FaultTest, TimelineArityMustMatchAccelerator)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda(); // 2 sub-accelerators
    SchedulerOptions opts;
    opts.faults = FaultTimeline(3);
    opts.faults.addOutage(0, 0.0, 1.0);
    HeraldScheduler s(model, opts);
    EXPECT_THROW(s.schedule(wl, acc), std::runtime_error);
}

TEST_F(FaultTest, LayersNeverStartInsideAnOutage)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);

    FaultTimeline tl(2);
    tl.addOutage(0, 0.2 * horizon, 0.2 * horizon);
    tl.addOutage(1, 0.5 * horizon, 0.1 * horizon);

    SchedulerOptions opts;
    opts.faults = tl;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc, &tl), "");
    for (const sched::ScheduledLayer &e : s.entries()) {
        EXPECT_TRUE(tl.availableAt(e.accIdx, e.startCycle));
        if (!e.faultKilled) {
            EXPECT_TRUE(tl.windowAvailable(e.accIdx, e.startCycle,
                                           e.duration()));
        }
    }
}

TEST_F(FaultTest, InFlightLayersAreKilledAndRescheduled)
{
    Workload wl = workload::faultedFactory(6);
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);
    FaultTimeline tl =
        sched::factoryFaultTimeline(acc.numSubAccs(), 1, horizon);

    SchedulerOptions opts;
    opts.faults = tl;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc, &tl), "");

    SlaStats sla = s.computeSla(wl);
    EXPECT_GE(sla.faultKilledLayers, 1u);
    EXPECT_GE(sla.framesRescheduled, 1u);

    std::size_t killed = 0;
    for (std::size_t i = 0; i < s.entries().size(); ++i) {
        const sched::ScheduledLayer &e = s.entries()[i];
        if (!e.faultKilled)
            continue;
        ++killed;
        // A killed layer ends exactly at a fault onset and a later
        // entry re-executes the same (instance, layer) — unless the
        // frame was dropped after the kill.
        EXPECT_TRUE(tl.isFaultOnset(e.accIdx, e.endCycle));
        bool reexecuted = false;
        for (std::size_t j = i + 1; j < s.entries().size(); ++j) {
            const sched::ScheduledLayer &r = s.entries()[j];
            if (r.instanceIdx == e.instanceIdx &&
                r.layerIdx == e.layerIdx && !r.faultKilled) {
                reexecuted = true;
                EXPECT_GE(r.startCycle, e.endCycle);
                EXPECT_NE(r.accIdx, e.accIdx);
            }
        }
        EXPECT_TRUE(reexecuted || s.isDropped(e.instanceIdx));
    }
    EXPECT_EQ(killed, sla.faultKilledLayers);
}

TEST_F(FaultTest, DeadAtZeroSubAcceleratorIsNeverUsed)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    FaultTimeline tl(2);
    tl.addPermanentFailure(0, 0.0);

    SchedulerOptions opts;
    opts.faults = tl;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc, &tl), "");
    ASSERT_FALSE(s.entries().empty());
    for (const sched::ScheduledLayer &e : s.entries())
        EXPECT_EQ(e.accIdx, 1u);

    // Every frame still completes: capacity halved, nothing lost.
    SlaStats sla = s.computeSla(wl);
    EXPECT_EQ(sla.droppedFrames, 0u);
    for (const sched::InstanceSla &inst : sla.perInstance)
        EXPECT_TRUE(inst.scheduled);
}

TEST_F(FaultTest, AllCapacityLostDegradesGracefully)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    FaultTimeline tl(2);
    tl.addPermanentFailure(0, 0.0);
    tl.addPermanentFailure(1, 0.0);

    // Under ANY drop policy — including None — losing every
    // sub-accelerator must terminate with all frames shed, not hang
    // or crash.
    for (const GridConfig &g : kGrid) {
        SchedulerOptions opts;
        opts.policy = g.policy;
        opts.dropPolicy = g.drop;
        opts.preemption = g.preemption;
        opts.faults = tl;
        Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        EXPECT_EQ(s.validate(wl, acc, &tl), "");
        EXPECT_TRUE(s.entries().empty());
        EXPECT_EQ(s.droppedInstances().size(), wl.numInstances());

        SlaStats sla = s.computeSla(wl);
        EXPECT_EQ(sla.deadlineMisses, sla.framesWithDeadline);
        EXPECT_TRUE(std::isinf(sla.p99LatencyCycles));
    }
}

TEST_F(FaultTest, FaultAwareStrictlyBeatsFaultOblivious)
{
    Workload wl = workload::faultedFactory(6);
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);

    for (sched::Policy policy :
         {sched::Policy::Fifo, sched::Policy::Lst}) {
        std::size_t prev_misses = 0;
        for (int failed = 0; failed <= 2; ++failed) {
            FaultTimeline tl = sched::factoryFaultTimeline(
                acc.numSubAccs(), failed, horizon);

            SchedulerOptions opts;
            opts.policy = policy;
            opts.faults = tl;
            Schedule aware =
                HeraldScheduler(model, opts).schedule(wl, acc);
            EXPECT_EQ(aware.validate(wl, acc, &tl), "");
            SlaStats sla = aware.computeSla(wl);

            opts.faults = FaultTimeline{};
            Schedule blind =
                HeraldScheduler(model, opts).schedule(wl, acc);
            SlaStats oblivious =
                sched::faultObliviousSla(blind, wl, tl);

            // Graceful degradation is monotone in lost capacity and
            // strictly better than shipping the blind schedule.
            EXPECT_GE(sla.deadlineMisses, prev_misses);
            if (failed > 0) {
                EXPECT_LT(sla.deadlineMisses,
                          oblivious.deadlineMisses);
            }
            EXPECT_EQ(oblivious.framesRescheduled, 0u);
            prev_misses = sla.deadlineMisses;
        }
    }
}

TEST_F(FaultTest, ThrottleWindowsStretchExecutions)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);

    FaultTimeline tl(2);
    tl.addThrottle(0, 0.0, 2.0 * horizon, 3.0);
    tl.addThrottle(1, 0.0, 2.0 * horizon, 3.0);

    SchedulerOptions opts;
    opts.faults = tl;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(s.validate(wl, acc, &tl), "");

    // Every layer starts inside the throttle window, so every entry
    // runs exactly 3x its pristine cost. (The makespan grows much
    // less: the workload is arrival-dominated, and throttling does
    // not stretch the idle gaps between arrivals.)
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, sched::Metric::Edp, accel::RdaOverheads{});
    ASSERT_FALSE(s.entries().empty());
    for (const sched::ScheduledLayer &e : s.entries()) {
        const std::size_t uid =
            wl.instances()[e.instanceIdx].specIdx;
        const std::size_t row = table.rowOf(uid, e.layerIdx);
        EXPECT_DOUBLE_EQ(e.duration(),
                         table.cost(row, e.accIdx).cost.cycles *
                             3.0);
    }
    EXPECT_GT(s.makespanCycles(), horizon);
}

// ---------------------------------------------------------------
// Validation and rendering
// ---------------------------------------------------------------

TEST_F(FaultTest, ValidateCatchesFaultViolations)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    Schedule s = HeraldScheduler(model, SchedulerOptions{})
                     .schedule(wl, acc);
    ASSERT_EQ(s.validate(wl, acc), "");

    // The fault-free schedule cannot be valid against a timeline
    // that blacks out a window it uses.
    const sched::ScheduledLayer &first = s.entries().front();
    FaultTimeline tl(2);
    tl.addOutage(first.accIdx, first.startCycle,
                 std::max(first.duration(), 1.0));
    EXPECT_NE(s.validate(wl, acc, &tl), "");

    // A fault-killed entry without a timeline is itself a violation.
    Schedule copy = s;
    copy.mutableEntries().front().faultKilled = true;
    EXPECT_NE(copy.validate(wl, acc), "");
}

TEST_F(FaultTest, RenderTimelineShowsOutagesAndEmptySchedules)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);

    FaultTimeline tl(2);
    tl.addOutage(0, 0.25 * horizon, 0.5 * horizon);
    SchedulerOptions opts;
    opts.faults = tl;
    Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
    std::string art = s.renderTimeline(wl, &tl, 60);
    EXPECT_NE(art.find('x'), std::string::npos);

    // An empty (all-dropped) schedule renders a note, not a
    // divide-by-zero.
    Schedule empty(2);
    empty.markDropped(0);
    std::string note = empty.renderTimeline(wl, 60);
    EXPECT_FALSE(note.empty());
    EXPECT_NE(note.find("empty"), std::string::npos);
}

// ---------------------------------------------------------------
// Chaos sweep
// ---------------------------------------------------------------

TEST_F(FaultTest, ChaosSweepIsValidConsistentAndDeterministic)
{
    Workload wl = miniRealtime();
    Accelerator acc = miniHda();
    const double horizon = faultFreeMakespan(wl, acc);

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        FaultTimeline tl = FaultTimeline::random(
            seed, acc.numSubAccs(), 1.2 * horizon);
        for (const GridConfig &g : kGrid) {
            SchedulerOptions opts;
            opts.policy = g.policy;
            opts.dropPolicy = g.drop;
            opts.preemption = g.preemption;
            opts.faults = tl;
            opts.prefillThreads = 1;
            Schedule s =
                HeraldScheduler(model, opts).schedule(wl, acc);

            // Every random timeline must yield a valid schedule.
            EXPECT_EQ(s.validate(wl, acc, &tl), "")
                << "seed " << seed;

            // SLA self-consistency.
            SlaStats sla = s.computeSla(wl);
            EXPECT_EQ(sla.frames, wl.numInstances());
            EXPECT_EQ(sla.perInstance.size(), wl.numInstances());
            EXPECT_LE(sla.droppedFrames, sla.deadlineMisses);
            EXPECT_LE(sla.deadlineMisses, sla.framesWithDeadline);
            if (sla.framesWithDeadline > 0) {
                EXPECT_DOUBLE_EQ(
                    sla.missRate,
                    static_cast<double>(sla.deadlineMisses) /
                        static_cast<double>(sla.framesWithDeadline));
            }
            std::size_t killed = 0, dropped = 0;
            for (const sched::ScheduledLayer &e : s.entries())
                killed += e.faultKilled ? 1 : 0;
            for (const sched::InstanceSla &inst : sla.perInstance)
                dropped += inst.dropped ? 1 : 0;
            EXPECT_EQ(killed, sla.faultKilledLayers);
            EXPECT_EQ(dropped, sla.droppedFrames);

            // Bit-identical across reruns and prefill thread
            // counts.
            opts.prefillThreads = 4;
            Schedule rerun =
                HeraldScheduler(model, opts).schedule(wl, acc);
            EXPECT_TRUE(rerun.identicalTo(s)) << "seed " << seed;
        }
    }
}

// ---------------------------------------------------------------
// faultObliviousSla boundary semantics
// ---------------------------------------------------------------

TEST_F(FaultTest, ObliviousSlaFrameFinishingExactlyAtOutageStart)
{
    // One single-layer frame per instance, hand-placed entries.
    dnn::Model m("One");
    m.addLayer(dnn::makeFullyConnected("f", 16, 16));
    Workload wl("boundary");
    wl.addModel(m, 1, 0.0, 100.0);   // deadline at cycle 100
    wl.addModel(m, 1, 0.0, 200.0);   // deadline at cycle 200

    FaultTimeline tl(1);
    tl.addOutage(0, 100.0, 50.0); // [100, 150)

    Schedule s(1);
    sched::ScheduledLayer a;
    a.instanceIdx = 0;
    a.endCycle = 100.0; // ends exactly at the window start
    s.add(a);
    sched::ScheduledLayer b;
    b.instanceIdx = 1;
    b.startCycle = 100.0;
    b.endCycle = 101.0; // starts exactly at the window start
    s.add(b);

    const SlaStats sla = sched::faultObliviousSla(s, wl, tl);
    // Abutting the window from the left is not an overlap: the
    // frame completes on time and is not killed.
    EXPECT_EQ(sla.faultKilledLayers, 1u);
    EXPECT_FALSE(sla.perInstance[0].missed);
    EXPECT_TRUE(sla.perInstance[0].scheduled);
    // Starting *inside* the window kills the frame outright.
    EXPECT_FALSE(sla.perInstance[1].scheduled);
    EXPECT_TRUE(sla.perInstance[1].missed);
    EXPECT_EQ(sla.deadlineMisses, 1u);
}

TEST_F(FaultTest, ObliviousSlaThrottleAbuttingOutageBoundary)
{
    dnn::Model m("One");
    m.addLayer(dnn::makeFullyConnected("f", 16, 16));
    Workload wl("abut");
    wl.addModel(m, 1, 0.0, 160.0); // loose: survives the stretch
    wl.addModel(m, 1, 0.0, 140.0); // tight: the stretch misses it

    // Throttle [50, 100) x2 abutting an outage [100, 200): the
    // boundary cycle belongs to the outage, not the throttle.
    FaultTimeline tl(1);
    tl.addThrottle(0, 50.0, 100.0, 2.0);
    tl.addOutage(0, 100.0, 100.0);

    Schedule s(1);
    for (std::size_t inst : {std::size_t{0}, std::size_t{1}}) {
        sched::ScheduledLayer e;
        e.instanceIdx = inst;
        e.endCycle = 100.0;
        s.add(e);
    }

    const SlaStats sla = sched::faultObliviousSla(s, wl, tl);
    // Neither layer touches the outage (it begins exactly at their
    // end), so neither is killed; both pay the 50-cycle throttle
    // stretch (overlap 50 x (factor - 1)) and complete at 150.
    EXPECT_EQ(sla.faultKilledLayers, 0u);
    EXPECT_DOUBLE_EQ(sla.perInstance[0].completionCycle, 150.0);
    EXPECT_DOUBLE_EQ(sla.perInstance[1].completionCycle, 150.0);
    EXPECT_FALSE(sla.perInstance[0].missed);
    EXPECT_TRUE(sla.perInstance[1].missed);
    EXPECT_EQ(sla.deadlineMisses, 1u);
}

TEST_F(FaultTest, ObliviousSlaThrottleStartingExactlyAtLayerEnd)
{
    dnn::Model m("One");
    m.addLayer(dnn::makeFullyConnected("f", 16, 16));
    Workload wl("edge");
    wl.addModel(m, 1, 0.0, 100.0);

    // Throttle starting exactly where the layer ends: zero overlap,
    // zero stretch — the frame completes exactly at its deadline.
    FaultTimeline tl(1);
    tl.addThrottle(0, 100.0, 300.0, 4.0);

    Schedule s(1);
    sched::ScheduledLayer e;
    e.instanceIdx = 0;
    e.endCycle = 100.0;
    s.add(e);

    const SlaStats sla = sched::faultObliviousSla(s, wl, tl);
    EXPECT_DOUBLE_EQ(sla.perInstance[0].completionCycle, 100.0);
    EXPECT_FALSE(sla.perInstance[0].missed);
    EXPECT_EQ(sla.deadlineMisses, 0u);
}

TEST_F(FaultTest, ObliviousSlaWithoutFaultsEqualsComputeSla)
{
    // With nothing to overlay, the oblivious accountant must read
    // the schedule exactly like computeSla, field for field.
    SchedulerOptions doom;
    doom.policy = sched::Policy::Lst;
    doom.dropPolicy = sched::DropPolicy::DoomedFrames;
    const Accelerator acc = miniHda();
    const std::pair<Workload, SchedulerOptions> cases[] = {
        {workload::arvrAOverloaded(8), doom}, // drops, partial prefixes
        {workload::arvrA(), SchedulerOptions{}}, // no deadlines
    };
    for (const auto &[wl, opts] : cases) {
        SCOPED_TRACE(wl.name());
        const Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        const SlaStats want = s.computeSla(wl);
        const SlaStats got = sched::faultObliviousSla(
            s, wl, FaultTimeline(acc.numSubAccs()));
        EXPECT_EQ(got.frames, want.frames);
        EXPECT_EQ(got.framesWithDeadline, want.framesWithDeadline);
        EXPECT_EQ(got.deadlineMisses, want.deadlineMisses);
        EXPECT_EQ(got.droppedFrames, want.droppedFrames);
        EXPECT_EQ(got.missRate, want.missRate);
        EXPECT_EQ(got.p50LatencyCycles, want.p50LatencyCycles);
        EXPECT_EQ(got.p99LatencyCycles, want.p99LatencyCycles);
        EXPECT_EQ(got.maxLatencyCycles, want.maxLatencyCycles);
        EXPECT_EQ(got.faultKilledLayers, want.faultKilledLayers);
        EXPECT_EQ(got.framesRescheduled, want.framesRescheduled);
        ASSERT_EQ(got.perInstance.size(), want.perInstance.size());
        for (std::size_t i = 0; i < want.perInstance.size(); ++i) {
            const sched::InstanceSla &g = got.perInstance[i];
            const sched::InstanceSla &w = want.perInstance[i];
            EXPECT_EQ(g.instanceIdx, w.instanceIdx);
            EXPECT_EQ(g.arrivalCycle, w.arrivalCycle);
            EXPECT_EQ(g.completionCycle, w.completionCycle);
            EXPECT_EQ(g.latencyCycles, w.latencyCycles);
            EXPECT_EQ(g.deadlineCycle, w.deadlineCycle);
            EXPECT_EQ(g.scheduled, w.scheduled);
            EXPECT_EQ(g.missed, w.missed);
            EXPECT_EQ(g.dropped, w.dropped);
        }
        // Each case exercises what it is there for: dropped frames
        // with a committed prefix, or no deadline at all.
        if (opts.dropPolicy == sched::DropPolicy::DoomedFrames) {
            EXPECT_GT(want.droppedFrames, 0u);
            bool prefix = false;
            for (const sched::ScheduledLayer &e : s.entries())
                prefix = prefix || s.isDropped(e.instanceIdx);
            EXPECT_TRUE(prefix);
        } else {
            EXPECT_EQ(want.framesWithDeadline, 0u);
        }
    }
}

} // namespace
