/**
 * @file
 * The schedule checkers made to fire. Each test takes a valid
 * schedule from a scenario (a fault kill with dropped frames, elastic
 * reconfiguration with context penalties, or a binding 24 KiB buffer
 * with a mid-run permanent failure), corrupts one thing so that one
 * invariant breaks, and asserts the exact message of
 * Schedule::validate(), checkContextPenalties() or the EntryChecker
 * the online watchdog runs. Schedule::identicalTo() is made to return
 * false on each thing it compares, and the binding scenario pins
 * planLayer's demotion to a later candidate when the buffer pushes a
 * start past a permanent failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/arrival_source.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::ArrivalSource;
using sched::EntryChecker;
using sched::FaultTimeline;
using sched::HeraldScheduler;
using sched::kEps;
using sched::ReconfigEvent;
using sched::Schedule;
using sched::ScheduledLayer;
using sched::SchedulerOptions;
using util::concat;
using workload::Workload;

using Entries = std::vector<ScheduledLayer>;

/** A valid schedule and everything it was built from. */
struct Scenario
{
    Workload wl;
    Accelerator acc;
    FaultTimeline faults; //!< empty when fault-free
    Schedule s;

    const FaultTimeline *
    timeline() const
    {
        return faults.empty() ? nullptr : &faults;
    }

    std::string validate() const { return s.validate(wl, acc, timeline()); }

    double
    arrivalOf(const ScheduledLayer &e) const
    {
        return wl.instances()[e.instanceIdx].arrivalCycle;
    }
};

/** Index of the last entry satisfying @p pred, or SIZE_MAX. */
std::size_t
lastWhere(const Entries &es,
          const std::function<bool(const ScheduledLayer &)> &pred)
{
    std::size_t found = SIZE_MAX;
    for (std::size_t i = 0; i < es.size(); ++i) {
        if (pred(es[i]))
            found = i;
    }
    return found;
}

/**
 * Index of the earliest-starting entry on @p acc that starts at or
 * after @p from, other than @p skip; SIZE_MAX if none.
 */
std::size_t
earliestOn(const Entries &es, std::size_t acc, double from,
           std::size_t skip = SIZE_MAX)
{
    std::size_t found = SIZE_MAX;
    for (std::size_t j = 0; j < es.size(); ++j) {
        if (j == skip || es[j].accIdx != acc || es[j].startCycle < from)
            continue;
        if (found == SIZE_MAX || es[j].startCycle < es[found].startCycle)
            found = j;
    }
    return found;
}

/** Index of the next entry on @p i's sub-accelerator by start. */
std::size_t
nextOnAcc(const Entries &es, std::size_t i)
{
    return earliestOn(es, es[i].accIdx, es[i].startCycle, i);
}

/** Index of the non-killed entry of (@p inst, @p layer), or SIZE_MAX. */
std::size_t
executionOf(const Entries &es, std::size_t inst, std::size_t layer)
{
    return lastWhere(es, [&](const ScheduledLayer &e) {
        return !e.faultKilled && e.instanceIdx == inst &&
               e.layerIdx == layer;
    });
}

/**
 * Feed @p es to a fresh EntryChecker in list order, as the online
 * watchdog feeds it retiring entries; the first violation or "".
 */
std::string
watchdogFeed(const Scenario &sc, const Entries &es)
{
    EntryChecker checker(sc.s.numSubAccs(), sc.timeline());
    for (const ScheduledLayer &e : es) {
        std::string bad = checker.check(e, sc.arrivalOf(e));
        if (!bad.empty())
            return bad;
    }
    return "";
}

class InvariantTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    static Accelerator
    edgeHda(std::uint64_t buffer_bytes)
    {
        accel::AcceleratorClass chip = accel::edgeClass();
        chip.globalBufferBytes = buffer_bytes;
        return Accelerator::makeHda(
            chip, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
            {512, 512}, {8.0, 8.0});
    }

    static Accelerator
    miniHda()
    {
        return edgeHda(accel::edgeClass().globalBufferBytes);
    }

    static dnn::Model
    convNet()
    {
        dnn::Model m("ConvNet");
        m.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
        m.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
        m.addLayer(dnn::makeFullyConnected("fc", 10, 128));
        return m;
    }

    static dnn::Model
    fcNet()
    {
        dnn::Model m("FcNet");
        m.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
        m.addLayer(dnn::makeFullyConnected("f2", 256, 1024));
        return m;
    }

    Scenario
    run(Workload wl, Accelerator acc, SchedulerOptions opts)
    {
        // Without post-processing the entry list is commit order:
        // each sub-accelerator's entries in time order, as the
        // watchdog sees them retire.
        opts.postProcess = false;
        Schedule s = HeraldScheduler(model, opts).schedule(wl, acc);
        return {std::move(wl), std::move(acc), opts.faults, std::move(s)};
    }

    /**
     * A backlogged two-stream load on a 2-way HDA with an outage on
     * sub-accelerator 0 ([2e6, 3e6)) and a permanent failure of
     * sub-accelerator 1 at 1.6e7: a fault kill, frames dropped at
     * admission and frames dropped mid-run with a committed prefix.
     */
    Scenario
    faulted()
    {
        ArrivalSource src;
        src.addStream(convNet(), 5e4, 1.2e6, 0.0, 12);
        src.addStream(fcNet(), 7e4, 1e6, 1e4, 10);
        SchedulerOptions opts;
        opts.policy = sched::Policy::Lst;
        opts.dropPolicy = sched::DropPolicy::DoomedFrames;
        opts.preemption = sched::Preemption::AtLayerBoundary;
        opts.faults = FaultTimeline(2);
        opts.faults.addOutage(0, 2e6, 1e6);
        opts.faults.addThrottle(1, 1e6, 4e6, 2.0);
        opts.faults.addPermanentFailure(1, 1.6e7);
        return run(src.materialize("backlogged"), miniHda(), opts);
    }

    /** Skewed load that migrates PEs twice, with context penalties. */
    Scenario
    elastic()
    {
        ArrivalSource src;
        src.addStream(convNet(), 5e5, 4e6, 0.0, 10);
        src.addStream(fcNet(), 8e6, 9e6, 2e6, 3);
        SchedulerOptions opts;
        opts.contextChangeCycles = kContextCycles;
        opts.reconfig.policy = sched::Reconfig::BacklogSkew;
        opts.reconfig.skewThresholdCycles = 1e6;
        opts.reconfig.migrationQuantumPes = 64;
        opts.reconfig.drainCycles = 1e4;
        opts.reconfig.perPeRewireCycles = 10.0;
        opts.reconfig.cooldownCycles = 1e5;
        return run(src.materialize("skewed"), miniHda(), opts);
    }

    /** Options of the binding scenario (see binding()). */
    static SchedulerOptions
    bindingOptions()
    {
        SchedulerOptions opts;
        opts.loadBalance = false; // the first usable candidate wins
        opts.postProcess = false;
        opts.faults = FaultTimeline(2);
        opts.faults.addPermanentFailure(0, kBindingFailure);
        return opts;
    }

    /**
     * AR/VR-A on the 2-way edge HDA with a 24 KiB global buffer,
     * sub-accelerator 0 failing for good mid-run.
     */
    Scenario
    binding()
    {
        return run(workload::arvrA(), edgeHda(24u << 10),
                   bindingOptions());
    }

    static constexpr double kContextCycles = 5000.0;
    static constexpr double kBindingFailure = 3.5e9;

    cost::CostModel model;
};

// ---------------------------------------------------------------
// The scenarios are valid and reach what they are named for
// ---------------------------------------------------------------

TEST_F(InvariantTest, ScenariosAreValidAndReachTheirStates)
{
    const Scenario f = faulted();
    EXPECT_EQ(f.validate(), "");
    const Entries &fe = f.s.entries();
    EXPECT_TRUE(std::any_of(fe.begin(), fe.end(),
                            [](const ScheduledLayer &e) {
                                return e.faultKilled && e.layerIdx > 0;
                            }));
    EXPECT_TRUE(std::any_of(fe.begin(), fe.end(),
                            [&](const ScheduledLayer &e) {
                                return f.s.isDropped(e.instanceIdx);
                            }));

    const Scenario el = elastic();
    EXPECT_EQ(el.validate(), "");
    EXPECT_EQ(checkContextPenalties(el.s, kContextCycles), "");
    EXPECT_GE(el.s.reconfigEvents().size(), 1u);
    const Entries &ee = el.s.entries();
    EXPECT_TRUE(std::any_of(ee.begin(), ee.end(),
                            [](const ScheduledLayer &e) {
                                return e.contextPenaltyCycles > 0.0;
                            }));

    // The 24 KiB buffer binds: at the chip's own buffer the same run
    // places layers differently.
    const Scenario b = binding();
    EXPECT_EQ(b.validate(), "");
    const Schedule roomy =
        HeraldScheduler(model, bindingOptions())
            .schedule(b.wl, edgeHda(accel::edgeClass().globalBufferBytes));
    EXPECT_FALSE(b.s.identicalTo(roomy));

    // Fed in list order, as the watchdog feeds retiring entries, the
    // checker finds nothing either.
    for (const Scenario *sc : {&f, &el, &b})
        EXPECT_EQ(watchdogFeed(*sc, sc->s.entries()), "");
}

// ---------------------------------------------------------------
// Schedule::validate(): arity, ranges, completeness
// ---------------------------------------------------------------

TEST_F(InvariantTest, ValidateRejectsArityMismatches)
{
    const Scenario f = faulted();
    const Accelerator three = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {256, 512, 256}, {4.0, 8.0, 4.0});
    EXPECT_EQ(f.s.validate(f.wl, three, &f.faults),
              "schedule built for 2 sub-accelerators, accelerator has 3");
    const FaultTimeline wide(3);
    EXPECT_EQ(f.s.validate(f.wl, f.acc, &wide),
              "fault timeline built for 3 sub-accelerators, schedule "
              "has 2");
}

TEST_F(InvariantTest, ValidateRejectsOutOfRangeReferences)
{
    const std::size_t n = elastic().wl.numInstances();
    {
        Scenario sc = elastic();
        sc.s.markDropped(n);
        EXPECT_EQ(sc.validate(), concat("dropped instance ", n,
                                        " out of range"));
    }
    {
        Scenario sc = elastic();
        sc.s.mutableEntries()[3].instanceIdx = n;
        EXPECT_EQ(sc.validate(), concat("entry references instance ", n,
                                        " out of range"));
    }
    {
        Scenario sc = elastic();
        ScheduledLayer &e = sc.s.mutableEntries()[3];
        const dnn::Model &m = sc.wl.modelOf(e.instanceIdx);
        e.layerIdx = m.numLayers();
        EXPECT_EQ(sc.validate(),
                  concat("entry references layer ", m.numLayers(),
                         " out of range for ", m.name()));
    }
}

TEST_F(InvariantTest, ValidateRejectsAKillWithoutATimeline)
{
    Scenario sc = elastic();
    ScheduledLayer &e = sc.s.mutableEntries()[2];
    e.faultKilled = true;
    EXPECT_EQ(sc.validate(),
              concat("fault-killed entry (instance ", e.instanceIdx,
                     " layer ", e.layerIdx,
                     ") without a fault timeline"));
}

TEST_F(InvariantTest, ValidateRejectsDuplicatesAndMissingLayers)
{
    {
        Scenario sc = elastic();
        const ScheduledLayer e = sc.s.entries()[5];
        sc.s.add(e);
        EXPECT_EQ(sc.validate(),
                  concat("duplicate entry for instance ", e.instanceIdx,
                         " layer ", e.layerIdx));
    }
    {
        Scenario sc = elastic();
        const ScheduledLayer e = sc.s.entries().back();
        sc.s.mutableEntries().pop_back();
        const std::size_t layers = sc.wl.modelOf(e.instanceIdx).numLayers();
        EXPECT_EQ(sc.validate(),
                  concat("instance ", e.instanceIdx, " has ", layers - 1,
                         " scheduled layers, model has ", layers));
    }
}

TEST_F(InvariantTest, ValidateRejectsBadDroppedFrames)
{
    {
        // A complete frame marked dropped.
        Scenario sc = elastic();
        sc.s.markDropped(4);
        EXPECT_EQ(sc.validate(), "dropped instance 4 is fully scheduled");
    }
    {
        // A dropped frame's committed layer 0 relabelled layer 1: its
        // one layer is no longer a chain prefix.
        Scenario sc = faulted();
        Entries &es = sc.s.mutableEntries();
        const std::size_t i = lastWhere(es, [&](const ScheduledLayer &e) {
            return !e.faultKilled && e.layerIdx == 0 &&
                   sc.s.isDropped(e.instanceIdx) &&
                   executionOf(es, e.instanceIdx, 1) == SIZE_MAX;
        });
        ASSERT_NE(i, SIZE_MAX);
        es[i].layerIdx = 1;
        EXPECT_EQ(sc.validate(),
                  concat("dropped instance ", es[i].instanceIdx,
                         " scheduled 1 layers that are not a chain "
                         "prefix"));
    }
}

// ---------------------------------------------------------------
// Schedule::validate(): the EntryChecker rules
// ---------------------------------------------------------------

TEST_F(InvariantTest, ValidateRejectsAStartBeforeArrival)
{
    Scenario sc = elastic();
    Entries &es = sc.s.mutableEntries();
    const std::size_t i = lastWhere(es, [&](const ScheduledLayer &e) {
        return sc.arrivalOf(e) > 1.0;
    });
    ASSERT_NE(i, SIZE_MAX);
    const double arrival = sc.arrivalOf(es[i]);
    es[i].startCycle = arrival - 1.0;
    const std::string expect =
        concat("arrival violation: instance ", es[i].instanceIdx,
               " layer ", es[i].layerIdx, " starts ", arrival - 1.0,
               " before arrival ", arrival);
    EXPECT_EQ(sc.validate(), expect);
    EXPECT_EQ(watchdogFeed(sc, es), expect);
}

TEST_F(InvariantTest, ValidateRejectsOverlapOnASubAccelerator)
{
    // Stretch an entry on the never-failing sub-accelerator 1 into
    // its successor there.
    Scenario sc = binding();
    Entries &es = sc.s.mutableEntries();
    std::size_t i = 0;
    while (i < es.size() &&
           (es[i].accIdx != 1 || nextOnAcc(es, i) == SIZE_MAX))
        ++i;
    ASSERT_LT(i, es.size());
    const std::size_t next = nextOnAcc(es, i);
    es[i].endCycle = es[next].startCycle + 1.0;
    const std::string expect = concat("overlap on sub-accelerator 1 at "
                                      "cycle ",
                                      es[next].startCycle);
    EXPECT_EQ(sc.validate(), expect);
    EXPECT_EQ(watchdogFeed(sc, es), expect);
}

TEST_F(InvariantTest, ValidateRejectsAnEntryInsideAnOutage)
{
    // Start the first entry after sub-accelerator 0's outage
    // [2e6, 3e6) inside it; what ran before it there ended by 2e6.
    Scenario sc = faulted();
    Entries &es = sc.s.mutableEntries();
    const std::size_t i = earliestOn(es, 0, 3e6);
    ASSERT_NE(i, SIZE_MAX);
    ASSERT_LE(sc.arrivalOf(es[i]), 2.5e6);
    es[i].startCycle = 2.5e6;
    const std::string expect =
        concat("instance ", es[i].instanceIdx, " layer ", es[i].layerIdx,
               " [", 2.5e6, ", ", es[i].endCycle,
               ") overlaps an unavailable window on sub-accelerator 0");
    EXPECT_EQ(sc.validate(), expect);
    EXPECT_EQ(watchdogFeed(sc, es), expect);
}

TEST_F(InvariantTest, ValidateRejectsAKillOffAnOnset)
{
    Scenario sc = faulted();
    Entries &es = sc.s.mutableEntries();
    const std::size_t k = lastWhere(
        es, [](const ScheduledLayer &e) { return e.faultKilled; });
    ASSERT_NE(k, SIZE_MAX);
    es[k].endCycle -= 1.0;
    const std::string expect =
        concat("fault-killed entry (instance ", es[k].instanceIdx,
               " layer ", es[k].layerIdx, ") ends at ", es[k].endCycle,
               ", not at a fault onset on sub-accelerator ", es[k].accIdx);
    EXPECT_EQ(sc.validate(), expect);
    EXPECT_EQ(watchdogFeed(sc, es), expect);
}

// ---------------------------------------------------------------
// Schedule::validate(): kills, reconfig windows, dependence, buffer
// ---------------------------------------------------------------

TEST_F(InvariantTest, ValidateRejectsAReExecutionBeforeItsKill)
{
    // Relabel the killed attempt at layer l as one at layer l-1,
    // whose execution ran before the attempt ended.
    Scenario sc = faulted();
    Entries &es = sc.s.mutableEntries();
    const std::size_t k = lastWhere(es, [](const ScheduledLayer &e) {
        return e.faultKilled && e.layerIdx > 0;
    });
    ASSERT_NE(k, SIZE_MAX);
    --es[k].layerIdx;
    const std::size_t run =
        executionOf(es, es[k].instanceIdx, es[k].layerIdx);
    ASSERT_NE(run, SIZE_MAX);
    EXPECT_EQ(sc.validate(),
              concat("re-execution of instance ", es[k].instanceIdx,
                     " layer ", es[k].layerIdx, " starts ",
                     es[run].startCycle,
                     " before its killed attempt ends ", es[k].endCycle));
}

TEST_F(InvariantTest, ValidateRejectsAKillBeyondADroppedPrefix)
{
    // Move the killed attempt to a frame dropped at admission (no
    // committed layer) that had arrived by then: its layer is not
    // the first uncommitted one.
    Scenario sc = faulted();
    Entries &es = sc.s.mutableEntries();
    const std::size_t k = lastWhere(es, [](const ScheduledLayer &e) {
        return e.faultKilled && e.layerIdx > 0;
    });
    ASSERT_NE(k, SIZE_MAX);
    std::size_t victim = SIZE_MAX;
    for (std::size_t d : sc.s.droppedInstances()) {
        if (executionOf(es, d, 0) == SIZE_MAX &&
            sc.wl.modelOf(d).numLayers() > es[k].layerIdx &&
            sc.wl.instances()[d].arrivalCycle <= es[k].startCycle)
            victim = d;
    }
    ASSERT_NE(victim, SIZE_MAX);
    es[k].instanceIdx = victim;
    EXPECT_EQ(sc.validate(),
              concat("dropped instance ", victim,
                     " has a killed attempt at layer ", es[k].layerIdx,
                     " beyond its committed prefix"));
}

TEST_F(InvariantTest, ValidateRejectsAnEntryInAReconfigWindow)
{
    // Stretch the donor's last entry before the first migration into
    // the drain + rewire window.
    Scenario sc = elastic();
    const ReconfigEvent w = sc.s.reconfigEvents().front();
    Entries &es = sc.s.mutableEntries();
    const std::size_t i = lastWhere(es, [&](const ScheduledLayer &e) {
        return e.accIdx == w.donor && e.endCycle <= w.startCycle + kEps;
    });
    ASSERT_NE(i, SIZE_MAX);
    const double mid = 0.5 * (w.startCycle + w.endCycle);
    es[i].endCycle = mid;
    EXPECT_EQ(sc.validate(),
              concat("instance ", es[i].instanceIdx, " layer ",
                     es[i].layerIdx, " [", es[i].startCycle, ", ", mid,
                     ") overlaps reconfig window [", w.startCycle, ", ",
                     w.endCycle, ") on sub-accelerator ", w.donor));
}

TEST_F(InvariantTest, ValidateRejectsADependenceViolation)
{
    // Stretch a layer past the start of its successor on the other
    // sub-accelerator, where neither a later entry nor a migration
    // window on its own sub-accelerator is in the way.
    Scenario sc = elastic();
    Entries &es = sc.s.mutableEntries();
    auto clear = [&](std::size_t i, double end) {
        const std::size_t next = nextOnAcc(es, i);
        if (next != SIZE_MAX && es[next].startCycle < end)
            return false;
        for (const ReconfigEvent &w : sc.s.reconfigEvents()) {
            if ((es[i].accIdx == w.donor || es[i].accIdx == w.receiver) &&
                es[i].startCycle < w.endCycle && end > w.startCycle)
                return false;
        }
        return true;
    };
    std::size_t pred = 0;
    std::size_t succ = SIZE_MAX;
    for (; pred < es.size(); ++pred) {
        succ = executionOf(es, es[pred].instanceIdx, es[pred].layerIdx + 1);
        if (succ != SIZE_MAX && clear(pred, es[succ].startCycle + 1.0))
            break;
    }
    ASSERT_LT(pred, es.size());
    es[pred].endCycle = es[succ].startCycle + 1.0;
    EXPECT_EQ(sc.validate(),
              concat("dependence violation: instance ",
                     es[succ].instanceIdx, " layer ", es[succ].layerIdx,
                     " starts ", es[succ].startCycle,
                     " before predecessor ends ", es[pred].endCycle));
}

TEST_F(InvariantTest, ValidateRejectsAnOverSubscribedBuffer)
{
    // One entry claims the whole buffer plus a byte: the sweep
    // overflows at its start, on top of what is resident then.
    Scenario sc = binding();
    Entries &es = sc.s.mutableEntries();
    const std::size_t i = es.size() / 2;
    const std::int64_t cap =
        static_cast<std::int64_t>(sc.acc.globalBufferBytes());
    es[i].l2FootprintBytes = static_cast<std::uint64_t>(cap) + 1;
    std::int64_t resident = 0;
    for (std::size_t j = 0; j < es.size(); ++j) {
        if (j != i && es[j].startCycle <= es[i].startCycle &&
            es[j].endCycle > es[i].startCycle)
            resident += static_cast<std::int64_t>(es[j].l2FootprintBytes);
    }
    EXPECT_EQ(sc.validate(),
              concat("global buffer over-subscribed (",
                     resident + cap + 1, " > ", cap, " bytes) at cycle ",
                     es[i].startCycle));
}

// ---------------------------------------------------------------
// checkContextPenalties()
// ---------------------------------------------------------------

TEST_F(InvariantTest, ContextPenaltiesRejectAStalePenalty)
{
    // The first entry on sub-accelerator 0 follows nothing: it must
    // carry no penalty.
    Scenario sc = elastic();
    Entries &es = sc.s.mutableEntries();
    const std::size_t first = earliestOn(es, 0, 0.0);
    ASSERT_NE(first, SIZE_MAX);
    ASSERT_EQ(es[first].contextPenaltyCycles, 0.0);
    es[first].contextPenaltyCycles = 1.0;
    EXPECT_EQ(checkContextPenalties(sc.s, kContextCycles),
              concat("stale context penalty on sub-accelerator 0: "
                     "instance ",
                     es[first].instanceIdx, " layer ", es[first].layerIdx,
                     " carries 1 cycles, adjacency requires 0"));
}

// ---------------------------------------------------------------
// EntryChecker on hand-built entries
// ---------------------------------------------------------------

TEST_F(InvariantTest, CheckerKeepsTheRunningMaximumEndPerSubAccelerator)
{
    auto entry = [](std::size_t acc, double start, double end) {
        ScheduledLayer e;
        e.accIdx = acc;
        e.startCycle = start;
        e.endCycle = end;
        return e;
    };
    EntryChecker checker(2, nullptr);
    EXPECT_EQ(checker.check(entry(0, 0.0, 10.0), 0.0), "");
    // Another sub-accelerator keeps its own end; touching is fine.
    EXPECT_EQ(checker.check(entry(1, 5.0, 6.0), 0.0), "");
    EXPECT_EQ(checker.check(entry(0, 10.0, 12.0), 0.0), "");
    EXPECT_EQ(checker.check(entry(0, 11.0, 13.0), 0.0),
              "overlap on sub-accelerator 0 at cycle 11");

    // Without a timeline the fault rules do not apply.
    ScheduledLayer killed = entry(1, 20.0, 21.5);
    killed.faultKilled = true;
    EXPECT_EQ(checker.check(killed, 0.0), "");
    // With one, a kill must end at an onset, and nothing may run in
    // an outage (a kill ending at its onset is clear of it).
    FaultTimeline tl(2);
    tl.addOutage(1, 30.0, 10.0);
    EntryChecker faulty(2, &tl);
    EXPECT_EQ(faulty.check(killed, 0.0),
              "fault-killed entry (instance 0 layer 0) ends at 21.5, not "
              "at a fault onset on sub-accelerator 1");
    killed.startCycle = 25.0;
    killed.endCycle = 30.0;
    EXPECT_EQ(faulty.check(killed, 0.0), "");
    EXPECT_EQ(faulty.check(entry(1, 30.0, 32.0), 0.0),
              "instance 0 layer 0 [30, 32) overlaps an unavailable "
              "window on sub-accelerator 1");
    EXPECT_EQ(faulty.check(entry(0, 1.0, 2.0), 4.0),
              "arrival violation: instance 0 layer 0 starts 1 before "
              "arrival 4");
}

// ---------------------------------------------------------------
// Schedule::identicalTo()
// ---------------------------------------------------------------

TEST_F(InvariantTest, IdenticalToComparesEveryField)
{
    const Scenario sc = elastic();
    const Schedule &base = sc.s;
    ASSERT_FALSE(base.reconfigEvents().empty());
    ASSERT_TRUE(base.identicalTo(Schedule(base)));

    {
        // The same entries, one more sub-accelerator.
        Schedule narrow(base.numSubAccs());
        Schedule wide(base.numSubAccs() + 1);
        for (const ScheduledLayer &e : base.entries()) {
            narrow.add(e);
            wide.add(e);
        }
        EXPECT_FALSE(narrow.identicalTo(wide));
    }
    {
        Schedule longer = base;
        longer.add(base.entries().front());
        EXPECT_FALSE(base.identicalTo(longer));
    }
    {
        Schedule dropped = base;
        dropped.markDropped(0);
        EXPECT_FALSE(base.identicalTo(dropped));
    }
    {
        Schedule more = base;
        more.addReconfig(base.reconfigEvents().back());
        EXPECT_FALSE(base.identicalTo(more));
    }

    // Each ScheduledLayer field alone, on one entry.
    const std::vector<std::function<void(ScheduledLayer &)>> entry = {
        [](ScheduledLayer &e) { e.instanceIdx += 1; },
        [](ScheduledLayer &e) { e.layerIdx += 1; },
        [](ScheduledLayer &e) { e.accIdx = 1 - e.accIdx; },
        [](ScheduledLayer &e) {
            e.style = e.style == DataflowStyle::Eyeriss
                          ? DataflowStyle::NVDLA
                          : DataflowStyle::Eyeriss;
        },
        [](ScheduledLayer &e) { e.startCycle -= 0.5; },
        [](ScheduledLayer &e) { e.endCycle += 0.5; },
        [](ScheduledLayer &e) { e.energyUnits += 1.0; },
        [](ScheduledLayer &e) { e.l2FootprintBytes += 1; },
        [](ScheduledLayer &e) { e.contextPenaltyCycles += 1.0; },
        [](ScheduledLayer &e) { e.faultKilled = !e.faultKilled; },
    };
    for (std::size_t f = 0; f < entry.size(); ++f) {
        SCOPED_TRACE(concat("entry field ", f));
        Schedule changed = base;
        entry[f](changed.mutableEntries()[base.entries().size() / 2]);
        EXPECT_FALSE(base.identicalTo(changed));
    }

    // Each ReconfigEvent field alone, on a 3-way schedule so that the
    // donor and the receiver can each move alone.
    ReconfigEvent w;
    w.epochId = 1;
    w.donor = 0;
    w.receiver = 1;
    w.movedPes = 64;
    w.startCycle = 10.0;
    w.endCycle = 20.0;
    w.peSplit = {448, 576, 512};
    auto with = [&](const std::function<void(ReconfigEvent &)> &edit) {
        Schedule s(3);
        ReconfigEvent v = w;
        edit(v);
        s.addReconfig(v);
        return s;
    };
    const Schedule one = with([](ReconfigEvent &) {});
    ASSERT_TRUE(one.identicalTo(with([](ReconfigEvent &) {})));
    const std::vector<std::function<void(ReconfigEvent &)>> event = {
        [](ReconfigEvent &v) { v.epochId += 1; },
        [](ReconfigEvent &v) { v.donor = 2; },
        [](ReconfigEvent &v) { v.receiver = 2; },
        [](ReconfigEvent &v) { v.movedPes += 1; },
        [](ReconfigEvent &v) { v.startCycle -= 1.0; },
        [](ReconfigEvent &v) { v.endCycle += 1.0; },
        [](ReconfigEvent &v) { v.peSplit.front() += 1; },
    };
    for (std::size_t f = 0; f < event.size(); ++f) {
        SCOPED_TRACE(concat("reconfig field ", f));
        EXPECT_FALSE(one.identicalTo(with(event[f])));
    }
}

// ---------------------------------------------------------------
// planLayer's demotion past a permanent failure
// ---------------------------------------------------------------

TEST_F(InvariantTest, BufferPushPastAPermanentFailureDemotes)
{
    const Scenario sc = binding();
    const SchedulerOptions sopts = bindingOptions();
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        model, sc.wl, sc.acc, sopts.metric, sopts.rdaOverheads, 1);
    sched::OnlineOptions oopts;
    oopts.sched = sopts;
    oopts.retainSchedule = true;
    sched::OnlineScheduler batch(model, sc.wl, sc.acc, table, oopts);
    const Schedule batched = batch.scheduleWorkload();
    EXPECT_TRUE(batched.identicalTo(sc.s));

    sched::OnlineScheduler streamed(model, sc.wl, sc.acc, table, oopts);
    for (const workload::Instance &inst : sc.wl.instances())
        streamed.submit(inst.specIdx, inst.arrivalCycle,
                        inst.deadlineCycle);
    streamed.drain();
    EXPECT_TRUE(streamed.schedule().identicalTo(batched));
    EXPECT_EQ(batched.validate(sc.wl, sc.acc, &sc.faults), "");

    // Replay each commit's candidate choice: with load balancing off
    // the engine takes the best-metric sub-accelerator still usable
    // (alive) from the frame's ready time and that sub-accelerator's
    // frontier. An entry elsewhere was demoted: the buffer pushed its
    // start on the preferred candidate past the permanent failure.
    std::vector<double> frame_ready(sc.wl.numInstances());
    for (std::size_t i = 0; i < frame_ready.size(); ++i)
        frame_ready[i] = sc.wl.instances()[i].arrivalCycle;
    std::vector<double> acc_avail(sc.acc.numSubAccs(), 0.0);
    std::size_t demoted = 0;
    for (const ScheduledLayer &e : batched.entries()) {
        const std::size_t row = table.rowOf(
            sc.wl.uniqueIdOfInstance(e.instanceIdx), e.layerIdx);
        const std::size_t *order = table.order(row);
        std::size_t preferred = SIZE_MAX;
        for (std::size_t k = 0; k < sc.acc.numSubAccs(); ++k) {
            const std::size_t a = order[k];
            const double from =
                std::max(frame_ready[e.instanceIdx], acc_avail[a]);
            if (std::isfinite(sc.faults.nextAvailable(a, from))) {
                preferred = a;
                break;
            }
        }
        if (e.accIdx != preferred) {
            ++demoted;
            EXPECT_EQ(preferred, 0u);
            EXPECT_LT(frame_ready[e.instanceIdx], kBindingFailure);
        }
        frame_ready[e.instanceIdx] = e.endCycle;
        acc_avail[e.accIdx] = e.endCycle;
    }
    EXPECT_GE(demoted, 1u);
}

} // namespace
