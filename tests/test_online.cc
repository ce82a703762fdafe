/**
 * @file
 * Dispatch engine tests: bit-identical equivalence of streaming
 * submission against the batch path (HeraldScheduler) across the
 * policy x drop x preemption x fault grid, the batch API's contract,
 * deterministic
 * backpressure, retain-vs-retire stats equality, lazy arrival
 * streams, option validation, and a seeded chaos soak that must run
 * watchdog-clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/arrival_source.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::ArrivalSource;
using sched::DropPolicy;
using sched::FaultTimeline;
using sched::HeraldScheduler;
using sched::OnlineOptions;
using sched::OnlineScheduler;
using sched::OnlineStats;
using sched::Policy;
using sched::Preemption;
using sched::Schedule;
using sched::SchedulerOptions;
using sched::SubmitResult;
using workload::Workload;

class OnlineTest : public ::testing::Test
{
    // Everything public: the grid test takes pointers to the scenario
    // builders, and naming a protected base member that way is
    // ill-formed from the TEST_F subclass.
  public:
    void SetUp() override { util::setVerbose(false); }

    Accelerator
    miniHda()
    {
        return Accelerator::makeHda(
            accel::edgeClass(),
            {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
            {512, 512}, {8.0, 8.0});
    }

    dnn::Model
    convNet()
    {
        dnn::Model m("ConvNet");
        m.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
        m.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
        m.addLayer(dnn::makeFullyConnected("fc", 10, 128));
        return m;
    }

    dnn::Model
    fcNet()
    {
        dnn::Model m("FcNet");
        m.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
        m.addLayer(dnn::makeFullyConnected("f2", 256, 1024));
        return m;
    }

    /** Two comfortable-rate streams with deadlines. */
    ArrivalSource
    multirate()
    {
        ArrivalSource src;
        src.addStream(convNet(), 4e6, 4e6, 0.0, 6);
        src.addStream(fcNet(), 6e6, 6e6, 3e6, 4);
        return src;
    }

    /** Periods far below service rate: backlog, drops, misses. */
    ArrivalSource
    overloaded()
    {
        ArrivalSource src;
        src.addStream(convNet(), 5e4, 1e5, 0.0, 12);
        src.addStream(fcNet(), 7e4, 9e4, 1e4, 10);
        return src;
    }

    /**
     * Same overload but with deadlines loose enough that frames are
     * never hopeless at admission: the backlog builds until frames
     * doom out mid-run — the incremental doom-sweep path, and the
     * one that leaves committed history behind to retire.
     */
    ArrivalSource
    backlogged()
    {
        ArrivalSource src;
        src.addStream(convNet(), 5e4, 1.2e6, 0.0, 12);
        src.addStream(fcNet(), 7e4, 1e6, 1e4, 10);
        return src;
    }

    /**
     * Arrival ties: two streams on the same harmonic (exact-equal
     * arrivals) plus one phased inside the scheduler's epsilon
     * (sub-1e-6 near-ties, the reference-scan fallback path).
     */
    ArrivalSource
    tieHeavy()
    {
        ArrivalSource src;
        src.addStream(convNet(), 1e6, 2e6, 0.0, 8);
        src.addStream(fcNet(), 1e6, 3e6, 0.0, 8);
        src.addStream(fcNet(), 1e6, 2.5e6, 1e-7, 8);
        return src;
    }

    /** Deadline stream next to a deadline-free (best-effort) one. */
    ArrivalSource
    mixedDeadline()
    {
        ArrivalSource src;
        src.addStream(convNet(), 2e6, 3e6, 0.0, 6);
        src.addStream(fcNet(), 3e6, 0.0, 1e6, 5); // no deadline
        return src;
    }

    /** Outage + throttle + mid-run permanent failure. */
    FaultTimeline
    midRunFaults()
    {
        FaultTimeline tl(2);
        tl.addOutage(0, 2e6, 1e6);
        tl.addThrottle(1, 1e6, 4e6, 2.0);
        tl.addPermanentFailure(1, 1.6e7);
        return tl;
    }

    /**
     * Drive every frame of @p src through a fresh OnlineScheduler in
     * arrival order and drain. Returns the engine for inspection.
     */
    static void
    runOnline(OnlineScheduler &eng, ArrivalSource src,
              std::vector<SubmitResult> *results = nullptr)
    {
        src.reset();
        while (!src.exhausted()) {
            const ArrivalSource::Frame f = src.next();
            const SubmitResult r =
                eng.submit(f.streamIdx, f.arrivalCycle,
                           f.deadlineCycle);
            if (results != nullptr)
                results->push_back(r);
        }
        eng.drain();
    }

    /**
     * The core guarantee: submitting the stream incrementally and
     * draining yields the batch path's schedule bit-identically —
     * the watermark gates never decide differently than full
     * knowledge — and the rolling counters match its computeSla()
     * accounting.
     */
    void
    expectMatchesOffline(const ArrivalSource &src,
                         const SchedulerOptions &base_opts)
    {
        // Bit-identity is on the dispatch-loop output: idle-time
        // post-processing needs the whole schedule, so the online
        // engine forbids it and the oracle must skip it too.
        SchedulerOptions sopts = base_opts;
        sopts.postProcess = false;
        const Accelerator acc = miniHda();
        const Workload wl = src.materialize("online-oracle");
        const Schedule offline =
            HeraldScheduler(model, sopts).schedule(wl, acc);

        OnlineOptions oopts;
        oopts.sched = sopts;
        oopts.retainSchedule = true;
        oopts.maintenancePeriod = 4; // watchdog runs often
        OnlineScheduler eng(model, src.models(), acc, oopts);
        runOnline(eng, src);
        const Schedule &online = eng.schedule();

        ASSERT_EQ(online.entries().size(), offline.entries().size());
        EXPECT_TRUE(online.identicalTo(offline));

        const sched::SlaStats sla = offline.computeSla(wl);
        const OnlineStats st = eng.stats();
        EXPECT_EQ(st.admittedFrames, sla.frames);
        EXPECT_EQ(st.framesWithDeadline, sla.framesWithDeadline);
        EXPECT_EQ(st.deadlineMisses, sla.deadlineMisses);
        EXPECT_EQ(st.droppedFrames, sla.droppedFrames);
        EXPECT_EQ(st.completedFrames, sla.frames - sla.droppedFrames);
        EXPECT_EQ(st.faultKilledLayers, sla.faultKilledLayers);
        EXPECT_EQ(st.framesRescheduled, sla.framesRescheduled);
        EXPECT_DOUBLE_EQ(st.missRate, sla.missRate);
        EXPECT_DOUBLE_EQ(st.maxLatencyCycles, sla.maxLatencyCycles);
        EXPECT_EQ(st.liveFrames, 0u);
    }

    cost::CostModel model;
};

// ---------------------------------------------------------------
// Equivalence grid: online == offline, bit for bit
// ---------------------------------------------------------------

TEST_F(OnlineTest, MatchesOfflineAcrossFullGrid)
{
    const auto scenarios = {&OnlineTest::multirate,
                            &OnlineTest::overloaded,
                            &OnlineTest::backlogged,
                            &OnlineTest::tieHeavy,
                            &OnlineTest::mixedDeadline};
    int scenario_no = 0;
    for (auto scenario : scenarios) {
        ++scenario_no;
        const ArrivalSource src = (this->*scenario)();
        for (auto policy :
             {Policy::Fifo, Policy::Edf, Policy::Lst}) {
            for (auto drop :
                 {DropPolicy::None, DropPolicy::HopelessFrames,
                  DropPolicy::DoomedFrames}) {
                for (auto preempt :
                     {Preemption::Off,
                      Preemption::AtLayerBoundary}) {
                    for (bool with_faults : {false, true}) {
                        SCOPED_TRACE(testing::Message()
                                     << "scenario " << scenario_no
                                     << " policy "
                                     << sched::toString(policy)
                                     << " drop "
                                     << sched::toString(drop)
                                     << " preempt "
                                     << sched::toString(preempt)
                                     << " faults " << with_faults);
                        SchedulerOptions sopts;
                        sopts.policy = policy;
                        sopts.dropPolicy = drop;
                        sopts.preemption = preempt;
                        if (with_faults)
                            sopts.faults = midRunFaults();
                        expectMatchesOffline(src, sopts);
                    }
                }
            }
        }
    }
}

TEST_F(OnlineTest, MatchesOfflineWithLstHysteresisAndContextCost)
{
    SchedulerOptions sopts;
    sopts.policy = Policy::Lst;
    sopts.dropPolicy = DropPolicy::DoomedFrames;
    sopts.preemption = Preemption::AtLayerBoundary;
    sopts.lstHysteresisCycles = 5e4;
    sopts.contextChangeCycles = 1e3;
    expectMatchesOffline(overloaded(), sopts);
    expectMatchesOffline(tieHeavy(), sopts);
}

TEST_F(OnlineTest, MatchesOfflineWithDepthFirstOrdering)
{
    SchedulerOptions sopts;
    sopts.ordering = sched::Ordering::DepthFirst;
    sopts.policy = Policy::Edf;
    sopts.dropPolicy = DropPolicy::DoomedFrames;
    expectMatchesOffline(multirate(), sopts);
    expectMatchesOffline(tieHeavy(), sopts);
}

TEST_F(OnlineTest, MatchesOfflineAcrossPrefillThreadCounts)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
        SCOPED_TRACE(threads);
        SchedulerOptions sopts;
        sopts.policy = Policy::Lst;
        sopts.dropPolicy = DropPolicy::DoomedFrames;
        sopts.preemption = Preemption::AtLayerBoundary;
        sopts.prefillThreads = threads;
        expectMatchesOffline(overloaded(), sopts);
    }
}

TEST_F(OnlineTest, MidStreamStatsQueriesDoNotPerturbTheSchedule)
{
    const ArrivalSource src = overloaded();
    const Accelerator acc = miniHda();
    SchedulerOptions sopts;
    sopts.policy = Policy::Edf;
    sopts.dropPolicy = DropPolicy::DoomedFrames;
    sopts.postProcess = false;

    OnlineOptions oopts;
    oopts.sched = sopts;
    oopts.retainSchedule = true;
    OnlineScheduler probed(model, src.models(), acc, oopts);
    ArrivalSource feed = src;
    feed.reset();
    while (!feed.exhausted()) {
        const ArrivalSource::Frame f = feed.next();
        probed.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        (void)probed.stats(); // const probe every frame
    }
    probed.drain();

    OnlineScheduler plain(model, src.models(), acc, oopts);
    runOnline(plain, src);
    EXPECT_TRUE(probed.schedule().identicalTo(plain.schedule()));
}

// ---------------------------------------------------------------
// Batch path: the workload-bound engine behind HeraldScheduler
// ---------------------------------------------------------------

TEST_F(OnlineTest, PrebuiltTableEngineStreamsLikeTheBatchPath)
{
    // One prebuilt table serves both paths: streaming a workload's
    // instances (spec index = model index) through an engine bound to
    // it reproduces scheduleWorkload() exactly.
    const Workload wl = backlogged().materialize("prebuilt");
    const Accelerator acc = miniHda();
    SchedulerOptions sopts;
    sopts.policy = Policy::Lst;
    sopts.dropPolicy = DropPolicy::DoomedFrames;
    sopts.preemption = Preemption::AtLayerBoundary;
    sopts.faults = midRunFaults();
    sopts.postProcess = false;
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, sopts.metric, sopts.rdaOverheads, 1);

    OnlineOptions oopts;
    oopts.sched = sopts;
    oopts.retainSchedule = true;
    OnlineScheduler batch(model, wl, acc, table, oopts);
    const Schedule batched = batch.scheduleWorkload();
    EXPECT_EQ(batch.stats().liveFrames, 0u);

    OnlineScheduler streamed(model, wl, acc, table, oopts);
    for (const workload::Instance &inst : wl.instances())
        streamed.submit(inst.specIdx, inst.arrivalCycle,
                        inst.deadlineCycle);
    streamed.drain();
    EXPECT_TRUE(streamed.schedule().identicalTo(batched));
    EXPECT_TRUE(batched.identicalTo(
        HeraldScheduler(model, sopts).schedule(wl, acc, table)));
}

TEST_F(OnlineTest, ScheduleWorkloadRejectsMisuse)
{
    const Workload wl = multirate().materialize("misuse");
    const Accelerator acc = miniHda();
    OnlineOptions retain;
    retain.retainSchedule = true;
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, retain.sched.metric, retain.sched.rdaOverheads,
        1);

    // Streaming engines have no workload to admit.
    OnlineScheduler stream(model, multirate().models(), acc, retain);
    EXPECT_THROW(stream.scheduleWorkload(), std::runtime_error);
    // The batch path hands back the whole schedule.
    OnlineScheduler retiring(model, wl, acc, table, OnlineOptions{});
    EXPECT_THROW(retiring.scheduleWorkload(), std::runtime_error);
    // One batch per engine, and never on top of a stream.
    OnlineScheduler once(model, wl, acc, table, retain);
    once.scheduleWorkload();
    EXPECT_THROW(once.scheduleWorkload(), std::runtime_error);
    OnlineScheduler mixed(model, wl, acc, table, retain);
    mixed.submit(0, 0.0);
    EXPECT_THROW(mixed.scheduleWorkload(), std::runtime_error);
    // A table built for another accelerator is refused up front.
    const Accelerator three_way = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {512, 256, 256}, {8.0, 4.0, 4.0});
    EXPECT_THROW(OnlineScheduler(model, wl, three_way, table, retain),
                 std::runtime_error);
}

// ---------------------------------------------------------------
// Bounded memory: retire mode matches retain mode
// ---------------------------------------------------------------

TEST_F(OnlineTest, RetiringHistoryPreservesEveryRollingCounter)
{
    // backlogged(): commits pile up AND frames doom out mid-run, so
    // retirement has real history to fold (overloaded() would drop
    // every frame at admission and leave nothing to retire).
    const ArrivalSource src = backlogged();
    const Accelerator acc = miniHda();
    SchedulerOptions sopts;
    sopts.policy = Policy::Lst;
    sopts.dropPolicy = DropPolicy::DoomedFrames;
    sopts.preemption = Preemption::AtLayerBoundary;
    sopts.faults = midRunFaults();
    sopts.postProcess = false;

    OnlineOptions retain;
    retain.sched = sopts;
    retain.retainSchedule = true;
    OnlineScheduler a(model, src.models(), acc, retain);
    runOnline(a, src);

    OnlineOptions retire;
    retire.sched = sopts;
    retire.retainSchedule = false;
    retire.maintenancePeriod = 4;
    OnlineScheduler b(model, src.models(), acc, retire);
    runOnline(b, src);

    const OnlineStats sa = a.stats();
    const OnlineStats sb = b.stats();
    EXPECT_EQ(sb.submittedFrames, sa.submittedFrames);
    EXPECT_EQ(sb.admittedFrames, sa.admittedFrames);
    EXPECT_EQ(sb.completedFrames, sa.completedFrames);
    EXPECT_EQ(sb.droppedFrames, sa.droppedFrames);
    EXPECT_EQ(sb.deadlineMisses, sa.deadlineMisses);
    EXPECT_EQ(sb.committedLayers, sa.committedLayers);
    EXPECT_EQ(sb.faultKilledLayers, sa.faultKilledLayers);
    EXPECT_EQ(sb.framesRescheduled, sa.framesRescheduled);
    EXPECT_DOUBLE_EQ(sb.missRate, sa.missRate);
    EXPECT_DOUBLE_EQ(sb.p50LatencyCycles, sa.p50LatencyCycles);
    EXPECT_DOUBLE_EQ(sb.p99LatencyCycles, sa.p99LatencyCycles);
    EXPECT_DOUBLE_EQ(sb.maxLatencyCycles, sa.maxLatencyCycles);
    ASSERT_EQ(sb.perModel.size(), sa.perModel.size());
    for (std::size_t m = 0; m < sa.perModel.size(); ++m) {
        EXPECT_EQ(sb.perModel[m].completed, sa.perModel[m].completed);
        EXPECT_EQ(sb.perModel[m].dropped, sa.perModel[m].dropped);
        EXPECT_EQ(sb.perModel[m].deadlineMisses,
                  sa.perModel[m].deadlineMisses);
    }
    // The point of retiring: history was actually folded away.
    EXPECT_GT(sb.retiredEntries, 0u);
    EXPECT_LT(sb.liveEntries, sa.liveEntries);
    // schedule() is retain-mode only.
    EXPECT_THROW(b.schedule(), std::runtime_error);
}

TEST_F(OnlineTest, RetirementAccountsForEveryCommittedLayer)
{
    // A finite lazy stream with faults, doomed drops and rejections:
    // every committed entry is either still live or retired, at every
    // point of the stream.
    ArrivalSource src;
    src.addStream(convNet(), 8e4, 4e5, 0.0, 120);
    src.addStream(fcNet(), 1.1e5, 3e5, 2e4, 90);
    src.addStream(fcNet(), 1.3e5, 0.0, 5e4, 60); // best effort

    OnlineOptions oopts;
    oopts.sched.policy = Policy::Lst;
    oopts.sched.dropPolicy = DropPolicy::DoomedFrames;
    oopts.sched.preemption = Preemption::AtLayerBoundary;
    oopts.sched.faults = FaultTimeline::random(11, 2, 4e7);
    oopts.maxLiveFrames = 64;
    oopts.horizonCycles = 2e7;
    oopts.maintenancePeriod = 8;
    OnlineScheduler eng(model, src.models(), miniHda(), oopts);

    std::uint64_t peak_live = 0;
    while (!src.exhausted()) {
        const ArrivalSource::Frame f = src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        const OnlineStats st = eng.stats();
        ASSERT_EQ(st.retiredEntries + st.liveEntries, st.committedLayers);
        peak_live = std::max(peak_live, st.liveEntries);
    }
    eng.drain();
    const OnlineStats st = eng.stats();
    EXPECT_EQ(st.retiredEntries + st.liveEntries, st.committedLayers);
    // Pinned: retirement sweeps exactly the entries the floor passed.
    EXPECT_EQ(st.retiredEntries, 260u);
    EXPECT_EQ(st.liveEntries, 0u);
    EXPECT_EQ(peak_live, 31u);
}

// ---------------------------------------------------------------
// Backpressure: deterministic rejection under overload
// ---------------------------------------------------------------

TEST_F(OnlineTest, BackpressureRejectsDeterministically)
{
    const ArrivalSource src = overloaded();
    const Accelerator acc = miniHda();
    OnlineOptions oopts;
    oopts.sched.policy = Policy::Edf;
    oopts.maxLiveFrames = 4;
    oopts.horizonCycles = 3e5;

    std::vector<SubmitResult> first, second;
    OnlineScheduler a(model, src.models(), acc, oopts);
    runOnline(a, src, &first);
    OnlineScheduler b(model, src.models(), acc, oopts);
    runOnline(b, src, &second);

    EXPECT_EQ(first, second); // same rejects, same order, every rerun
    std::size_t rejects = 0;
    for (SubmitResult r : first) {
        if (r == SubmitResult::RejectedQueueFull ||
            r == SubmitResult::RejectedHorizon)
            ++rejects;
    }
    EXPECT_GT(rejects, 0u);

    const OnlineStats st = a.stats();
    EXPECT_EQ(st.submittedFrames, first.size());
    EXPECT_EQ(st.submittedFrames,
              st.admittedFrames + st.rejectedFrames);
    EXPECT_EQ(st.rejectedFrames, rejects);
    EXPECT_EQ(st.admittedFrames,
              st.completedFrames + st.droppedFrames);
    EXPECT_EQ(st.liveFrames, 0u);
}

TEST_F(OnlineTest, QueueBoundIsRespectedThroughoutTheStream)
{
    const ArrivalSource src = overloaded();
    const Accelerator acc = miniHda();
    OnlineOptions oopts;
    oopts.sched.policy = Policy::Fifo;
    oopts.maxLiveFrames = 3;

    OnlineScheduler eng(model, src.models(), acc, oopts);
    ArrivalSource feed = src;
    feed.reset();
    while (!feed.exhausted()) {
        const ArrivalSource::Frame f = feed.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        EXPECT_LE(eng.stats().liveFrames, 3u);
    }
    eng.drain();
}

// ---------------------------------------------------------------
// Chaos soak: random faults + tight maintenance, watchdog-clean
// ---------------------------------------------------------------

TEST_F(OnlineTest, SeededChaosSoakRunsWatchdogClean)
{
    const Accelerator acc = miniHda();
    for (std::uint64_t seed : {11u, 29u, 47u}) {
        SCOPED_TRACE(seed);
        ArrivalSource src;
        src.addStream(convNet(), 8e4, 4e5, 0.0, 120);
        src.addStream(fcNet(), 1.1e5, 3e5, 2e4, 90);
        src.addStream(fcNet(), 1.3e5, 0.0, 5e4, 60); // best effort

        OnlineOptions oopts;
        oopts.sched.policy = Policy::Lst;
        oopts.sched.dropPolicy = DropPolicy::DoomedFrames;
        oopts.sched.preemption = Preemption::AtLayerBoundary;
        oopts.sched.faults = FaultTimeline::random(seed, 2, 4e7);
        oopts.maxLiveFrames = 64;
        oopts.horizonCycles = 2e7;
        oopts.maintenancePeriod = 8; // audit nearly every commit
        OnlineScheduler eng(model, src.models(), acc, oopts);
        runOnline(eng, src); // any watchdog violation throws

        const OnlineStats st = eng.stats();
        EXPECT_EQ(st.liveFrames, 0u);
        EXPECT_EQ(st.submittedFrames,
                  st.admittedFrames + st.rejectedFrames);
        EXPECT_EQ(st.admittedFrames,
                  st.completedFrames + st.droppedFrames);
        EXPECT_GT(st.retiredEntries, 0u);
        EXPECT_GE(st.watermarkCycle, 0.0);
    }
}

// ---------------------------------------------------------------
// ArrivalSource: lazy generation semantics
// ---------------------------------------------------------------

TEST_F(OnlineTest, ArrivalSourceMergesInArrivalOrder)
{
    ArrivalSource src;
    src.addStream(convNet(), 100.0, 50.0, 0.0, 3);
    src.addStream(fcNet(), 70.0, 0.0, 10.0, 3);
    double last = 0.0;
    std::uint64_t n = 0;
    while (!src.exhausted()) {
        const ArrivalSource::Frame f = src.next();
        EXPECT_GE(f.arrivalCycle, last);
        last = f.arrivalCycle;
        ++n;
    }
    EXPECT_EQ(n, 6u);
    EXPECT_EQ(src.emitted(), 6u);
    // materialize() replays the same order with the same timing.
    const Workload wl = src.materialize("merge");
    ASSERT_EQ(wl.numInstances(), 6u);
    for (std::size_t i = 1; i < 6; ++i) {
        EXPECT_GE(wl.instances()[i].arrivalCycle,
                  wl.instances()[i - 1].arrivalCycle);
    }
    src.reset();
    EXPECT_EQ(src.emitted(), 0u);
    EXPECT_FALSE(src.exhausted());
}

TEST_F(OnlineTest, ArrivalSourceGuardsUnboundedAndOverflowing)
{
    ArrivalSource src;
    src.addStream(convNet(), 1e6);
    EXPECT_FALSE(src.exhausted()); // unbounded: never runs out
    EXPECT_THROW(src.materialize("x"), std::runtime_error);
    EXPECT_THROW(ArrivalSource{}.addStream(convNet(), 0.0),
                 std::runtime_error);
    EXPECT_THROW(
        ArrivalSource{}.addStream(convNet(), 1e15, 0.0, 0.0, 100),
        std::runtime_error);
}

// ---------------------------------------------------------------
// Option and argument validation
// ---------------------------------------------------------------

TEST_F(OnlineTest, RejectsContradictoryOnlineOptions)
{
    const Accelerator acc = miniHda();
    const std::vector<dnn::Model> models = {convNet()};
    {
        OnlineOptions o;
        o.sched.postProcess = true;
        EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                     std::runtime_error);
    }
    {
        OnlineOptions o;
        o.maxLiveFrames = 0;
        EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                     std::runtime_error);
    }
    for (double horizon : {0.0, -1.0, std::nan("")}) {
        OnlineOptions o;
        o.horizonCycles = horizon;
        EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                     std::runtime_error);
    }
    {
        OnlineOptions o;
        o.maintenancePeriod = 0;
        EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                     std::runtime_error);
    }
    // Scheduler-option validation runs through the same gate.
    {
        OnlineOptions o;
        o.sched.lstHysteresisCycles = 1e4; // non-LST policy
        EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                     std::runtime_error);
    }
    EXPECT_THROW(OnlineScheduler(model, {}, acc, OnlineOptions{}),
                 std::runtime_error);
}

TEST_F(OnlineTest, RejectsBadSchedulerOptionCombos)
{
    // Satellite guard: every contradictory SchedulerOptions field is
    // refused up front with util::fatal, not silently ignored.
    auto expect_rejected = [](const SchedulerOptions &o) {
        EXPECT_THROW(o.validate(), std::runtime_error);
    };
    SchedulerOptions o;
    o.loadBalanceFactor = 0.5;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.loadBalanceFactor = std::nan("");
    expect_rejected(o);
    o = SchedulerOptions{};
    o.loadBalanceMaxDegradation = 0.0;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.lookaheadDepth = -1;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.maxPostPasses = -2;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.lstHysteresisCycles = -1.0;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.lstHysteresisCycles =
        std::numeric_limits<double>::infinity();
    expect_rejected(o);
    o = SchedulerOptions{};
    o.policy = Policy::Edf;
    o.lstHysteresisCycles = 1e3;
    expect_rejected(o);
    o = SchedulerOptions{};
    o.contextChangeCycles = -5.0;
    expect_rejected(o);
    // The legal combinations still pass.
    o = SchedulerOptions{};
    o.policy = Policy::Lst;
    o.lstHysteresisCycles = 1e3;
    EXPECT_NO_THROW(o.validate());
}

TEST_F(OnlineTest, RejectsBadSubmitArguments)
{
    const Accelerator acc = miniHda();
    OnlineScheduler eng(model, {convNet()}, acc, OnlineOptions{});
    EXPECT_THROW(eng.submit(1, 0.0), std::runtime_error);
    EXPECT_THROW(eng.submit(0, -1.0), std::runtime_error);
    EXPECT_THROW(eng.submit(0, std::nan("")), std::runtime_error);
    EXPECT_THROW(eng.submit(0, workload::kMaxCycle * 2),
                 std::runtime_error);
    EXPECT_THROW(eng.submit(0, 100.0, 50.0), std::runtime_error);
    EXPECT_THROW(eng.submit(0, 100.0, std::nan("")),
                 std::runtime_error);
    ASSERT_EQ(eng.submit(0, 100.0), SubmitResult::Accepted);
    // Arrivals are a timeline: going backwards is a caller bug.
    EXPECT_THROW(eng.submit(0, 99.0), std::runtime_error);
    eng.drain();
    eng.drain(); // idempotent
    EXPECT_THROW(eng.submit(0, 200.0), std::runtime_error);
    EXPECT_EQ(eng.stats().completedFrames, 1u);
}

} // namespace
