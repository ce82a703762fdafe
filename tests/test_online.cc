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
#include <utility>
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

TEST_F(OnlineTest, PermanentFailureOnsetReKeysTheDoomSet)
{
    // NVDLA (sub-acc 0) dies at 1.3e6, killing FcNet frame 4's first
    // layer; its re-run holds the surviving ShiDiannao until 2.36e6,
    // which is when the availability floor passes the onset and the
    // failure is folded into the doom set's keys. FcNet frame 5
    // (arrival 1.55e6, deadline 3.55e6) is waiting in the doom set
    // then: FcNet needs 0.34e6 cycles with NVDLA but 1.33e6 on
    // ShiDiannao alone, so the re-key makes it hopeless and the sweep
    // sheds it before it runs. Keyed on the two-sub-accelerator bound
    // it would look feasible, spend 1.06e6 survivor cycles on its
    // first layer and only then be dropped.
    ArrivalSource src;
    src.addStream(convNet(), 8e5, 2.4e6, 0.0, 4);
    src.addStream(fcNet(), 5e5, 2e6, 5e4, 5);
    const Workload wl = src.materialize("onset");
    constexpr std::size_t kHopeless = 5;
    ASSERT_EQ(wl.instances()[kHopeless].arrivalCycle, 1.55e6);

    FaultTimeline tl(2);
    tl.addPermanentFailure(0, 1.3e6);
    for (auto policy : {Policy::Edf, Policy::Lst}) {
        SCOPED_TRACE(sched::toString(policy));
        SchedulerOptions sopts;
        sopts.policy = policy;
        sopts.dropPolicy = DropPolicy::DoomedFrames;
        sopts.postProcess = false;
        sopts.faults = tl;
        const Schedule s =
            HeraldScheduler(model, sopts).schedule(wl, miniHda());

        std::size_t killed = 0;
        for (const sched::ScheduledLayer &e : s.entries()) {
            EXPECT_NE(e.instanceIdx, kHopeless);
            killed += e.faultKilled ? 1 : 0;
        }
        EXPECT_EQ(killed, 1u);
        EXPECT_TRUE(s.isDropped(kHopeless));
        expectMatchesOffline(src, sopts);
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
// Lane handover: post-processing inherits the engine's buffer lanes
// ---------------------------------------------------------------

/**
 * The buffer lanes rebuilt from @p s: one lane per sub-accelerator,
 * its entries in start order, each slot naming its schedule index.
 */
std::vector<sched::BufferLanes::Lane>
lanesOf(const Schedule &s)
{
    std::vector<sched::BufferLanes::Lane> lanes(s.numSubAccs());
    const std::vector<sched::ScheduledLayer> &entries = s.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const sched::ScheduledLayer &e = entries[i];
        lanes[e.accIdx].push_back(
            {e.startCycle, e.endCycle,
             static_cast<double>(e.l2FootprintBytes), i});
    }
    for (sched::BufferLanes::Lane &lane : lanes)
        std::stable_sort(lane.begin(), lane.end(),
                         [](const sched::BufferLanes::Slot &x,
                            const sched::BufferLanes::Slot &y) {
                             return x.start < y.start;
                         });
    return lanes;
}

TEST_F(OnlineTest, HandedOverLanesEqualLanesRebuiltFromTheSchedule)
{
    // Retain mode never retires a lane slot, and a slot's entry is
    // its schedule index: the lanes the engine hands to
    // post-processing are exactly the lanes the schedule rebuilds.
    const Workload factory = workload::faultedFactory(64);
    const Workload backlog = backlogged().materialize("backlogged");
    // Dense conv frames backlog their preferred sub-accelerator while
    // the other idles: the skew BacklogSkew migrates against.
    ArrivalSource skewed;
    skewed.addStream(convNet(), 5e5, 4e6, 0.0, 10);
    skewed.addStream(fcNet(), 8e6, 9e6, 2e6, 3);
    const Workload skew = skewed.materialize("skewed");
    const Accelerator acc = miniHda();
    accel::AcceleratorClass small = accel::edgeClass();
    small.globalBufferBytes = 24u << 10;
    const Accelerator binding = Accelerator::makeHda(
        small, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {512, 512}, {8.0, 8.0});
    const Workload arvr = workload::arvrA();

    SchedulerOptions faulted;
    faulted.policy = Policy::Lst;
    faulted.dropPolicy = DropPolicy::DoomedFrames;
    faulted.preemption = Preemption::AtLayerBoundary;
    faulted.faults = midRunFaults();
    SchedulerOptions elastic;
    elastic.reconfig.policy = sched::Reconfig::BacklogSkew;
    elastic.reconfig.skewThresholdCycles = 1e6;
    elastic.reconfig.migrationQuantumPes = 64;
    elastic.reconfig.drainCycles = 1e4;
    elastic.reconfig.perPeRewireCycles = 10.0;
    elastic.reconfig.cooldownCycles = 1e5;
    SchedulerOptions context;
    context.contextChangeCycles = 5000.0;
    const SchedulerOptions plain;

    // Each case also checks that it reaches the state it is named
    // for: a fault kill, a reconfiguration, a context penalty, and
    // lanes that cannot prove the largest footprint fits.
    using Entries = std::vector<sched::ScheduledLayer>;
    struct Case
    {
        const char *name;
        const Workload &wl;
        const Accelerator &acc;
        const SchedulerOptions &sopts;
        bool (*reached)(const Schedule &, const sched::BufferLanes &);
    };
    const Case cases[] = {
        {"faulted", backlog, acc, faulted,
         [](const Schedule &s, const sched::BufferLanes &) {
             const Entries &es = s.entries();
             return std::any_of(es.begin(), es.end(),
                                [](const sched::ScheduledLayer &e) {
                                    return e.faultKilled;
                                });
         }},
        {"elastic", skew, acc, elastic,
         [](const Schedule &s, const sched::BufferLanes &) {
             return !s.reconfigEvents().empty();
         }},
        {"context", factory, acc, context,
         [](const Schedule &s, const sched::BufferLanes &) {
             const Entries &es = s.entries();
             return std::any_of(es.begin(), es.end(),
                                [](const sched::ScheduledLayer &e) {
                                    return e.contextPenaltyCycles > 0.0;
                                });
         }},
        {"24KiB", arvr, binding, plain,
         [](const Schedule &s, const sched::BufferLanes &lanes) {
             std::uint64_t largest = 0;
             for (const sched::ScheduledLayer &e : s.entries())
                 largest = std::max(largest, e.l2FootprintBytes);
             return !lanes.cannotBind(static_cast<double>(largest));
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        OnlineOptions oopts;
        oopts.sched = c.sopts;
        oopts.sched.postProcess = false;
        oopts.retainSchedule = true;
        const sched::LayerCostTable table = sched::LayerCostTable::build(
            model, c.wl, c.acc, oopts.sched.metric,
            oopts.sched.rdaOverheads, 1);
        OnlineScheduler eng(model, c.wl, c.acc, table, oopts);
        const Schedule s = eng.scheduleWorkload();
        const sched::BufferLanes lanes = eng.takeLanes();
        EXPECT_TRUE(c.reached(s, lanes));

        const std::vector<sched::BufferLanes::Lane> rebuilt = lanesOf(s);
        ASSERT_EQ(lanes.numLanes(), rebuilt.size());
        for (std::size_t a = 0; a < rebuilt.size(); ++a) {
            const sched::BufferLanes::Lane &got = lanes.lane(a);
            ASSERT_EQ(got.size(), rebuilt[a].size()) << "lane " << a;
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].start, rebuilt[a][k].start);
                EXPECT_EQ(got[k].end, rebuilt[a][k].end);
                EXPECT_EQ(got[k].bytes, rebuilt[a][k].bytes);
                EXPECT_EQ(got[k].entry, rebuilt[a][k].entry)
                    << "lane " << a << " slot " << k;
            }
        }
    }
}

TEST_F(OnlineTest, TakeLanesRejectsMisuse)
{
    const Workload wl = multirate().materialize("take-lanes");
    const Accelerator acc = miniHda();
    OnlineOptions retain;
    retain.retainSchedule = true;
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, retain.sched.metric, retain.sched.rdaOverheads,
        1);

    // A retiring engine has dropped slots from its lanes.
    OnlineScheduler retiring(model, multirate().models(), acc,
                             OnlineOptions{});
    runOnline(retiring, multirate());
    EXPECT_THROW(retiring.takeLanes(), std::runtime_error);
    // Before the drain the lanes are still growing.
    OnlineScheduler fresh(model, wl, acc, table, retain);
    EXPECT_THROW(fresh.takeLanes(), std::runtime_error);
    OnlineScheduler streaming(model, multirate().models(), acc, retain);
    streaming.submit(0, 0.0);
    EXPECT_THROW(streaming.takeLanes(), std::runtime_error);
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

TEST_F(OnlineTest, RetainModeRetirementFloorMatchesRetireMode)
{
    // The floor scan walks frames in arrival order from past the
    // finished prefix and stops at the first arrival that cannot
    // lower it. Retain mode never pops the window, so that cursor is
    // the only thing keeping the scan short; it must find the floor
    // retire mode finds at every point of the stream, and that floor
    // must bound every later start. Two streams: a chaos stream, where faults,
    // doomed drops and best-effort frames make frames finish out of
    // id order, and multirate(), where frames in flight lag the
    // watermark and hold the floor down.
    ArrivalSource chaos;
    chaos.addStream(convNet(), 8e4, 4e5, 0.0, 120);
    chaos.addStream(fcNet(), 1.1e5, 3e5, 2e4, 90);
    chaos.addStream(fcNet(), 1.3e5, 0.0, 5e4, 60); // best effort
    OnlineOptions chaos_opts;
    chaos_opts.sched.policy = Policy::Lst;
    chaos_opts.sched.dropPolicy = DropPolicy::DoomedFrames;
    chaos_opts.sched.preemption = Preemption::AtLayerBoundary;
    chaos_opts.sched.faults = FaultTimeline::random(11, 2, 4e7);
    chaos_opts.maintenancePeriod = 8;
    OnlineOptions multirate_opts;
    multirate_opts.sched.policy = Policy::Edf;
    multirate_opts.maintenancePeriod = 1;

    std::uint64_t dropped = 0;
    const std::pair<ArrivalSource, OnlineOptions> runs[] = {
        {chaos, chaos_opts}, {multirate(), multirate_opts}};
    for (const auto &[source, retire] : runs) {
        ArrivalSource src = source;
        OnlineOptions retain = retire;
        retain.retainSchedule = true;
        OnlineScheduler a(model, src.models(), miniHda(), retain);
        OnlineScheduler b(model, src.models(), miniHda(), retire);

        // (committed layers, floor) after each submit.
        std::vector<std::pair<std::size_t, double>> floors;
        src.reset();
        while (!src.exhausted()) {
            const ArrivalSource::Frame f = src.next();
            a.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
            b.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
            const OnlineStats st = a.stats();
            ASSERT_EQ(st.retireFloorCycle, b.stats().retireFloorCycle);
            floors.emplace_back(st.committedLayers,
                                st.retireFloorCycle);
        }
        a.drain();
        b.drain();
        EXPECT_EQ(a.stats().retireFloorCycle,
                  b.stats().retireFloorCycle);
        dropped += a.stats().droppedFrames;

        const std::vector<sched::ScheduledLayer> &entries =
            a.schedule().entries();
        std::size_t moves = 0;
        for (std::size_t k = 0; k < floors.size(); ++k) {
            const auto [committed, floor] = floors[k];
            moves += k > 0 && floor != floors[k - 1].second;
            for (std::size_t i = committed; i < entries.size(); ++i)
                ASSERT_GE(entries[i].startCycle, floor)
                    << "entry " << i;
        }
        EXPECT_GT(moves, 2u);
    }
    EXPECT_GT(dropped, 0u);
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
