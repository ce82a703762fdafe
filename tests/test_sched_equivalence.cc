/**
 * @file
 * Scheduler equivalence suite: the table-driven, event-dispatch
 * scheduler must produce *bit-identical* schedules to the reference
 * implementation (per-layer cost queries + O(n_instances) scans) on
 * every factory scenario, under every combination of
 * {FIFO, EDF} x {BreadthFirst, DepthFirst} x postProcess {on, off} —
 * plus prefill-thread determinism and prebuilt-table reuse, and the
 * idle-time post-processing against its frozen restart-from-0 oracle
 * under faults, reconfiguration and context-change penalties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/buffer_lanes.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/reference_scheduler.hh"
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

/**
 * The edge chip class with its global buffer cut to @p kib KiB, small
 * enough that the buffer binds (dispatches wait for it and
 * post-processing moves are refused for it).
 */
accel::AcceleratorClass
edgeWithBuffer(std::uint64_t kib)
{
    accel::AcceleratorClass chip = accel::edgeClass();
    chip.globalBufferBytes = kib << 10;
    return chip;
}

Accelerator
edgeHda(const accel::AcceleratorClass &chip = accel::edgeClass())
{
    return Accelerator::makeHda(
        chip, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {512, 512}, {8.0, 8.0});
}

Accelerator
threeWayHda(const accel::AcceleratorClass &chip = accel::edgeClass())
{
    return Accelerator::makeHda(
        chip,
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {512, 256, 256}, {8.0, 4.0, 4.0});
}

/** Accelerator name plus buffer size, for test labels. */
std::string
accLabel(const Accelerator &acc)
{
    return acc.name() + "@" +
           std::to_string(acc.globalBufferBytes() >> 10) + "KiB";
}

/**
 * Dispatches the global buffer deferred: entries that start later
 * than max(arrival, predecessor end, previous end on their
 * sub-accelerator). Only meaningful on a fault-free, dispatch-only
 * schedule, whose entries are in commit order and where nothing but
 * the buffer can hold a start back.
 */
std::size_t
bufferDeferrals(const Schedule &s, const Workload &wl)
{
    std::vector<double> ready(wl.numInstances());
    for (std::size_t i = 0; i < wl.numInstances(); ++i)
        ready[i] = wl.instances()[i].arrivalCycle;
    std::vector<double> acc_end(s.numSubAccs(), 0.0);
    std::size_t deferred = 0;
    for (const sched::ScheduledLayer &e : s.entries()) {
        deferred += e.startCycle >
                    std::max(ready[e.instanceIdx], acc_end[e.accIdx]);
        ready[e.instanceIdx] = e.endCycle;
        acc_end[e.accIdx] = e.endCycle;
    }
    return deferred;
}

/**
 * Whether the buffer lanes of @p s prove that its largest staging
 * footprint cannot overflow the buffer, so that a lane query for it
 * skips the occupancy scan. The lanes are rebuilt from the schedule,
 * one start-sorted lane per sub-accelerator. On a dispatch-only
 * schedule they equal the lanes the dispatch engine hands to
 * postProcessIdleTime (OnlineScheduler::takeLanes(); retain mode
 * retires no slot), and the serving engine's lanes less their retired
 * prefixes, which neither the per-lane maxima nor the overlap flag
 * forget.
 */
bool
largestFootprintCannotBind(const Schedule &s, const Accelerator &acc)
{
    std::vector<sched::ScheduledLayer> by_start = s.entries();
    std::stable_sort(by_start.begin(), by_start.end(),
                     [](const sched::ScheduledLayer &x,
                        const sched::ScheduledLayer &y) {
                         return x.startCycle < y.startCycle;
                     });
    sched::BufferLanes lanes(acc.globalBufferBytes(), s.numSubAccs());
    std::uint64_t largest = 0;
    for (std::size_t i = 0; i < by_start.size(); ++i) {
        const sched::ScheduledLayer &e = by_start[i];
        lanes.append(e.accIdx,
                     {e.startCycle, e.endCycle,
                      static_cast<double>(e.l2FootprintBytes), i});
        largest = std::max(largest, e.l2FootprintBytes);
    }
    return lanes.cannotBind(static_cast<double>(largest));
}

/** Small mixed workload with batches and a staggered late stream. */
Workload
miniMixed()
{
    Workload wl("mini-mixed");
    dnn::Model conv_net("ConvNet");
    conv_net.addLayer(dnn::makeConv("c1", 64, 3, 58, 58, 3, 3));
    conv_net.addLayer(dnn::makeDepthwise("dw", 64, 56, 56, 3, 3));
    conv_net.addLayer(dnn::makeConv("c2", 128, 64, 28, 28, 3, 3));
    conv_net.addLayer(dnn::makeFullyConnected("fc", 10, 128));
    dnn::Model fc_net("FcNet");
    fc_net.addLayer(dnn::makeFullyConnected("f1", 1024, 1024));
    fc_net.addLayer(dnn::makeFullyConnected("f2", 1024, 1024));
    wl.addModel(std::move(conv_net), 2);
    wl.addModel(std::move(fc_net), 2, /*arrival=*/5e5,
                /*deadline=*/4e6);
    return wl;
}

/** One-layer frames stress the exhausted-before-release paths. */
Workload
tinyFramesFarApart()
{
    Workload wl("tiny-frames");
    dnn::Model tiny("Tiny");
    tiny.addLayer(dnn::makeFullyConnected("f", 256, 256));
    wl.addPeriodicModel(std::move(tiny), 6, /*period=*/1e7,
                        /*deadline=*/5e6);
    return wl;
}

/**
 * Sub-epsilon arrival ties: distinct arrivals closer than the
 * scheduler's kEps (1e-6 cycles) drive the nothing-has-arrived
 * fallback through its epsilon-tolerant scan of the near-tie
 * component, including a chained band that extends past the first
 * epsilon window.
 */
Workload
subEpsilonArrivals()
{
    Workload wl("sub-eps-arrivals");
    dnn::Model a("A");
    a.addLayer(dnn::makeFullyConnected("f", 256, 256));
    a.addLayer(dnn::makeFullyConnected("g", 128, 256));
    dnn::Model b("B");
    b.addLayer(dnn::makeFullyConnected("f", 512, 128));
    dnn::Model c("C");
    c.addLayer(dnn::makeConv("c", 32, 16, 30, 30, 3, 3));
    wl.addModel(std::move(a), 2, /*arrival=*/100.0,
                /*deadline=*/6e6);
    wl.addModel(std::move(b), 1, /*arrival=*/100.0000005,
                /*deadline=*/4e6); // within kEps of 100.0
    wl.addModel(std::move(c), 1, /*arrival=*/100.0000012,
                /*deadline=*/5e6); // chains past the first window
    wl.addModel(dnn::mobileNetV2(), 1, /*arrival=*/3e7);
    return wl;
}

/**
 * Instance index is not arrival order: models are added latest-first,
 * so every base-order tie-break (FIFO, breadth-first rotation, the
 * equal-arrival band and the sub-epsilon near-tie scan) must follow
 * workload order, not the order frames reach the release cursor.
 */
Workload
reversedArrivals()
{
    Workload wl("reversed-arrivals");
    dnn::Model a("A");
    a.addLayer(dnn::makeFullyConnected("f", 256, 256));
    a.addLayer(dnn::makeFullyConnected("g", 128, 256));
    dnn::Model b("B");
    b.addLayer(dnn::makeFullyConnected("f", 512, 128));
    dnn::Model c("C");
    c.addLayer(dnn::makeConv("c", 32, 16, 30, 30, 3, 3));
    wl.addModel(dnn::mobileNetV2(), 1, /*arrival=*/3e7);
    // A sub-epsilon chain (c-b and b-a within kEps, c-a not) whose
    // ids run against arrival order, with EDF keys c < b < a: the
    // near-tie scan's winner depends on visiting it in id order.
    wl.addModel(c, 1, /*arrival=*/100.0000012, /*deadline=*/3e6);
    wl.addModel(b, 1, /*arrival=*/100.0000005, /*deadline=*/4e6);
    wl.addModel(a, 2, /*arrival=*/100.0, /*deadline=*/6e6);
    wl.addPeriodicModel(c, 3, /*period=*/2e5, /*deadline=*/1e6,
                        /*phase=*/1e6);
    wl.addPeriodicModel(a, 3, /*period=*/2e5, /*deadline=*/8e5,
                        /*phase=*/1e6); // ties with the stream above
    wl.addModel(b, 2, /*arrival=*/1e6); // same band, indexed last
    return wl;
}

struct NamedWorkload
{
    std::string name;
    Workload wl;
};

std::vector<NamedWorkload>
scenarios()
{
    std::vector<NamedWorkload> out;
    out.push_back({"mini-mixed", miniMixed()});
    out.push_back({"tiny-frames", tinyFramesFarApart()});
    out.push_back({"sub-eps", subEpsilonArrivals()});
    out.push_back({"reversed", reversedArrivals()});
    out.push_back({"arvrA", workload::arvrA()});
    out.push_back({"arvrA60fps", workload::arvrA60fps(3)});
    out.push_back({"mixedTenant", workload::mixedTenantScenario(2)});
    return out;
}

class SchedEquivalenceTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;

    void
    expectEquivalent(const Workload &wl, const Accelerator &acc,
                     const SchedulerOptions &opts,
                     const std::string &label)
    {
        HeraldScheduler scheduler(model, opts);
        Schedule fast = scheduler.schedule(wl, acc);
        Schedule ref = sched::referenceSchedule(model, opts, wl, acc);
        ASSERT_EQ(fast.entries().size(), ref.entries().size())
            << label;
        for (std::size_t i = 0; i < fast.entries().size(); ++i) {
            EXPECT_EQ(fast.entries()[i], ref.entries()[i])
                << label << " entry " << i;
        }
        EXPECT_TRUE(fast.identicalTo(ref)) << label;
        EXPECT_EQ(fast.validate(wl, acc), "") << label;
    }
};

TEST_F(SchedEquivalenceTest, AllScenariosAllPolicyCombinations)
{
    std::size_t deferred = 0;
    for (const Accelerator &acc :
         {edgeHda(), edgeHda(edgeWithBuffer(24))}) {
        for (const NamedWorkload &s : scenarios()) {
            for (auto policy :
                 {sched::Policy::Fifo, sched::Policy::Edf}) {
                for (auto ordering : {sched::Ordering::BreadthFirst,
                                      sched::Ordering::DepthFirst}) {
                    for (bool pp : {false, true}) {
                        SchedulerOptions opts;
                        opts.policy = policy;
                        opts.ordering = ordering;
                        opts.postProcess = pp;
                        std::string label =
                            accLabel(acc) + "/" + s.name + "/" +
                            sched::toString(policy) + "/" +
                            sched::toString(ordering) +
                            (pp ? "/pp" : "/nopp");
                        expectEquivalent(s.wl, acc, opts, label);
                        if (!pp)
                            deferred += bufferDeferrals(
                                HeraldScheduler(model, opts)
                                    .schedule(s.wl, acc),
                                s.wl);
                    }
                }
            }
        }
    }
    // The grid must bind the global buffer somewhere.
    EXPECT_GT(deferred, 0u);
}

TEST_F(SchedEquivalenceTest, PreemptionOffStaysPr4BitIdentical)
{
    // Acceptance criterion: Preemption::Off (explicitly spelled, not
    // just defaulted) must keep every equivalence-grid combination
    // bit-identical to the pre-preemption reference oracle — the
    // preemption machinery has to be completely inert when off.
    Accelerator acc = edgeHda();
    for (const NamedWorkload &s : scenarios()) {
        for (auto policy :
             {sched::Policy::Fifo, sched::Policy::Edf}) {
            for (bool pp : {false, true}) {
                SchedulerOptions opts;
                opts.policy = policy;
                opts.preemption = sched::Preemption::Off;
                opts.postProcess = pp;
                expectEquivalent(s.wl, acc, opts,
                                 s.name + "/preempt-off/" +
                                     sched::toString(policy) +
                                     (pp ? "/pp" : "/nopp"));
            }
        }
    }
}

TEST_F(SchedEquivalenceTest, FifoNeverPreempts)
{
    // FIFO's constant priority key can never mark an arrival as
    // strictly more urgent, so even with preemption points enabled
    // the production schedule must equal the (preemption-free)
    // reference oracle bit for bit.
    Accelerator acc = edgeHda();
    for (const NamedWorkload &s : scenarios()) {
        SchedulerOptions pre;
        pre.preemption = sched::Preemption::AtLayerBoundary;
        HeraldScheduler scheduler(model, pre);
        Schedule fast = scheduler.schedule(s.wl, acc);
        SchedulerOptions off; // reference rejects preemption opts
        Schedule ref =
            sched::referenceSchedule(model, off, s.wl, acc);
        EXPECT_TRUE(fast.identicalTo(ref)) << s.name;
    }
}

TEST_F(SchedEquivalenceTest, ThreeWayHdaWithContextChange)
{
    Accelerator acc = threeWayHda();
    SchedulerOptions opts;
    opts.contextChangeCycles = 1e4;
    expectEquivalent(miniMixed(), acc, opts, "3way/context");
    opts.policy = sched::Policy::Edf;
    expectEquivalent(workload::arvrA60fps(2), acc, opts,
                     "3way/context/EDF");
}

TEST_F(SchedEquivalenceTest, LoadBalanceVariantsStayIdentical)
{
    Accelerator acc = edgeHda();
    SchedulerOptions opts;
    opts.loadBalance = false;
    expectEquivalent(miniMixed(), acc, opts, "noLB");
    opts.loadBalance = true;
    opts.loadBalanceFactor = 1.2;
    opts.loadBalanceMaxDegradation = 8.0;
    expectEquivalent(miniMixed(), acc, opts, "tightLB");
}

TEST_F(SchedEquivalenceTest, AlternateMetricsStayIdentical)
{
    Accelerator acc = edgeHda();
    for (auto metric : {sched::Metric::Latency,
                        sched::Metric::Energy}) {
        SchedulerOptions opts;
        opts.metric = metric;
        expectEquivalent(miniMixed(), acc, opts,
                         std::string("metric/") +
                             sched::toString(metric));
    }
}

TEST_F(SchedEquivalenceTest, RdaFlexibleArrayStaysIdentical)
{
    Accelerator acc = Accelerator::makeRda(accel::edgeClass());
    SchedulerOptions opts;
    expectEquivalent(miniMixed(), acc, opts, "rda");
}

TEST_F(SchedEquivalenceTest, PrefillThreadCountIsIrrelevant)
{
    // The parallel table prefill must be bit-identical to the serial
    // one for any worker count (pure per-row fills). The workload
    // needs enough unique layers x sub-accs to cross the
    // kMinParallelEvals gate, or the pool never spins up.
    Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss, DataflowStyle::NVDLA},
        {256, 256, 256, 256}, {4.0, 4.0, 4.0, 4.0});
    Workload wl("zoo");
    wl.addModel(dnn::resnet50(), 1);
    wl.addModel(dnn::mobileNetV1(), 1);
    wl.addModel(dnn::mobileNetV2(), 1);
    wl.addModel(dnn::uNet(), 1);
    wl.addModel(dnn::ssdResnet34(), 1);
    wl.addModel(dnn::ssdMobileNetV1(), 1);
    wl.addModel(dnn::gnmt(), 1);
    wl.addModel(dnn::brqHandposeNet(), 1);
    wl.addModel(dnn::focalLengthDepthNet(), 1);
    ASSERT_GE(wl.totalLayers() * acc.numSubAccs(),
              sched::LayerCostTable::kMinParallelEvals)
        << "workload too small to engage the parallel prefill";

    SchedulerOptions serial_opts;
    serial_opts.prefillThreads = 1;
    SchedulerOptions parallel_opts = serial_opts;
    parallel_opts.prefillThreads = 7;
    Schedule a =
        HeraldScheduler(model, serial_opts).schedule(wl, acc);
    Schedule b =
        HeraldScheduler(model, parallel_opts).schedule(wl, acc);
    EXPECT_TRUE(a.identicalTo(b));
}

TEST_F(SchedEquivalenceTest, PrebuiltTableReuseMatchesInternalBuild)
{
    Accelerator acc = edgeHda();
    Workload wl = workload::arvrA60fps(2);
    SchedulerOptions opts;
    opts.policy = sched::Policy::Edf;
    HeraldScheduler scheduler(model, opts);
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, opts.metric, opts.rdaOverheads, 1);
    EXPECT_EQ(table.numSubAccs(), acc.numSubAccs());
    EXPECT_GT(table.numUniqueLayers(), 0u);
    Schedule internal = scheduler.schedule(wl, acc);
    Schedule reused = scheduler.schedule(wl, acc, table);
    Schedule reused_again = scheduler.schedule(wl, acc, table);
    EXPECT_TRUE(internal.identicalTo(reused));
    EXPECT_TRUE(internal.identicalTo(reused_again));
}

TEST_F(SchedEquivalenceTest, PostProcessMatchesRestartFromZeroOracle)
{
    // The production gap-fill resumes its scan a look-ahead window
    // before the last move; the frozen oracle restarts at position 0
    // after every move. Both must take the same moves in the same
    // order, so post-processing a dispatch-only schedule with the
    // oracle must equal the production schedule bit for bit.
    const Workload wl = workload::faultedFactory(64);
    sched::ReconfigOptions elastic;
    elastic.policy = sched::Reconfig::BacklogSkew;
    elastic.skewThresholdCycles = 3e7;
    elastic.migrationQuantumPes = 128;
    elastic.drainCycles = 5e4;
    elastic.perPeRewireCycles = 100.0;
    elastic.cooldownCycles = 1e6;

    std::size_t improved = 0, killed = 0, reconfigured = 0;
    std::size_t deferred = 0;
    // The binding buffer is 40 KiB on the 3-way HDA: at 24 KiB on
    // the 2-way one, elastic migrations grow a factory layer's
    // smallest staging tile past the whole buffer, which the cost
    // table rejects.
    for (const Accelerator &acc : {edgeHda(), threeWayHda(),
                                   threeWayHda(edgeWithBuffer(40))}) {
        const double horizon =
            HeraldScheduler(model).schedule(wl, acc).makespanCycles();
        const std::pair<const char *, sched::FaultTimeline>
            timelines[] = {
                {"none", sched::FaultTimeline{}},
                {"random", sched::FaultTimeline::random(
                               7, acc.numSubAccs(), horizon)},
                {"factory", sched::factoryFaultTimeline(
                                acc.numSubAccs(), 1, horizon)}};
        for (const auto &[fault_name, faults] : timelines) {
            for (auto policy : {sched::Policy::Fifo,
                                sched::Policy::Edf,
                                sched::Policy::Lst}) {
                for (int la : {1, 4, 9}) {
                    for (double ctx : {0.0, 5000.0}) {
                        for (bool reconfig : {false, true}) {
                            SchedulerOptions on;
                            on.policy = policy;
                            on.lookaheadDepth = la;
                            on.contextChangeCycles = ctx;
                            on.faults = faults;
                            if (reconfig)
                                on.reconfig = elastic;
                            SchedulerOptions off = on;
                            off.postProcess = false;
                            const std::string label =
                                accLabel(acc) + "/" + fault_name + "/" +
                                sched::toString(policy) + "/la" +
                                std::to_string(la) + "/ctx" +
                                std::to_string(static_cast<int>(ctx)) +
                                (reconfig ? "/elastic" : "/static");

                            const Schedule dispatched =
                                HeraldScheduler(model, off)
                                    .schedule(wl, acc);
                            Schedule expected = dispatched;
                            sched::referencePostProcessIdleTime(
                                expected, wl, acc, on);
                            const Schedule actual =
                                HeraldScheduler(model, on)
                                    .schedule(wl, acc);
                            ASSERT_TRUE(actual.identicalTo(expected))
                                << label;
                            EXPECT_EQ(actual.validate(
                                          wl, acc,
                                          faults.empty() ? nullptr
                                                         : &faults),
                                      "")
                                << label;

                            if (faults.empty() && !reconfig)
                                deferred +=
                                    bufferDeferrals(dispatched, wl);
                            improved +=
                                !actual.identicalTo(dispatched);
                            reconfigured +=
                                !actual.reconfigEvents().empty();
                            killed += std::any_of(
                                actual.entries().begin(),
                                actual.entries().end(),
                                [](const sched::ScheduledLayer &e) {
                                    return e.faultKilled;
                                });
                        }
                    }
                }
            }
        }
    }
    // The grid must exercise what it claims to: moves, fault kills
    // (pinned entries), reconfiguration windows and a global buffer
    // that binds.
    EXPECT_GT(improved, 0u);
    EXPECT_GT(killed, 0u);
    EXPECT_GT(reconfigured, 0u);
    EXPECT_GT(deferred, 0u);
}

TEST_F(SchedEquivalenceTest, BufferLanesProveSlackOnlyWhereItHolds)
{
    // The DSE's setting, AR/VR-A on the 3-way edge HDA at its full
    // buffer: the lanes prove the largest footprint fits next to
    // every other lane's largest, so neither dispatch nor
    // post-processing scans occupancy.
    const Workload arvr = workload::arvrA();
    const Accelerator full = threeWayHda();
    SchedulerOptions off;
    off.postProcess = false;
    EXPECT_TRUE(largestFootprintCannotBind(
        HeraldScheduler(model, off).schedule(arvr, full), full));
    EXPECT_TRUE(largestFootprintCannotBind(
        HeraldScheduler(model).schedule(arvr, full), full));

    // The binding 40 KiB 3-way HDA of the post-processing oracle
    // test: the proof fails, and every lane query scans.
    const Workload factory = workload::faultedFactory(64);
    const Accelerator small = threeWayHda(edgeWithBuffer(40));
    EXPECT_FALSE(largestFootprintCannotBind(
        HeraldScheduler(model, off).schedule(factory, small), small));
}

TEST_F(SchedEquivalenceTest, TableOrderMatchesMetricSort)
{
    Accelerator acc = threeWayHda();
    Workload wl = miniMixed();
    sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, sched::Metric::Edp, accel::RdaOverheads{},
        1);
    for (std::size_t row = 0; row < table.numUniqueLayers(); ++row) {
        const std::size_t *order = table.order(row);
        for (std::size_t k = 1; k < table.numSubAccs(); ++k) {
            EXPECT_LE(table.metric(row, order[k - 1]),
                      table.metric(row, order[k]))
                << "row " << row;
        }
    }
}

} // namespace
