/**
 * @file
 * Elastic repartitioning tests: option-validation rejection of
 * contradictory knob combinations, Reconfig::Off bit-identity to the
 * frozen-partition scheduler across the policy x drop x preemption x
 * fault grid (offline and online), online/offline bit-identity of
 * the BacklogSkew policy, determinism across reruns and prefill
 * thread counts, reconfiguration-event consistency (windows, epochs,
 * PE conservation, modeled penalty), the elastic-beats-static
 * guarantee on the shifting-load scenario, timeline rendering of
 * reconfiguration windows (including mixed with fault overlays), and
 * the epoch cost-table rebuild's bit-identity to a fresh build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/arrival_source.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "sched/reconfig.hh"
#include "sched/reference_scheduler.hh"
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
using sched::Policy;
using sched::Preemption;
using sched::Reconfig;
using sched::ReconfigEvent;
using sched::ReconfigOptions;
using sched::Schedule;
using sched::SchedulerOptions;
using workload::Workload;

class RepartitionTest : public ::testing::Test
{
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

    /**
     * Two streams whose load is front-loaded on one dataflow: the
     * dense conv stream backlogs its preferred sub-accelerator while
     * the other idles, which is exactly the frontier skew the
     * BacklogSkew policy migrates against.
     */
    ArrivalSource
    skewedSource()
    {
        ArrivalSource src;
        src.addStream(convNet(), 5e5, 4e6, 0.0, 10);
        src.addStream(fcNet(), 8e6, 9e6, 2e6, 3);
        return src;
    }

    /** A BacklogSkew policy tuned to fire on the mini scenario. */
    ReconfigOptions
    miniElastic()
    {
        ReconfigOptions r;
        r.policy = Reconfig::BacklogSkew;
        r.skewThresholdCycles = 1e6;
        r.migrationQuantumPes = 64;
        r.drainCycles = 1e4;
        r.perPeRewireCycles = 10.0;
        r.cooldownCycles = 1e5;
        return r;
    }

    /** Outage + throttle timeline sized for the mini HDA. */
    FaultTimeline
    miniFaults()
    {
        FaultTimeline tl(2);
        tl.addOutage(0, 2e6, 1e6);
        tl.addThrottle(1, 1e6, 4e6, 2.0);
        return tl;
    }

    cost::CostModel model;
};

// ---------------------------------------------------------------
// Epoch cost-table rebuild
// ---------------------------------------------------------------

/** Bit-for-bit equality of every entry and derived quantity. */
void
expectSameTable(const sched::LayerCostTable &want,
                const sched::LayerCostTable &got, const Workload &wl)
{
    ASSERT_EQ(want.numUniqueLayers(), got.numUniqueLayers());
    ASSERT_EQ(want.numSubAccs(), got.numSubAccs());
    for (std::size_t row = 0; row < want.numUniqueLayers(); ++row) {
        EXPECT_EQ(want.minCycles(row), got.minCycles(row)) << row;
        for (std::size_t a = 0; a < want.numSubAccs(); ++a) {
            EXPECT_EQ(want.cost(row, a).style, got.cost(row, a).style);
            // LayerCost is all 8-byte scalars: no padding to compare.
            EXPECT_EQ(std::memcmp(&want.cost(row, a).cost,
                                  &got.cost(row, a).cost,
                                  sizeof(cost::LayerCost)),
                      0)
                << row << "," << a;
            EXPECT_EQ(want.metric(row, a), got.metric(row, a));
            EXPECT_EQ(want.order(row)[a], got.order(row)[a]);
        }
    }
    for (std::size_t uid = 0; uid < wl.numUniqueModels(); ++uid) {
        const std::size_t n = wl.uniqueModel(uid).numLayers();
        for (std::size_t l = 0; l <= n; ++l) {
            EXPECT_EQ(want.remainingCycles(uid, l),
                      got.remainingCycles(uid, l))
                << uid << "," << l;
        }
    }
}

TEST_F(RepartitionTest, EpochRebuildEqualsFreshBuild)
{
    // Two models, 600 distinct rows: a two-column rebuild reaches the
    // threaded fill's gate.
    dnn::Model convs("WideConv");
    for (std::uint64_t i = 0; i < 320; ++i) {
        const std::uint64_t hw = 14 + i % 20;
        convs.addLayer(dnn::makeConv("c" + std::to_string(i),
                                     16 + 8 * (i % 16), 8 + 8 * (i % 5),
                                     hw, hw, 3, 3));
    }
    dnn::Model fcs("WideFc");
    for (std::uint64_t i = 0; i < 280; ++i) {
        fcs.addLayer(dnn::makeFullyConnected("f" + std::to_string(i),
                                             64 + 16 * i, 256));
    }
    Workload wl("wide");
    wl.addModel(convs, 1);
    wl.addModel(fcs, 2);

    const Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {256, 512, 256}, {4.0, 8.0, 4.0});
    sched::ReconfigDecision move;
    move.migrate = true;
    move.donor = 2;
    move.receiver = 0;
    move.movedPes = 128;
    const Accelerator moved =
        acc.withPartition(sched::planMigrationEpoch(acc, move, 1));
    const sched::Metric metric = sched::Metric::Edp;
    const accel::RdaOverheads rda{};
    const sched::LayerCostTable fresh =
        sched::LayerCostTable::build(model, wl, moved, metric, rda);
    ASSERT_GE(fresh.numUniqueLayers() * 2,
              sched::LayerCostTable::kMinParallelEvals);

    const std::vector<std::vector<std::size_t>> column_sets = {
        {0, 2}, {0, 1, 2}};
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::vector<std::size_t> &columns : column_sets) {
            SCOPED_TRACE(testing::Message()
                         << threads << " threads, " << columns.size()
                         << " columns");
            sched::LayerCostTable table = sched::LayerCostTable::build(
                model, wl, acc, metric, rda, threads);
            table.rebuildColumns(model, wl, moved, metric, rda,
                                 columns, threads);
            expectSameTable(fresh, table, wl);
        }
    }

    // The degraded view with nothing masked, as constructed and as
    // rebuilt, reads exactly the table's bounds.
    sched::LayerCostTable::DegradedView view(fresh, {0, 0, 0});
    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1)
            view.rebuild({0, 0, 0});
        for (std::size_t uid = 0; uid < wl.numUniqueModels(); ++uid) {
            const std::size_t n = wl.uniqueModel(uid).numLayers();
            for (std::size_t l = 0; l <= n; ++l) {
                EXPECT_EQ(view.remainingCycles(uid, l),
                          fresh.remainingCycles(uid, l))
                    << pass << ":" << uid << "," << l;
                if (l < n) {
                    const std::size_t row = fresh.rowOf(uid, l);
                    EXPECT_EQ(view.minCycles(row),
                              fresh.minCycles(row));
                }
            }
        }
    }
}

TEST_F(RepartitionTest, EpochRebuildOfChangedColumnsEqualsFreshBuild)
{
    // The first migration materializes the buffer split, which hands
    // the remainder byte of the 3-way edge buffer to sub-accelerator
    // 0: a move between 1 and 2 changes column 0 too, and the rebuilt
    // epoch table must still equal a fresh build.
    const Workload wl = workload::arvrB();
    const Accelerator acc = Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
         DataflowStyle::Eyeriss},
        {256, 512, 256}, {4.0, 8.0, 4.0});
    ASSERT_NE(acc.globalBufferBytes() % 3, 0u);
    const sched::Metric metric = sched::Metric::Edp;
    const accel::RdaOverheads rda{};
    const sched::LayerCostTable base =
        sched::LayerCostTable::build(model, wl, acc, metric, rda);
    for (std::size_t donor = 0; donor < 3; ++donor) {
        for (std::size_t receiver = 0; receiver < 3; ++receiver) {
            if (donor == receiver)
                continue;
            SCOPED_TRACE(testing::Message()
                         << donor << " -> " << receiver);
            sched::ReconfigDecision move;
            move.migrate = true;
            move.donor = donor;
            move.receiver = receiver;
            move.movedPes = 128;
            const Accelerator moved = acc.withPartition(
                sched::planMigrationEpoch(acc, move, 1));
            const std::vector<std::size_t> changed =
                sched::resourceChanges(acc, moved);
            std::vector<std::size_t> want = {donor, receiver};
            if (donor != 0 && receiver != 0)
                want.push_back(0);
            std::sort(want.begin(), want.end());
            EXPECT_EQ(changed, want);

            sched::LayerCostTable table = base;
            table.rebuildColumns(model, wl, moved, metric, rda, changed);
            expectSameTable(
                sched::LayerCostTable::build(model, wl, moved, metric,
                                             rda),
                table, wl);
        }
    }
}

// ---------------------------------------------------------------
// Option validation (satellite: contradictory combos rejected)
// ---------------------------------------------------------------

TEST_F(RepartitionTest, ValidationRejectsContradictoryKnobs)
{
    const Accelerator acc = miniHda();
    auto expect_rejected = [&](const ReconfigOptions &r) {
        SchedulerOptions opts;
        opts.reconfig = r;
        EXPECT_THROW(HeraldScheduler(model, opts),
                     std::runtime_error);
    };

    // An enabled policy with a zero migration quantum would plan
    // outages that migrate nothing.
    {
        ReconfigOptions r = miniElastic();
        r.migrationQuantumPes = 0;
        expect_rejected(r);
    }
    // Non-positive or non-finite skew thresholds can never fire (or
    // fire always).
    for (double bad : {0.0, -1.0, std::nan("")}) {
        ReconfigOptions r = miniElastic();
        r.skewThresholdCycles = bad;
        expect_rejected(r);
    }
    // Negative / non-finite penalty and cooldown knobs are rejected
    // even with the policy Off — they are nonsense, not tuning.
    {
        ReconfigOptions r;
        r.drainCycles = -1.0;
        expect_rejected(r);
    }
    {
        ReconfigOptions r;
        r.perPeRewireCycles = std::nan("");
        expect_rejected(r);
    }
    {
        ReconfigOptions r;
        r.cooldownCycles = -5.0;
        expect_rejected(r);
    }
    // The tuned policy itself is accepted.
    SchedulerOptions ok;
    ok.reconfig = miniElastic();
    EXPECT_NO_THROW(HeraldScheduler(model, ok));
}

TEST_F(RepartitionTest, OnlineRequiresRetainedSchedule)
{
    const Accelerator acc = miniHda();
    const std::vector<dnn::Model> models = {convNet()};
    // Migration re-keys live history; the online engine forbids
    // pairing it with the retire-as-you-go mode.
    OnlineOptions o;
    o.sched.postProcess = false;
    o.sched.reconfig = miniElastic();
    o.retainSchedule = false;
    EXPECT_THROW(OnlineScheduler(model, models, acc, o),
                 std::runtime_error);
    o.retainSchedule = true;
    EXPECT_NO_THROW(OnlineScheduler(model, models, acc, o));
}

TEST_F(RepartitionTest, ReferenceOracleRejectsElastic)
{
    const Accelerator acc = miniHda();
    Workload wl("ref");
    wl.addModel(convNet(), 1);
    SchedulerOptions opts;
    opts.reconfig = miniElastic();
    EXPECT_THROW(referenceSchedule(model, opts, wl, acc),
                 std::logic_error);
}

// ---------------------------------------------------------------
// Reconfig::Off bit-identity (the tentpole's non-regression bar)
// ---------------------------------------------------------------

TEST_F(RepartitionTest, OffBitIdenticalAcrossGrid)
{
    const Accelerator acc = miniHda();
    const Workload wl = skewedSource().materialize("off-grid");
    for (auto policy : {Policy::Fifo, Policy::Edf, Policy::Lst}) {
        for (auto drop : {DropPolicy::None,
                          DropPolicy::HopelessFrames,
                          DropPolicy::DoomedFrames}) {
            for (auto preempt :
                 {Preemption::Off, Preemption::AtLayerBoundary}) {
                for (bool with_faults : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << sched::toString(policy) << "/"
                                 << sched::toString(drop) << "/"
                                 << sched::toString(preempt)
                                 << " faults " << with_faults);
                    SchedulerOptions base;
                    base.policy = policy;
                    base.dropPolicy = drop;
                    base.preemption = preempt;
                    if (with_faults)
                        base.faults = miniFaults();
                    const Schedule plain =
                        HeraldScheduler(model, base).schedule(wl,
                                                              acc);

                    // Off with arbitrary (valid) knob values must be
                    // byte-for-byte today's scheduler — the knobs
                    // are dead state until a policy enables them.
                    SchedulerOptions off = base;
                    off.reconfig.policy = Reconfig::Off;
                    off.reconfig.skewThresholdCycles = 123.0;
                    off.reconfig.migrationQuantumPes = 64;
                    off.reconfig.drainCycles = 7.0;
                    off.reconfig.perPeRewireCycles = 3.0;
                    off.reconfig.cooldownCycles = 11.0;
                    const Schedule with_off =
                        HeraldScheduler(model, off).schedule(wl, acc);
                    EXPECT_TRUE(with_off.identicalTo(plain));
                    EXPECT_TRUE(with_off.reconfigEvents().empty());
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Elastic online == offline, bit for bit
// ---------------------------------------------------------------

TEST_F(RepartitionTest, ElasticOnlineMatchesOffline)
{
    const Accelerator acc = miniHda();
    std::size_t total_migrations = 0;
    for (auto policy : {Policy::Fifo, Policy::Edf, Policy::Lst}) {
        for (auto drop : {DropPolicy::None,
                          DropPolicy::HopelessFrames,
                          DropPolicy::DoomedFrames}) {
            for (bool with_faults : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << sched::toString(policy) << "/"
                             << sched::toString(drop) << " faults "
                             << with_faults);
                SchedulerOptions sopts;
                sopts.policy = policy;
                sopts.dropPolicy = drop;
                sopts.postProcess = false;
                sopts.reconfig = miniElastic();
                if (with_faults)
                    sopts.faults = miniFaults();

                ArrivalSource src = skewedSource();
                const Workload wl =
                    src.materialize("elastic-oracle");
                const Schedule offline =
                    HeraldScheduler(model, sopts).schedule(wl, acc);

                OnlineOptions oopts;
                oopts.sched = sopts;
                oopts.retainSchedule = true;
                oopts.maintenancePeriod = 4;
                OnlineScheduler eng(model, src.models(), acc,
                                    oopts);
                src.reset();
                while (!src.exhausted()) {
                    const ArrivalSource::Frame f = src.next();
                    eng.submit(f.streamIdx, f.arrivalCycle,
                               f.deadlineCycle);
                }
                eng.drain();
                const Schedule &online = eng.schedule();

                ASSERT_EQ(online.entries().size(),
                          offline.entries().size());
                EXPECT_TRUE(online.identicalTo(offline));
                ASSERT_EQ(online.reconfigEvents().size(),
                          offline.reconfigEvents().size());
                for (std::size_t i = 0;
                     i < online.reconfigEvents().size(); ++i) {
                    EXPECT_TRUE(online.reconfigEvents()[i] ==
                                offline.reconfigEvents()[i]);
                }
                total_migrations += offline.reconfigEvents().size();
            }
        }
    }
    // The grid must actually exercise migration, not vacuously pass.
    EXPECT_GT(total_migrations, 0u);
}

// ---------------------------------------------------------------
// Determinism of a fixed elastic policy
// ---------------------------------------------------------------

TEST_F(RepartitionTest, ElasticDeterministicAcrossRerunsAndThreads)
{
    const Accelerator acc = miniHda();
    const Workload wl = skewedSource().materialize("det");
    SchedulerOptions opts;
    opts.policy = Policy::Edf;
    opts.reconfig = miniElastic();

    opts.prefillThreads = 1;
    const Schedule serial =
        HeraldScheduler(model, opts).schedule(wl, acc);
    ASSERT_FALSE(serial.reconfigEvents().empty());

    // Rerun: bit-identical, including the migration windows.
    const Schedule rerun =
        HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_TRUE(rerun.identicalTo(serial));

    // Parallel prefill (both the initial table build and the
    // post-migration column rebuilds): still bit-identical.
    opts.prefillThreads = 0;
    const Schedule parallel =
        HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_TRUE(parallel.identicalTo(serial));
}

// ---------------------------------------------------------------
// Reconfiguration-event consistency
// ---------------------------------------------------------------

TEST_F(RepartitionTest, ReconfigEventsAreConsistent)
{
    const Accelerator acc = miniHda();
    const Workload wl = skewedSource().materialize("events");
    SchedulerOptions opts;
    opts.policy = Policy::Edf;
    opts.reconfig = miniElastic();
    const Schedule s =
        HeraldScheduler(model, opts).schedule(wl, acc);

    // validate() enforces that no entry on the donor or receiver
    // overlaps a reconfiguration window — with post-processing on,
    // so the idle-time passes respected the windows too.
    EXPECT_EQ(s.validate(wl, acc), "");

    const std::vector<ReconfigEvent> &events = s.reconfigEvents();
    ASSERT_FALSE(events.empty());
    const std::uint64_t total_pes = acc.chip().numPes;
    std::uint64_t prev_epoch = acc.partitionEpochId();
    double prev_start = 0.0;
    for (const ReconfigEvent &ev : events) {
        // Epoch ids increase monotonically from the base epoch.
        EXPECT_GT(ev.epochId, prev_epoch);
        prev_epoch = ev.epochId;
        // A migration moves work between two distinct parties.
        EXPECT_NE(ev.donor, ev.receiver);
        EXPECT_GT(ev.movedPes, 0u);
        // The window is exactly the modeled drain + rewire penalty.
        EXPECT_DOUBLE_EQ(ev.endCycle - ev.startCycle,
                         opts.reconfig.penaltyCycles(ev.movedPes));
        // Windows are committed in nondecreasing order.
        EXPECT_GE(ev.startCycle, prev_start);
        prev_start = ev.startCycle;
        // PEs are conserved and every sub-accelerator keeps >= 1.
        ASSERT_EQ(ev.peSplit.size(), acc.numSubAccs());
        std::uint64_t sum = 0;
        for (std::uint64_t pes : ev.peSplit) {
            EXPECT_GE(pes, 1u);
            sum += pes;
        }
        EXPECT_EQ(sum, total_pes);
    }
}

// ---------------------------------------------------------------
// Elastic strictly beats the best static split when load shifts
// ---------------------------------------------------------------

TEST_F(RepartitionTest, ElasticBeatsStaticOnShiftingLoad)
{
    // The bench asserts the full grid; here one NVDLA-heavy starting
    // split demonstrates the win end-to-end under ctest.
    accel::AcceleratorClass chip = accel::edgeClass();
    const double bw0 =
        chip.bwGBps * 640.0 / static_cast<double>(chip.numPes);
    const Accelerator acc = Accelerator::makeHda(
        chip,
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {640, 384}, {bw0, chip.bwGBps - bw0});
    const Workload wl = workload::shiftingLoadFactory(8);

    SchedulerOptions opts;
    opts.policy = Policy::Edf;
    const sched::SlaStats fixed =
        HeraldScheduler(model, opts)
            .schedule(wl, acc)
            .computeSla(wl);

    opts.reconfig.policy = Reconfig::BacklogSkew;
    opts.reconfig.skewThresholdCycles = 3e7;
    opts.reconfig.migrationQuantumPes = 128;
    opts.reconfig.drainCycles = 5e4;
    opts.reconfig.perPeRewireCycles = 100.0;
    opts.reconfig.cooldownCycles = 1e6;
    const Schedule elastic =
        HeraldScheduler(model, opts).schedule(wl, acc);
    EXPECT_EQ(elastic.validate(wl, acc), "");
    const sched::SlaStats moved = elastic.computeSla(wl);

    EXPECT_FALSE(elastic.reconfigEvents().empty());
    EXPECT_GT(fixed.deadlineMisses, 0u);
    EXPECT_LT(moved.deadlineMisses, fixed.deadlineMisses);
}

// ---------------------------------------------------------------
// Timeline rendering (satellite: 'R' windows + epoch header)
// ---------------------------------------------------------------

TEST_F(RepartitionTest, TimelineRendersReconfigWindows)
{
    const Accelerator acc = miniHda();
    const Workload wl = skewedSource().materialize("render");
    SchedulerOptions opts;
    opts.policy = Policy::Edf;
    opts.reconfig = miniElastic();
    const Schedule s =
        HeraldScheduler(model, opts).schedule(wl, acc);
    ASSERT_FALSE(s.reconfigEvents().empty());

    const std::string timeline = s.renderTimeline(wl);
    // Per-epoch capacity header, one line per epoch in force.
    EXPECT_NE(timeline.find("epoch "), std::string::npos);
    // The legend names the reconfiguration glyph.
    EXPECT_NE(timeline.find("'R', reconfiguration"),
              std::string::npos);

    // Glyph rendering proper, on a hand-built schedule whose window
    // is wide enough to span cells: both parties show 'R' for the
    // outage, the bystander row stays clear.
    Workload one("one");
    dnn::Model m("One");
    m.addLayer(dnn::makeFullyConnected("f", 16, 16));
    one.addModel(m, 1);
    Schedule manual(2);
    sched::ScheduledLayer e;
    e.endCycle = 300.0;
    manual.add(e);
    ReconfigEvent ev;
    ev.epochId = 1;
    ev.donor = 0;
    ev.receiver = 1;
    ev.movedPes = 64;
    ev.startCycle = 300.0;
    ev.endCycle = 600.0;
    ev.peSplit = {448, 576};
    manual.addReconfig(ev);
    // The post-migration execution extends the makespan past the
    // window (renderTimeline spans the busy entries).
    sched::ScheduledLayer after;
    after.accIdx = 1;
    after.startCycle = 600.0;
    after.endCycle = 1000.0;
    manual.add(after);
    const std::string rows = manual.renderTimeline(one, 60);
    const std::size_t acc0 = rows.find("acc0");
    const std::size_t acc1 = rows.find("acc1");
    ASSERT_NE(acc0, std::string::npos);
    ASSERT_NE(acc1, std::string::npos);
    const std::string row0 = rows.substr(acc0, acc1 - acc0);
    const std::string row1 =
        rows.substr(acc1, rows.find('\n', acc1) - acc1);
    EXPECT_NE(row0.find('R'), std::string::npos);
    EXPECT_NE(row1.find('R'), std::string::npos);
}

TEST_F(RepartitionTest, TimelineRendersMixedFaultAndReconfig)
{
    const Accelerator acc = miniHda();
    const Workload wl = skewedSource().materialize("render-mixed");
    SchedulerOptions opts;
    opts.policy = Policy::Edf;
    opts.reconfig = miniElastic();
    FaultTimeline faults = miniFaults();
    opts.faults = faults;
    const Schedule s =
        HeraldScheduler(model, opts).schedule(wl, acc);
    ASSERT_FALSE(s.reconfigEvents().empty());
    EXPECT_EQ(s.validate(wl, acc, &faults), "");

    // Both overlays in one render: fault outages as 'x',
    // reconfiguration windows as the distinct 'R'.
    const std::string timeline =
        s.renderTimeline(wl, &faults, 72);
    EXPECT_NE(timeline.find('x'), std::string::npos);
    EXPECT_NE(timeline.find('R'), std::string::npos);
    EXPECT_NE(timeline.find("epoch "), std::string::npos);
}

} // namespace
