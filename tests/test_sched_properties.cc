/**
 * @file
 * Parameterized scheduler properties: for every combination of
 * workload mix, accelerator family and scheduler option set, the
 * produced schedule must validate (completeness, dependences,
 * non-overlap, memory) and satisfy basic sanity invariants. This is
 * the harness that catches post-processing regressions (overlaps,
 * dependence inversions) across the whole configuration space.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/fault_model.hh"
#include "sched/herald_scheduler.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using accel::Accelerator;
using dataflow::DataflowStyle;
using sched::SchedulerOptions;
using workload::Workload;

enum class WorkloadKind
{
    SingleModel,
    TwoModels,
    BatchedMix,
    FcHeavy,
    Periodic,
};

const char *
name(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::SingleModel:
        return "single";
      case WorkloadKind::TwoModels:
        return "two";
      case WorkloadKind::BatchedMix:
        return "batched";
      case WorkloadKind::FcHeavy:
        return "fcheavy";
      case WorkloadKind::Periodic:
        return "periodic";
    }
    return "?";
}

Workload
makeWorkload(WorkloadKind kind)
{
    Workload wl(name(kind));
    switch (kind) {
      case WorkloadKind::SingleModel:
        wl.addModel(dnn::mobileNetV2(), 1);
        break;
      case WorkloadKind::TwoModels:
        wl.addModel(dnn::mobileNetV2(), 1);
        wl.addModel(dnn::brqHandposeNet(), 1);
        break;
      case WorkloadKind::BatchedMix:
        wl.addModel(dnn::mobileNetV1(), 2);
        wl.addModel(dnn::brqHandposeNet(), 3);
        break;
      case WorkloadKind::FcHeavy:
        wl.addModel(dnn::brqHandposeNet(), 2);
        wl.addModel(dnn::gnmt(8), 1);
        break;
      case WorkloadKind::Periodic:
        // Staggered frame streams with deadlines: exercises the
        // arrival-aware scheduling and post-processing paths.
        wl.addPeriodicModel(dnn::mobileNetV2(), 3, 5e6);
        wl.addPeriodicModel(dnn::brqHandposeNet(), 2, 8e6, 4e6);
        wl.addModel(dnn::mobileNetV1(), 1, 2e6);
        break;
    }
    return wl;
}

enum class AccKind
{
    Fda,
    SmFda,
    Rda,
    Hda2,
    Hda3,
};

const char *
name(AccKind kind)
{
    switch (kind) {
      case AccKind::Fda:
        return "fda";
      case AccKind::SmFda:
        return "smfda";
      case AccKind::Rda:
        return "rda";
      case AccKind::Hda2:
        return "hda2";
      case AccKind::Hda3:
        return "hda3";
    }
    return "?";
}

Accelerator
makeAccelerator(AccKind kind)
{
    accel::AcceleratorClass chip = accel::edgeClass();
    switch (kind) {
      case AccKind::Fda:
        return Accelerator::makeFda(chip, DataflowStyle::NVDLA);
      case AccKind::SmFda:
        return Accelerator::makeScaledOutFda(
            chip, DataflowStyle::ShiDiannao, 2);
      case AccKind::Rda:
        return Accelerator::makeRda(chip);
      case AccKind::Hda2:
        return Accelerator::makeHda(
            chip, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
            {256, 768}, {4.0, 12.0});
      case AccKind::Hda3:
        return Accelerator::makeHda(
            chip,
            {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
             DataflowStyle::Eyeriss},
            {256, 512, 256}, {4.0, 8.0, 4.0});
    }
    util::panic("unknown AccKind");
}

enum class OptKind
{
    Default,
    Greedy,
    DepthFirst,
    TightBalance,
    LatencyMetric,
    ContextPenalty,
    DeadlineAware,
    LeastSlack,
    LeastSlackDrop,
    Preempt,
    PreemptDoom,
    Hysteresis,
};

const char *
name(OptKind kind)
{
    switch (kind) {
      case OptKind::Default:
        return "default";
      case OptKind::Greedy:
        return "greedy";
      case OptKind::DepthFirst:
        return "depthfirst";
      case OptKind::TightBalance:
        return "tightlb";
      case OptKind::LatencyMetric:
        return "latmetric";
      case OptKind::ContextPenalty:
        return "ctxpenalty";
      case OptKind::DeadlineAware:
        return "edf";
      case OptKind::LeastSlack:
        return "lst";
      case OptKind::LeastSlackDrop:
        return "lstdrop";
      case OptKind::Preempt:
        return "preempt";
      case OptKind::PreemptDoom:
        return "preemptdoom";
      case OptKind::Hysteresis:
        return "hysteresis";
    }
    return "?";
}

SchedulerOptions
makeOptions(OptKind kind)
{
    SchedulerOptions opts;
    switch (kind) {
      case OptKind::Default:
        break;
      case OptKind::Greedy:
        opts.loadBalance = false;
        opts.postProcess = false;
        break;
      case OptKind::DepthFirst:
        opts.ordering = sched::Ordering::DepthFirst;
        break;
      case OptKind::TightBalance:
        opts.loadBalanceFactor = 1.2;
        opts.loadBalanceMaxDegradation = 16.0;
        break;
      case OptKind::LatencyMetric:
        opts.metric = sched::Metric::Latency;
        break;
      case OptKind::ContextPenalty:
        opts.contextChangeCycles = 10000.0;
        break;
      case OptKind::DeadlineAware:
        opts.policy = sched::Policy::Edf;
        break;
      case OptKind::LeastSlack:
        opts.policy = sched::Policy::Lst;
        break;
      case OptKind::LeastSlackDrop:
        opts.policy = sched::Policy::Lst;
        opts.dropPolicy = sched::DropPolicy::HopelessFrames;
        break;
      case OptKind::Preempt:
        opts.policy = sched::Policy::Lst;
        opts.preemption = sched::Preemption::AtLayerBoundary;
        break;
      case OptKind::PreemptDoom:
        opts.policy = sched::Policy::Lst;
        opts.preemption = sched::Preemption::AtLayerBoundary;
        opts.dropPolicy = sched::DropPolicy::DoomedFrames;
        break;
      case OptKind::Hysteresis:
        opts.policy = sched::Policy::Lst;
        opts.lstHysteresisCycles = 5e5;
        opts.contextChangeCycles = 10000.0;
        break;
    }
    return opts;
}

using SchedParam = std::tuple<WorkloadKind, AccKind, OptKind>;

class SchedProperty : public ::testing::TestWithParam<SchedParam>
{
  protected:
    void SetUp() override { util::setVerbose(false); }
};

TEST_P(SchedProperty, ScheduleIsValidAndSane)
{
    auto [wl_kind, acc_kind, opt_kind] = GetParam();
    Workload wl = makeWorkload(wl_kind);
    Accelerator acc = makeAccelerator(acc_kind);
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model, makeOptions(opt_kind));

    sched::Schedule s = scheduler.schedule(wl, acc);

    // The full validator: completeness, dependences, non-overlap,
    // global-buffer occupancy.
    EXPECT_EQ(s.validate(wl, acc), "");

    // Sanity invariants.
    sched::ScheduleSummary sum =
        s.finalize(acc, model.energyModel());
    EXPECT_GT(sum.makespanCycles, 0.0);
    EXPECT_GT(sum.energyUnits, 0.0);
    double busy_total = 0.0;
    for (double b : sum.busyCycles) {
        EXPECT_LE(b, sum.makespanCycles + 1e-6);
        busy_total += b;
    }
    EXPECT_GT(busy_total, 0.0);
    // Peak occupancy is within the global buffer (also checked by
    // the validator's sweep; this exercises the public accessor).
    EXPECT_LE(s.peakOccupancyBytes(), acc.globalBufferBytes());
}

TEST_P(SchedProperty, DeterministicAcrossRuns)
{
    auto [wl_kind, acc_kind, opt_kind] = GetParam();
    Workload wl = makeWorkload(wl_kind);
    Accelerator acc = makeAccelerator(acc_kind);
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model, makeOptions(opt_kind));

    sched::Schedule a = scheduler.schedule(wl, acc);
    sched::Schedule b = scheduler.schedule(wl, acc);
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].accIdx, b.entries()[i].accIdx);
        EXPECT_DOUBLE_EQ(a.entries()[i].startCycle,
                         b.entries()[i].startCycle);
    }
}

TEST_P(SchedProperty, TimelineRenders)
{
    auto [wl_kind, acc_kind, opt_kind] = GetParam();
    Workload wl = makeWorkload(wl_kind);
    Accelerator acc = makeAccelerator(acc_kind);
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model, makeOptions(opt_kind));
    sched::Schedule s = scheduler.schedule(wl, acc);
    std::string timeline = s.renderTimeline(wl, 48);
    // One row per sub-accelerator plus the axis.
    EXPECT_NE(timeline.find("acc0"), std::string::npos);
    if (acc.numSubAccs() > 1) {
        EXPECT_NE(timeline.find("acc1"), std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedProperty,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::SingleModel,
                          WorkloadKind::TwoModels,
                          WorkloadKind::BatchedMix,
                          WorkloadKind::FcHeavy,
                          WorkloadKind::Periodic),
        ::testing::Values(AccKind::Fda, AccKind::SmFda, AccKind::Rda,
                          AccKind::Hda2, AccKind::Hda3),
        ::testing::Values(OptKind::Default, OptKind::Greedy,
                          OptKind::DepthFirst, OptKind::TightBalance,
                          OptKind::LatencyMetric,
                          OptKind::ContextPenalty,
                          OptKind::DeadlineAware,
                          OptKind::LeastSlack,
                          OptKind::LeastSlackDrop, OptKind::Preempt,
                          OptKind::PreemptDoom,
                          OptKind::Hysteresis)),
    [](const ::testing::TestParamInfo<SchedParam> &info) {
        return std::string(name(std::get<0>(info.param))) + "_" +
               name(std::get<1>(info.param)) + "_" +
               name(std::get<2>(info.param));
    });

// ---------------------------------------------------------------
// Randomized post-processing property: idle-time elimination must
// never introduce dependence, overlap, arrival or memory violations,
// and must never worsen the makespan, on arbitrary workloads.
// ---------------------------------------------------------------

namespace
{

dnn::Model
randomModel(util::SplitMix64 &rng, int tag)
{
    static const std::uint64_t kChannels[] = {16, 32, 64, 128};
    static const std::uint64_t kSizes[] = {14, 28, 56};
    static const std::uint64_t kFcDims[] = {128, 256, 1024};
    dnn::Model model("Rand" + std::to_string(tag));
    int n_layers = 1 + static_cast<int>(rng.nextBounded(5));
    for (int l = 0; l < n_layers; ++l) {
        std::string lname = "l" + std::to_string(l);
        switch (rng.nextBounded(3)) {
          case 0:
            model.addLayer(dnn::makeConv(
                lname, kChannels[rng.nextBounded(4)],
                kChannels[rng.nextBounded(4)],
                kSizes[rng.nextBounded(3)],
                kSizes[rng.nextBounded(3)], 3, 3));
            break;
          case 1:
            model.addLayer(dnn::makeDepthwise(
                lname, kChannels[rng.nextBounded(4)],
                kSizes[rng.nextBounded(3)],
                kSizes[rng.nextBounded(3)], 3, 3));
            break;
          default:
            model.addLayer(dnn::makeFullyConnected(
                lname, kFcDims[rng.nextBounded(3)],
                kFcDims[rng.nextBounded(3)]));
            break;
        }
    }
    return model;
}

Workload
randomWorkload(util::SplitMix64 &rng, int trial)
{
    Workload wl("rand" + std::to_string(trial));
    int n_models = 1 + static_cast<int>(rng.nextBounded(3));
    for (int m = 0; m < n_models; ++m) {
        dnn::Model model = randomModel(rng, m);
        int batches = 1 + static_cast<int>(rng.nextBounded(3));
        if (rng.nextBounded(2) == 0) {
            double period =
                1e5 + static_cast<double>(rng.nextBounded(1000)) *
                          1e3;
            wl.addPeriodicModel(std::move(model), batches, period);
        } else {
            double arrival = static_cast<double>(
                rng.nextBounded(4) * 250000);
            wl.addModel(std::move(model), batches, arrival);
        }
    }
    return wl;
}

} // namespace

// ---------------------------------------------------------------
// Randomized preemption/policy/drop property sweep: every preemption
// x selection policy x drop policy x post-processing combination
// must produce a schedule that validates (completeness modulo
// dropped frames — which may keep a committed prefix under
// DoomedFrames — dependences, arrivals, non-overlap, memory) with
// internally consistent SLA statistics on seeded random periodic
// workloads, bit-identical across prefill thread counts.
// ---------------------------------------------------------------

TEST(PolicyDropRandomized, ValidSchedulesAndConsistentSla)
{
    util::setVerbose(false);
    cost::CostModel model;
    util::SplitMix64 rng(424242);

    for (int trial = 0; trial < 12; ++trial) {
        Workload wl = randomWorkload(rng, trial);
        Accelerator acc = makeAccelerator(
            static_cast<AccKind>(rng.nextBounded(5)));
        for (auto policy : {sched::Policy::Fifo, sched::Policy::Edf,
                            sched::Policy::Lst}) {
            for (auto drop : {sched::DropPolicy::None,
                              sched::DropPolicy::HopelessFrames,
                              sched::DropPolicy::DoomedFrames}) {
                for (bool pp : {false, true}) {
                    SchedulerOptions opts;
                    opts.policy = policy;
                    opts.dropPolicy = drop;
                    opts.postProcess = pp;
                    // Preemption rides the trial parity so the sweep
                    // covers both settings without doubling runtime;
                    // equivalence of Off to the reference oracle is
                    // pinned separately by test_sched_equivalence.
                    opts.preemption =
                        trial % 2 == 0
                            ? sched::Preemption::AtLayerBoundary
                            : sched::Preemption::Off;
                    sched::Schedule s =
                        sched::HeraldScheduler(model, opts)
                            .schedule(wl, acc);
                    std::string label =
                        std::string(sched::toString(policy)) + "/" +
                        sched::toString(drop) + "/" +
                        sched::toString(opts.preemption) +
                        (pp ? "/pp" : "/nopp") + " trial " +
                        std::to_string(trial);

                    // Full validity (includes arrival respect).
                    EXPECT_EQ(s.validate(wl, acc), "") << label;
                    for (const sched::ScheduledLayer &e :
                         s.entries()) {
                        EXPECT_GE(
                            e.startCycle,
                            wl.instances()[e.instanceIdx]
                                    .arrivalCycle -
                                1e-6)
                            << label;
                    }
                    if (drop == sched::DropPolicy::None) {
                        EXPECT_TRUE(s.droppedInstances().empty())
                            << label;
                    }

                    // SLA internal consistency.
                    sched::SlaStats sla = s.computeSla(wl);
                    EXPECT_EQ(sla.frames, wl.numInstances())
                        << label;
                    EXPECT_EQ(sla.droppedFrames,
                              s.droppedInstances().size())
                        << label;
                    EXPECT_GE(sla.deadlineMisses, sla.droppedFrames)
                        << label;
                    EXPECT_LE(sla.deadlineMisses,
                              sla.framesWithDeadline)
                        << label;
                    EXPECT_LE(sla.missRate, 1.0 + 1e-12) << label;
                    EXPECT_GE(sla.missRate, 0.0) << label;
                    EXPECT_LE(sla.p50LatencyCycles,
                              sla.p99LatencyCycles)
                        << label;
                    EXPECT_LE(sla.p99LatencyCycles,
                              sla.maxLatencyCycles)
                        << label;
                    std::size_t missed = 0;
                    std::size_t dropped = 0;
                    for (const sched::InstanceSla &inst :
                         sla.perInstance) {
                        missed += inst.missed ? 1 : 0;
                        dropped += inst.dropped ? 1 : 0;
                        if (inst.dropped) {
                            EXPECT_FALSE(inst.scheduled) << label;
                        }
                    }
                    EXPECT_EQ(missed, sla.deadlineMisses) << label;
                    EXPECT_EQ(dropped, sla.droppedFrames) << label;
                }
            }
        }
    }
}

TEST(PostProcessRandomized, NeverIntroducesViolations)
{
    util::setVerbose(false);
    cost::CostModel model;
    util::SplitMix64 rng(20260726);
    std::size_t killed = 0;
    bool lst_seen = false;

    for (int trial = 0; trial < 16; ++trial) {
        Workload wl = randomWorkload(rng, trial);
        Accelerator acc = makeAccelerator(static_cast<AccKind>(
            rng.nextBounded(5)));

        SchedulerOptions opts;
        const sched::Policy policies[] = {sched::Policy::Fifo,
                                          sched::Policy::Edf,
                                          sched::Policy::Lst};
        opts.policy = policies[rng.nextBounded(3)];
        opts.lookaheadDepth =
            1 + static_cast<int>(rng.nextBounded(6));
        opts.maxPostPasses =
            1 + static_cast<int>(rng.nextBounded(8));
        if (rng.nextBounded(3) == 0)
            opts.contextChangeCycles = 5000.0;
        // Faults pin entries the gap-fill scan must step over.
        if (rng.nextBounded(2) == 0) {
            SchedulerOptions plain;
            plain.postProcess = false;
            const double horizon = sched::HeraldScheduler(model, plain)
                                       .schedule(wl, acc)
                                       .makespanCycles();
            opts.faults = sched::FaultTimeline::random(
                rng.next(), acc.numSubAccs(), horizon);
        }
        const sched::FaultTimeline *faults =
            opts.faults.empty() ? nullptr : &opts.faults;
        SchedulerOptions no_pp = opts;
        no_pp.postProcess = false;
        opts.postProcess = true;

        sched::Schedule with_pp =
            sched::HeraldScheduler(model, opts).schedule(wl, acc);
        sched::Schedule without_pp =
            sched::HeraldScheduler(model, no_pp).schedule(wl, acc);

        EXPECT_EQ(with_pp.validate(wl, acc, faults), "")
            << "trial " << trial << " on " << acc.name();
        EXPECT_EQ(without_pp.validate(wl, acc, faults), "")
            << "trial " << trial << " on " << acc.name();
        EXPECT_LE(with_pp.makespanCycles(),
                  without_pp.makespanCycles() + 1e-6)
            << "trial " << trial;
        for (const sched::ScheduledLayer &e : with_pp.entries())
            killed += e.faultKilled;
        lst_seen = lst_seen || opts.policy == sched::Policy::Lst;
    }
    // The draws must reach the LST and fault-kill paths.
    EXPECT_TRUE(lst_seen);
    EXPECT_GT(killed, 0u);
}

} // namespace
