/**
 * @file
 * DSE search-engine tests: the simulated-annealing strategy must be a
 * pure function of (workload, chip, options) — bit-identical across
 * reruns and thread counts — the Pareto-frontier objective must
 * return a valid frontier containing the argmin, and the
 * cross-candidate CostColumnCache must leave every result
 * bit-identical to a cold build and refuse a second workload's
 * layers or a second cost model's coefficients, and a sweep over a
 * repartitioning-policy axis must equal its replay through the
 * public calls in (candidate, reconfig) order.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "dse/herald_dse.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/pareto.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using dataflow::DataflowStyle;

class DseEngineTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    workload::Workload
    miniWorkload()
    {
        workload::Workload wl("mini");
        wl.addModel(dnn::brqHandposeNet(), 2);
        wl.addModel(dnn::mobileNetV2(), 1);
        return wl;
    }

    /** Annealing on a 2-way edge HDA with a modest budget. */
    dse::HeraldOptions
    annealingOptions(std::uint64_t seed, std::size_t threads)
    {
        dse::HeraldOptions opts;
        opts.partition.peGranularity = 128;
        opts.partition.bwGranularity = 2.0;
        opts.partition.strategy = dse::SearchStrategy::Annealing;
        opts.partition.seed = seed;
        opts.partition.annealing.chains = 4;
        opts.partition.annealing.iterations = 12;
        opts.objective = dse::Objective::ParetoFrontier;
        opts.numThreads = threads;
        return opts;
    }

    dse::DseResult
    runAnnealing(std::uint64_t seed, std::size_t threads)
    {
        cost::CostModel model;
        dse::Herald herald(model, annealingOptions(seed, threads));
        workload::Workload wl = miniWorkload();
        return herald.explore(wl, accel::edgeClass(),
                              {DataflowStyle::NVDLA,
                               DataflowStyle::ShiDiannao});
    }

    static void
    expectIdentical(const dse::DseResult &a, const dse::DseResult &b)
    {
        EXPECT_EQ(a.bestIdx, b.bestIdx);
        EXPECT_EQ(a.frontier, b.frontier);
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t i = 0; i < a.points.size(); ++i) {
            const sched::ScheduleSummary &sa = a.points[i].summary;
            const sched::ScheduleSummary &sb = b.points[i].summary;
            // Bit-identical, not just close: the engine must run the
            // exact same computation whatever the thread count.
            EXPECT_EQ(sa.makespanCycles, sb.makespanCycles) << i;
            EXPECT_EQ(sa.latencySec, sb.latencySec) << i;
            EXPECT_EQ(sa.energyMj, sb.energyMj) << i;
            EXPECT_EQ(sa.sla.deadlineMisses, sb.sla.deadlineMisses)
                << i;
            EXPECT_EQ(a.points[i].accelerator.name(),
                      b.points[i].accelerator.name())
                << i;
        }
    }
};

// ---------------------------------------------------------------
// Replay through the public calls
// ---------------------------------------------------------------

/**
 * Schedule every accelerator once per reconfig entry of @p opts
 * (scheduler.reconfig when the axis is empty), in (accelerator,
 * reconfig) order, through HeraldScheduler::schedule — which builds
 * each LayerCostTable cold, without a column cache — and finalize.
 */
std::vector<dse::DsePoint>
replay(const workload::Workload &wl, const dse::HeraldOptions &opts,
       const std::vector<accel::Accelerator> &accs)
{
    const std::vector<sched::ReconfigOptions> recfgs =
        opts.reconfigCandidates.empty()
            ? std::vector<sched::ReconfigOptions>{opts.scheduler
                                                      .reconfig}
            : opts.reconfigCandidates;
    cost::CostModel model;
    std::vector<dse::DsePoint> out;
    for (const accel::Accelerator &acc : accs) {
        for (const sched::ReconfigOptions &r : recfgs) {
            sched::SchedulerOptions so = opts.scheduler;
            so.reconfig = r;
            const sched::Schedule s =
                sched::HeraldScheduler(model, so).schedule(wl, acc);
            out.push_back({acc,
                           s.finalize(wl, acc, model.energyModel(),
                                      opts.chargeIdleEnergy),
                           r});
        }
    }
    return out;
}

/** The edge-chip HDA of each candidate split. */
std::vector<accel::Accelerator>
hdas(const std::vector<DataflowStyle> &styles,
     const std::vector<dse::PartitionCandidate> &cands)
{
    std::vector<accel::Accelerator> out;
    for (const dse::PartitionCandidate &c : cands) {
        out.push_back(accel::Accelerator::makeHda(
            accel::edgeClass(), styles, c.peSplit, c.bwSplit));
    }
    return out;
}

/** Index of the first strict minimum of @p objective over @p points. */
std::size_t
firstArgmin(const std::vector<dse::DsePoint> &points,
            double (*objective)(const sched::ScheduleSummary &))
{
    std::size_t idx = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double v = objective(points[i].summary);
        if (v < best) {
            best = v;
            idx = i;
        }
    }
    return idx;
}

double
edpObjective(const sched::ScheduleSummary &summary)
{
    return summary.edp();
}

/** Bit-identical points, in the same order. */
void
expectSamePoints(const std::vector<dse::DsePoint> &got,
                 const std::vector<dse::DsePoint> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const sched::ScheduleSummary &g = got[i].summary;
        const sched::ScheduleSummary &w = want[i].summary;
        EXPECT_EQ(got[i].accelerator.name(), want[i].accelerator.name())
            << i;
        EXPECT_EQ(got[i].reconfig.policy, want[i].reconfig.policy) << i;
        EXPECT_EQ(g.makespanCycles, w.makespanCycles) << i;
        EXPECT_EQ(g.latencySec, w.latencySec) << i;
        EXPECT_EQ(g.energyMj, w.energyMj) << i;
        EXPECT_EQ(g.sla.deadlineMisses, w.sla.deadlineMisses) << i;
    }
}

// ---------------------------------------------------------------
// Annealing determinism
// ---------------------------------------------------------------

TEST_F(DseEngineTest, AnnealingIsBitIdenticalAcrossThreadCounts)
{
    dse::DseResult serial = runAnnealing(1, 1);
    dse::DseResult parallel = runAnnealing(1, 4);
    dse::DseResult oversubscribed = runAnnealing(1, 13);
    expectIdentical(serial, parallel);
    expectIdentical(serial, oversubscribed);
}

TEST_F(DseEngineTest, AnnealingRerunIsBitIdentical)
{
    dse::DseResult a = runAnnealing(7, 2);
    dse::DseResult b = runAnnealing(7, 2);
    expectIdentical(a, b);
}

TEST_F(DseEngineTest, DifferentSeedsYieldValidFrontiers)
{
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7},
                               std::uint64_t{1234567}}) {
        dse::DseResult result = runAnnealing(seed, 2);
        ASSERT_FALSE(result.points.empty()) << "seed " << seed;
        ASSERT_FALSE(result.frontier.empty()) << "seed " << seed;

        std::vector<util::DesignPoint> pts = result.designPoints();
        // Frontier members are mutually non-dominated...
        for (std::size_t i : result.frontier) {
            for (std::size_t j : result.frontier) {
                if (i != j) {
                    EXPECT_FALSE(
                        util::dominates(pts[i], pts[j]))
                        << "seed " << seed;
                }
            }
        }
        // ...and the frontier matches a from-scratch extraction.
        EXPECT_EQ(result.frontier, util::paretoFrontIndices(pts))
            << "seed " << seed;
        // The scalarized argmin always sits on the frontier.
        bool best_on_front = false;
        for (std::size_t i : result.frontier)
            best_on_front = best_on_front || i == result.bestIdx;
        EXPECT_TRUE(best_on_front) << "seed " << seed;
    }
}

TEST_F(DseEngineTest, AnnealingOutputIsPinned)
{
    // Seeded annealing on the 2-way edge grid, pinned exactly. The
    // walk is long enough that nudging either temperature constant
    // (kAnnealInitialTemp 0.10 -> 0.11, kAnnealCooling 0.97 -> 0.96
    // or 0.98) changes the visited set or the best index.
    cost::CostModel model;
    dse::HeraldOptions opts = annealingOptions(1, 1);
    opts.partition.annealing.iterations = 40;
    opts.objective = dse::Objective::Edp;
    dse::Herald herald(model, opts);
    workload::Workload wl = miniWorkload();
    const dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    EXPECT_EQ(result.points.size(), 27u);
    EXPECT_EQ(result.bestIdx, 19u);
    EXPECT_EQ(result.best().summary.latencySec, 0x1.000051e941e9dp-7);
    EXPECT_EQ(result.best().summary.energyMj, 0x1.8f74060a67e5ep+2);
}

TEST_F(DseEngineTest, AnnealingFindsExhaustiveOptimumOnTinyGrid)
{
    // 4 PE units x 4 BW units, 2-way: a 9-candidate grid. With 4
    // chains x 24 iterations the walk visits essentially the whole
    // space, so the best point must match the exhaustive argmin
    // bit-for-bit.
    auto run = [&](dse::SearchStrategy strategy) {
        cost::CostModel model;
        dse::HeraldOptions opts;
        opts.partition.peGranularity = 256;
        opts.partition.bwGranularity = 4.0;
        opts.partition.strategy = strategy;
        opts.partition.annealing.chains = 4;
        opts.partition.annealing.iterations = 24;
        opts.numThreads = 2;
        dse::Herald herald(model, opts);
        workload::Workload wl = miniWorkload();
        return herald.explore(wl, accel::edgeClass(),
                              {DataflowStyle::NVDLA,
                               DataflowStyle::ShiDiannao});
    };
    dse::DseResult exhaustive = run(dse::SearchStrategy::Exhaustive);
    dse::DseResult annealed = run(dse::SearchStrategy::Annealing);
    EXPECT_EQ(annealed.best().summary.edp(),
              exhaustive.best().summary.edp());
    EXPECT_EQ(annealed.best().accelerator.name(),
              exhaustive.best().accelerator.name());
    // The metaheuristic never evaluates more points than the grid
    // holds: revisits are memoized, not re-scored.
    EXPECT_LE(annealed.points.size(), exhaustive.points.size());
}

TEST_F(DseEngineTest, AnnealingRespectsEvaluationBudget)
{
    cost::CostModel model;
    dse::HeraldOptions opts = annealingOptions(3, 2);
    opts.partition.annealing.chains = 2;
    opts.partition.annealing.iterations = 64;
    opts.partition.annealing.maxEvaluations = 5;
    dse::Herald herald(model, opts);
    workload::Workload wl = miniWorkload();
    dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    // The cap is checked between iteration batches, so at most one
    // batch (<= chains fresh evaluations) can land past it.
    EXPECT_LE(result.points.size(),
              opts.partition.annealing.maxEvaluations +
                  opts.partition.annealing.chains);
    EXPECT_GE(result.points.size(), std::size_t{1});
}

// ---------------------------------------------------------------
// Pareto-frontier objective on the exhaustive sweep
// ---------------------------------------------------------------

TEST_F(DseEngineTest, ExhaustiveParetoFrontierContainsArgmin)
{
    cost::CostModel model;
    dse::HeraldOptions opts;
    opts.partition.peGranularity = 128;
    opts.partition.bwGranularity = 2.0;
    opts.objective = dse::Objective::ParetoFrontier;
    dse::Herald herald(model, opts);
    workload::Workload wl = miniWorkload();
    dse::DseResult result = herald.explore(
        wl, accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});

    ASSERT_FALSE(result.frontier.empty());
    EXPECT_EQ(result.frontier,
              util::paretoFrontIndices(result.designPoints()));
    bool best_on_front = false;
    for (std::size_t i : result.frontier)
        best_on_front = best_on_front || i == result.bestIdx;
    EXPECT_TRUE(best_on_front);
    EXPECT_EQ(result.frontierPoints().size(),
              result.frontier.size());

    // Scalar objectives leave the frontier empty (argmin-only
    // consumers pay nothing for the new mode).
    opts.objective = dse::Objective::Edp;
    dse::Herald scalar(model, opts);
    EXPECT_TRUE(scalar
                    .explore(wl, accel::edgeClass(),
                             {DataflowStyle::NVDLA,
                              DataflowStyle::ShiDiannao})
                    .frontier.empty());
}

// ---------------------------------------------------------------
// Cross-candidate cost-column cache
// ---------------------------------------------------------------

TEST_F(DseEngineTest, CachedSweepBitIdenticalToCold)
{
    // A 3-way HDA grid is where columns actually recur across
    // candidates (two axes per composition share values); the sweep
    // reads them from its shared cache, yet at any thread count it
    // must equal a cold replay that builds every table afresh.
    const std::vector<DataflowStyle> styles{DataflowStyle::NVDLA,
                                            DataflowStyle::ShiDiannao,
                                            DataflowStyle::Eyeriss};
    const accel::AcceleratorClass chip = accel::edgeClass();
    const workload::Workload wl = miniWorkload();
    dse::HeraldOptions opts;
    opts.partition.peGranularity = 256;
    opts.partition.bwGranularity = 4.0;
    dse::DseResult cold;
    cold.points = replay(
        wl, opts,
        hdas(styles, dse::generateCandidates(chip.numPes, chip.bwGBps,
                                             styles.size(),
                                             opts.partition)));
    cold.bestIdx = firstArgmin(cold.points, edpObjective);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        cost::CostModel model;
        opts.numThreads = threads;
        expectIdentical(cold,
                        dse::Herald(model, opts).explore(wl, chip, styles));
    }
}

TEST_F(DseEngineTest, ColumnCacheBuildsBitIdenticalTables)
{
    // Randomized candidate sweep straight at the table layer: a
    // shared cache across many 3-way splits must reproduce every
    // cold-built table entry bit-for-bit, including when the build
    // is a pure cache hit (second pass over the same candidates).
    cost::CostModel cold_model;
    cost::CostModel cached_model;
    workload::Workload wl = miniWorkload();
    accel::AcceleratorClass chip = accel::edgeClass();
    const std::vector<DataflowStyle> styles{
        DataflowStyle::NVDLA, DataflowStyle::ShiDiannao,
        DataflowStyle::Eyeriss};
    const accel::RdaOverheads rda{};
    sched::CostColumnCache cache;
    util::SplitMix64 rng(99);

    std::vector<dse::PartitionCandidate> candidates;
    dse::PartitionSpaceOptions space;
    space.peGranularity = 128;
    space.bwGranularity = 2.0;
    for (int i = 0; i < 12; ++i) {
        candidates.push_back(dse::randomCandidate(
            chip.numPes, chip.bwGBps, styles.size(), space, rng));
    }
    // Second pass re-reads every column from the cache.
    for (int i = 0; i < 12; ++i)
        candidates.push_back(candidates[static_cast<std::size_t>(i)]);

    for (const dse::PartitionCandidate &cand : candidates) {
        accel::Accelerator acc = accel::Accelerator::makeHda(
            chip, styles, cand.peSplit, cand.bwSplit);
        sched::LayerCostTable cold = sched::LayerCostTable::build(
            cold_model, wl, acc, sched::Metric::Edp, rda);
        sched::LayerCostTable warm = sched::LayerCostTable::build(
            cached_model, wl, acc, sched::Metric::Edp, rda, 1,
            &cache);
        ASSERT_EQ(cold.numUniqueLayers(), warm.numUniqueLayers());
        ASSERT_EQ(cold.numSubAccs(), warm.numSubAccs());
        for (std::size_t row = 0; row < cold.numUniqueLayers();
             ++row) {
            EXPECT_EQ(cold.minCycles(row), warm.minCycles(row));
            for (std::size_t a = 0; a < cold.numSubAccs(); ++a) {
                EXPECT_EQ(cold.cost(row, a).style,
                          warm.cost(row, a).style);
                EXPECT_EQ(cold.cost(row, a).cost.cycles,
                          warm.cost(row, a).cost.cycles);
                EXPECT_EQ(cold.cost(row, a).cost.energyMj,
                          warm.cost(row, a).cost.energyMj);
                EXPECT_EQ(cold.metric(row, a), warm.metric(row, a));
                EXPECT_EQ(cold.order(row)[a], warm.order(row)[a]);
            }
        }
    }
    // The duplicate second pass guarantees real hits happened.
    EXPECT_GT(cache.stats().hits, std::size_t{0});
    EXPECT_GT(cache.size(), std::size_t{0});
}

TEST_F(DseEngineTest, ColumnCacheBindsToLayerGeometry)
{
    // Two one-layer workloads share a unique-layer row count but not
    // a layer: a column cached for the conv row must never be served
    // as the FC row's cost. The cache binds to the first workload's
    // per-row geometry and rejects the second.
    dnn::Model conv_net("ConvNet");
    conv_net.addLayer(dnn::makeConv("conv", 64, 64, 56, 56, 3, 3));
    dnn::Model fc_net("FcNet");
    fc_net.addLayer(dnn::makeFullyConnected("fc", 1000, 2048));
    workload::Workload conv_wl("conv");
    conv_wl.addModel(conv_net, 1);
    workload::Workload fc_wl("fc");
    fc_wl.addModel(fc_net, 1);

    cost::CostModel model;
    const accel::Accelerator acc = accel::Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao}, {512, 512},
        {8.0, 8.0});
    const accel::RdaOverheads rda{};
    sched::CostColumnCache cache;
    sched::LayerCostTable::build(model, conv_wl, acc,
                                 sched::Metric::Edp, rda, 1, &cache);
    EXPECT_THROW(sched::LayerCostTable::build(model, fc_wl, acc,
                                              sched::Metric::Edp, rda,
                                              1, &cache),
                 std::runtime_error);

    // A workload with the same geometry under other names still
    // shares the bound cache, and reads only hits.
    dnn::Model renamed("Renamed");
    renamed.addLayer(dnn::makeConv("other", 64, 64, 56, 56, 3, 3));
    workload::Workload same_wl("same");
    same_wl.addModel(renamed, 2);
    const sched::CostColumnCache::Stats before = cache.stats();
    sched::LayerCostTable::build(model, same_wl, acc,
                                 sched::Metric::Edp, rda, 1, &cache);
    EXPECT_EQ(cache.stats().hits, before.hits + 2);
    EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST_F(DseEngineTest, ColumnCacheBindsToCostModel)
{
    // A column is a function of the CostModel's options and energy
    // coefficients too: without static energy every entry's energy
    // differs. A cache filled under the default model must refuse to
    // serve a build under another model.
    const workload::Workload wl = workload::arvrA();
    const accel::Accelerator acc = accel::Accelerator::makeHda(
        accel::edgeClass(),
        {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao}, {512, 512},
        {8.0, 8.0});
    const accel::RdaOverheads rda{};
    sched::CostColumnCache cache;
    cost::CostModel model;
    sched::LayerCostTable::build(model, wl, acc, sched::Metric::Edp,
                                 rda, 1, &cache);

    cost::CostOptions no_static;
    no_static.staticEnergy = false;
    cost::CostModel other(cost::EnergyModel{}, no_static);
    EXPECT_THROW(sched::LayerCostTable::build(other, wl, acc,
                                              sched::Metric::Edp, rda,
                                              1, &cache),
                 std::runtime_error);
    cost::EnergyModel hot;
    hot.staticPerPeCycle *= 2.0;
    cost::CostModel hotter(hot);
    EXPECT_THROW(sched::LayerCostTable::build(hotter, wl, acc,
                                              sched::Metric::Edp, rda,
                                              1, &cache),
                 std::runtime_error);

    // A distinct CostModel with identical coefficients shares the
    // bound cache and reads only hits.
    cost::CostModel twin;
    const sched::CostColumnCache::Stats before = cache.stats();
    sched::LayerCostTable::build(twin, wl, acc, sched::Metric::Edp,
                                 rda, 1, &cache);
    EXPECT_EQ(cache.stats().hits, before.hits + 2);
    EXPECT_EQ(cache.stats().misses, before.misses);
}

// ---------------------------------------------------------------
// Repartitioning-policy axis (HeraldOptions::reconfigCandidates)
// ---------------------------------------------------------------

const std::vector<DataflowStyle> kAxisStyles{DataflowStyle::NVDLA,
                                             DataflowStyle::ShiDiannao};

/**
 * A frozen and an elastic entry on the shifting-load factory, where
 * migration changes the answer: the elastic split wins the sweep, and
 * Binary's coarse optimum over both entries is not the frozen one's.
 */
dse::HeraldOptions
reconfigAxisOptions(dse::SearchStrategy strategy, std::size_t threads)
{
    const accel::AcceleratorClass chip = accel::edgeClass();
    dse::HeraldOptions opts;
    opts.objective = dse::Objective::SlaViolations;
    opts.scheduler.policy = sched::Policy::Edf;
    opts.partition.peGranularity = chip.numPes / 8;
    opts.partition.bwGranularity = chip.bwGBps / 8;
    opts.partition.strategy = strategy;
    opts.partition.seed = 5;
    opts.partition.annealing.chains = 3;
    opts.partition.annealing.iterations = 8;
    sched::ReconfigOptions elastic;
    elastic.policy = sched::Reconfig::BacklogSkew;
    elastic.skewThresholdCycles = 1e7;
    elastic.migrationQuantumPes = 128;
    elastic.drainCycles = 5e4;
    elastic.perPeRewireCycles = 100.0;
    elastic.cooldownCycles = 1e6;
    opts.reconfigCandidates = {sched::ReconfigOptions{}, elastic};
    opts.numThreads = threads;
    return opts;
}

/** The SlaViolations objective, recomputed from the summary. */
double
slaObjective(const sched::ScheduleSummary &summary)
{
    const double lat = summary.latencySec;
    return static_cast<double>(summary.sla.deadlineMisses) +
           lat / (1.0 + lat);
}

TEST(ReconfigAxisTest, ExhaustiveSweepsCandidateThenReconfigOrder)
{
    util::setVerbose(false);
    const workload::Workload wl = workload::shiftingLoadFactory(8);
    const accel::AcceleratorClass chip = accel::edgeClass();
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const dse::HeraldOptions opts = reconfigAxisOptions(
            dse::SearchStrategy::Exhaustive, threads);
        cost::CostModel model;
        const dse::DseResult result =
            dse::Herald(model, opts).explore(wl, chip, kAxisStyles);
        const std::vector<dse::DsePoint> want = replay(
            wl, opts,
            hdas(kAxisStyles,
                 dse::generateCandidates(chip.numPes, chip.bwGBps,
                                         kAxisStyles.size(),
                                         opts.partition)));
        expectSamePoints(result.points, want);
        EXPECT_EQ(result.bestIdx, firstArgmin(want, slaObjective)) << threads;
        // The axis is live: the elastic entry wins the sweep.
        EXPECT_EQ(result.best().reconfig.policy,
                  sched::Reconfig::BacklogSkew);
    }
}

TEST(ReconfigAxisTest, BinaryRefinesAroundTheBestCandidateOverBothEntries)
{
    util::setVerbose(false);
    const workload::Workload wl = workload::shiftingLoadFactory(8);
    const accel::AcceleratorClass chip = accel::edgeClass();
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const dse::HeraldOptions opts =
            reconfigAxisOptions(dse::SearchStrategy::Binary, threads);
        cost::CostModel model;
        const dse::DseResult result =
            dse::Herald(model, opts).explore(wl, chip, kAxisStyles);

        // Coarse round, then the refinement centre: the candidate
        // holding the first argmin slot, i.e. the first candidate
        // whose value minimized over the axis is the smallest.
        const std::vector<dse::PartitionCandidate> coarse =
            dse::generateCandidates(chip.numPes, chip.bwGBps,
                                    kAxisStyles.size(), opts.partition);
        std::vector<dse::DsePoint> want =
            replay(wl, opts, hdas(kAxisStyles, coarse));
        const std::size_t n_recfg = opts.reconfigCandidates.size();
        const std::size_t centre_idx =
            firstArgmin(want, slaObjective) / n_recfg;
        const dse::PartitionCandidate &centre = coarse[centre_idx];
        std::vector<dse::DsePoint> frozen;
        for (std::size_t i = 0; i < want.size(); i += n_recfg)
            frozen.push_back(want[i]);
        EXPECT_NE(firstArgmin(frozen, slaObjective), centre_idx);

        // Refinement skips every split the coarse round scored.
        std::set<std::string> scored;
        for (const dse::DsePoint &p : want)
            scored.insert(p.accelerator.name());
        std::vector<dse::PartitionCandidate> fresh;
        for (const dse::PartitionCandidate &c :
             dse::refineAround(centre, chip.numPes, chip.bwGBps,
                               opts.partition)) {
            const std::string name =
                hdas(kAxisStyles, {c}).front().name();
            if (scored.count(name) == 0)
                fresh.push_back(c);
        }
        ASSERT_FALSE(fresh.empty());
        for (dse::DsePoint &p :
             replay(wl, opts, hdas(kAxisStyles, fresh)))
            want.push_back(std::move(p));

        expectSamePoints(result.points, want);
        EXPECT_EQ(result.bestIdx, firstArgmin(want, slaObjective)) << threads;
    }
}

TEST(ReconfigAxisTest, AnnealingPairsEveryVisitedCandidateWithEachEntry)
{
    util::setVerbose(false);
    const workload::Workload wl = workload::shiftingLoadFactory(8);
    const accel::AcceleratorClass chip = accel::edgeClass();
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const dse::HeraldOptions opts = reconfigAxisOptions(
            dse::SearchStrategy::Annealing, threads);
        cost::CostModel model;
        const dse::DseResult result =
            dse::Herald(model, opts).explore(wl, chip, kAxisStyles);

        // The walk is not reproducible from the public calls, but
        // every visited split is: points come in (split, reconfig)
        // pairs, each split once, each point its replay.
        const std::size_t n_recfg = opts.reconfigCandidates.size();
        ASSERT_EQ(result.points.size() % n_recfg, 0u);
        std::vector<accel::Accelerator> visited;
        std::set<std::string> names;
        for (std::size_t i = 0; i < result.points.size(); i += n_recfg) {
            visited.push_back(result.points[i].accelerator);
            EXPECT_TRUE(names.insert(visited.back().name()).second)
                << visited.back().name();
        }
        const std::vector<dse::DsePoint> want =
            replay(wl, opts, visited);
        expectSamePoints(result.points, want);
        EXPECT_EQ(result.bestIdx, firstArgmin(want, slaObjective)) << threads;
    }
}

} // namespace
