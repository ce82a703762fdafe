/**
 * @file
 * Parallel DSE engine tests: (i) Herald::explore must return
 * bit-identical results (point ordering, summaries, bestIdx) for any
 * thread count, (ii) concurrent CostModel::evaluate() calls must
 * return exactly the serial results and fill one entry per distinct
 * key, and (iii) the event-timeline MemoryTracker must agree with a
 * brute-force occupancy reference on randomized workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "cost/cost_model.hh"
#include "dnn/model_zoo.hh"
#include "dse/herald_dse.hh"
#include "sched/memory_tracker.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/thread_pool.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using dataflow::DataflowStyle;

// ---------------------------------------------------------------
// Parallel == serial
// ---------------------------------------------------------------

class ParallelDseTest : public ::testing::Test
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

    dse::DseResult
    exploreWithThreads(std::size_t threads,
                       dse::SearchStrategy strategy =
                           dse::SearchStrategy::Exhaustive)
    {
        // Fresh cost model per run: the cache must not leak state
        // between the serial and parallel sweeps being compared.
        cost::CostModel model;
        dse::HeraldOptions opts;
        opts.partition.peGranularity = 128;
        opts.partition.bwGranularity = 2.0;
        opts.partition.strategy = strategy;
        opts.numThreads = threads;
        dse::Herald herald(model, opts);
        workload::Workload wl = miniWorkload();
        return herald.explore(
            wl, accel::edgeClass(),
            {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao});
    }

    static void
    expectIdentical(const dse::DseResult &a, const dse::DseResult &b)
    {
        EXPECT_EQ(a.bestIdx, b.bestIdx);
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t i = 0; i < a.points.size(); ++i) {
            const sched::ScheduleSummary &sa = a.points[i].summary;
            const sched::ScheduleSummary &sb = b.points[i].summary;
            // Bit-identical, not just close: the parallel sweep must
            // run the exact same computation per candidate.
            EXPECT_EQ(sa.makespanCycles, sb.makespanCycles) << i;
            EXPECT_EQ(sa.latencySec, sb.latencySec) << i;
            EXPECT_EQ(sa.energyMj, sb.energyMj) << i;
            EXPECT_EQ(a.points[i].accelerator.name(),
                      b.points[i].accelerator.name())
                << i;
        }
    }
};

TEST_F(ParallelDseTest, OneAndFourThreadsProduceIdenticalResults)
{
    dse::DseResult serial = exploreWithThreads(1);
    dse::DseResult parallel = exploreWithThreads(4);
    expectIdentical(serial, parallel);
}

TEST_F(ParallelDseTest, ManyThreadsOversubscribedStillIdentical)
{
    // More workers than candidates exercises the empty-queue path.
    dse::DseResult serial = exploreWithThreads(1);
    dse::DseResult parallel = exploreWithThreads(13);
    expectIdentical(serial, parallel);
}

TEST_F(ParallelDseTest, BinaryRefinementRoundIsIdenticalToo)
{
    dse::DseResult serial =
        exploreWithThreads(1, dse::SearchStrategy::Binary);
    dse::DseResult parallel =
        exploreWithThreads(4, dse::SearchStrategy::Binary);
    expectIdentical(serial, parallel);
}

// ---------------------------------------------------------------
// CostModel memo under concurrent evaluate()
// ---------------------------------------------------------------

/** Every LayerCost field as a bit pattern, for bit-equality. */
std::vector<std::uint64_t>
costBits(const cost::LayerCost &c)
{
    return {util::doubleBits(c.cycles),
            util::doubleBits(c.latencySec),
            util::doubleBits(c.energyUnits),
            util::doubleBits(c.energyMj),
            util::doubleBits(c.computeCycles),
            util::doubleBits(c.nocCycles),
            util::doubleBits(c.dramCycles),
            util::doubleBits(c.mappingUtil),
            util::doubleBits(c.edgeUtil),
            util::doubleBits(c.effectiveUtil),
            util::doubleBits(c.l2ReadBytes),
            util::doubleBits(c.l2WriteBytes),
            util::doubleBits(c.nocBytes),
            util::doubleBits(c.dramBytes),
            c.l2FootprintBytes,
            c.macs,
            util::doubleBits(c.macEnergy),
            util::doubleBits(c.l1EnergyTotal),
            util::doubleBits(c.l2EnergyTotal),
            util::doubleBits(c.nocEnergyTotal),
            util::doubleBits(c.dramEnergyTotal),
            util::doubleBits(c.staticEnergyTotal)};
}

TEST_F(ParallelDseTest, ConcurrentCostMemoMatchesSerialEvaluation)
{
    // AR/VR-A's unique layers x 3 styles x 2 resource sets,
    // interleaved so concurrent threads race on the same keys.
    const workload::Workload wl = workload::arvrA();
    cost::SubAccResources small_res;
    small_res.numPes = 256;
    small_res.bwGBps = 8.0;
    cost::SubAccResources big_res;
    big_res.numPes = 1024;
    big_res.bwGBps = 16.0;
    const cost::SubAccResources *resources[] = {&small_res, &big_res};

    struct Query
    {
        const dnn::Layer *layer;
        DataflowStyle style;
        const cost::SubAccResources *res;
    };
    std::vector<Query> queries;
    std::set<std::vector<std::uint64_t>> keys;
    for (std::size_t u = 0; u < wl.numUniqueModels(); ++u) {
        for (const dnn::Layer &layer : wl.uniqueModel(u).layers()) {
            for (const DataflowStyle style : dataflow::kAllStyles) {
                for (const cost::SubAccResources *res : resources) {
                    queries.push_back({&layer, style, res});
                    std::vector<std::uint64_t> key;
                    for (std::uint64_t v : layer.canonical().identity())
                        key.push_back(v);
                    key.push_back(static_cast<std::uint64_t>(style));
                    for (std::uint64_t v : res->identity())
                        key.push_back(v);
                    keys.insert(key);
                }
            }
        }
    }
    // Each query twice, the second pass in reverse: hits and misses
    // of the same key land on different threads.
    std::vector<std::size_t> order(2 * queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        order[i] = i;
        order[order.size() - 1 - i] = i;
    }

    cost::CostModel serial;
    std::vector<cost::LayerCost> expected;
    for (const Query &q : queries)
        expected.push_back(serial.evaluate(*q.layer, q.style, *q.res));

    cost::CostModel shared;
    std::vector<cost::LayerCost> got(order.size());
    util::ThreadPool pool(4);
    pool.parallelFor(0, order.size(), [&](std::size_t i) {
        const Query &q = queries[order[i]];
        got[i] = shared.evaluate(*q.layer, q.style, *q.res);
    });
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(costBits(got[i]), costBits(expected[order[i]])) << i;
    EXPECT_EQ(shared.cacheSize(), keys.size());
    EXPECT_EQ(serial.cacheSize(), keys.size());

    // The style is part of the key: same layer and resources under
    // two styles are two entries.
    cost::CostModel two;
    two.evaluate(*queries[0].layer, DataflowStyle::NVDLA, small_res);
    two.evaluate(*queries[0].layer, DataflowStyle::ShiDiannao,
                 small_res);
    EXPECT_EQ(two.cacheSize(), 2u);
}

// ---------------------------------------------------------------
// MemoryTracker vs brute-force reference
// ---------------------------------------------------------------

/** The pre-timeline O(n^2) tracker, kept verbatim as the oracle. */
class BruteTracker
{
  public:
    explicit BruteTracker(std::uint64_t capacity_bytes)
        : capacity(static_cast<double>(capacity_bytes))
    {
    }

    struct Interval
    {
        double start;
        double end;
        double bytes;
    };

    static constexpr double kEps = 1e-6;

    bool
    feasible(double start, double dur, double bytes,
             std::size_t exclude = SIZE_MAX) const
    {
        const double end = start + dur;
        double peak = occupancyAt(start, exclude);
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            if (i == exclude)
                continue;
            const Interval &iv = intervals[i];
            if (iv.start > start && iv.start < end)
                peak = std::max(peak,
                                occupancyAt(iv.start, exclude));
        }
        return peak + bytes <= capacity + kEps;
    }

    double
    firstFeasible(double start, double dur, double bytes) const
    {
        if (bytes > capacity) {
            double latest = start;
            for (const Interval &iv : intervals)
                latest = std::max(latest, iv.end);
            return latest;
        }
        double t = start;
        for (int guard = 0; guard < 1 << 16; ++guard) {
            if (feasible(t, dur, bytes))
                return t;
            double next = std::numeric_limits<double>::infinity();
            for (const Interval &iv : intervals) {
                if (iv.end > t + kEps)
                    next = std::min(next, iv.end);
            }
            if (!std::isfinite(next))
                return t;
            t = next;
        }
        ADD_FAILURE() << "brute tracker failed to converge";
        return t;
    }

    std::size_t
    add(double start, double dur, double bytes)
    {
        intervals.push_back(Interval{start, start + dur, bytes});
        return intervals.size() - 1;
    }

    void
    move(std::size_t idx, double new_start)
    {
        Interval &iv = intervals.at(idx);
        double dur = iv.end - iv.start;
        iv.start = new_start;
        iv.end = new_start + dur;
    }

    double
    occupancyAt(double t, std::size_t exclude = SIZE_MAX) const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            if (i == exclude)
                continue;
            const Interval &iv = intervals[i];
            if (iv.start <= t + kEps && iv.end > t + kEps)
                total += iv.bytes;
        }
        return total;
    }

  private:
    double capacity;
    std::vector<Interval> intervals;
};

TEST(MemoryTrackerTest, MatchesBruteForceOnRandomizedIntervals)
{
    // Integer-valued times and byte counts keep every occupancy sum
    // exact in double arithmetic, so both implementations must agree
    // bit-for-bit on every query.
    const std::uint64_t capacity = 1000;
    util::SplitMix64 rng(42);

    sched::MemoryTracker tracker(capacity);
    BruteTracker brute(capacity);

    // Enough steps to drive the blocked timeline through several
    // block splits (and empty-block erases via move()).
    for (int step = 0; step < 2000; ++step) {
        double start = static_cast<double>(rng.nextBounded(200));
        double dur =
            static_cast<double>(1 + rng.nextBounded(40));
        double bytes =
            static_cast<double>(1 + rng.nextBounded(500));

        std::uint64_t action = rng.nextBounded(10);
        if (action < 5) {
            std::size_t a = tracker.add(start, dur, bytes);
            std::size_t b = brute.add(start, dur, bytes);
            ASSERT_EQ(a, b);
        } else if (action < 7 && tracker.numIntervals() > 0) {
            std::size_t idx =
                rng.nextBounded(tracker.numIntervals());
            tracker.move(idx, start);
            brute.move(idx, start);
        } else if (action < 9) {
            std::size_t exclude =
                tracker.numIntervals() > 0 && rng.nextBounded(2) == 0
                    ? rng.nextBounded(tracker.numIntervals())
                    : SIZE_MAX;
            EXPECT_EQ(tracker.feasible(start, dur, bytes, exclude),
                      brute.feasible(start, dur, bytes, exclude))
                << "step " << step;
        } else {
            EXPECT_EQ(tracker.firstFeasible(start, dur, bytes),
                      brute.firstFeasible(start, dur, bytes))
                << "step " << step;
        }

        // Occupancy probes at random points every step.
        for (int probe = 0; probe < 3; ++probe) {
            double t = static_cast<double>(rng.nextBounded(260));
            EXPECT_EQ(tracker.occupancy(t), brute.occupancyAt(t))
                << "step " << step << " t " << t;
        }
    }
}

TEST(MemoryTrackerTest, OverCapacityRequestSerializesBehindAll)
{
    sched::MemoryTracker tracker(100);
    tracker.add(0.0, 10.0, 50.0);
    tracker.add(5.0, 20.0, 30.0);
    // Larger than capacity: first feasible point is after the last
    // release, matching the reference semantics.
    EXPECT_EQ(tracker.firstFeasible(0.0, 5.0, 200.0), 25.0);
}

TEST(MemoryTrackerTest, FeasibilityRespectsExcludedInterval)
{
    sched::MemoryTracker tracker(100);
    std::size_t idx = tracker.add(0.0, 10.0, 80.0);
    EXPECT_FALSE(tracker.feasible(0.0, 10.0, 50.0));
    // Excluding the resident interval frees its bytes.
    EXPECT_TRUE(tracker.feasible(0.0, 10.0, 50.0, idx));
}

TEST(MemoryTrackerTest, MoveRetimesOccupancy)
{
    sched::MemoryTracker tracker(100);
    std::size_t idx = tracker.add(0.0, 10.0, 60.0);
    EXPECT_EQ(tracker.occupancy(5.0), 60.0);
    tracker.move(idx, 100.0);
    EXPECT_EQ(tracker.occupancy(5.0), 0.0);
    EXPECT_EQ(tracker.occupancy(105.0), 60.0);
}

} // namespace
