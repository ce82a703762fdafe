/**
 * @file
 * Parallel DSE engine tests: (i) Herald::explore must return
 * bit-identical results (point ordering, summaries, bestIdx) for any
 * thread count, (ii) concurrent CostModel::evaluate() calls must
 * return exactly the serial results and fill one entry per distinct
 * key, and (iii) the per-sub-accelerator buffer lanes must agree
 * with a brute-force occupancy reference on randomized lane-shaped
 * interval sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "accel/accelerator.hh"
#include "cost/cost_model.hh"
#include "dnn/model_zoo.hh"
#include "dse/herald_dse.hh"
#include "sched/buffer_lanes.hh"
#include "sched/herald_scheduler.hh"
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
// Buffer lanes vs brute-force reference
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

/** What one lane-shaped draw reached. */
struct LaneDrawCounts
{
    std::size_t appended = 0, moved = 0, infeasible = 0, deferred = 0;
    std::size_t proven = 0, scanned = 0;
};

/**
 * One randomized draw of lane-shaped intervals into a buffer of
 * @p capacity bytes, checking every query against BruteTracker.
 * Without @p overhangs no slot ends after its lane successor starts,
 * so the lanes' slack proof stays available.
 */
void
drawLaneShaped(std::uint64_t capacity, bool overhangs,
               LaneDrawCounts &n)
{
    // Lane-shaped sets, as the schedulers build them: each
    // sub-accelerator's intervals run back to back, with idle gaps,
    // overhangs of up to kEps past the next start (gap-fill), zero-byte
    // intervals and sub-kEps fault-kill-like intervals; moves retime a
    // slot into the window left of an earlier one, as post-processing
    // does, and retirement drops lane prefixes below a rising floor
    // that every later query respects. Byte counts are integers, so
    // every occupancy sum is exact and both implementations must agree
    // bit for bit on every query.
    using Slot = sched::BufferLanes::Slot;
    constexpr double kEps = BruteTracker::kEps;
    const std::size_t num_lanes = 3;
    util::SplitMix64 rng(42);

    sched::BufferLanes lanes(capacity, num_lanes);
    BruteTracker brute(capacity);
    double floor = 0.0;
    double horizon = 0.0;
    auto duration = [&] {
        return rng.nextBounded(4) == 0
                   ? kEps * rng.nextDouble()
                   : static_cast<double>(1 + rng.nextBounded(40));
    };
    auto random_slot = [&]() -> const Slot * {
        const sched::BufferLanes::Lane &lane =
            lanes.lane(rng.nextBounded(num_lanes));
        return lane.empty() ? nullptr
                            : &lane[rng.nextBounded(lane.size())];
    };

    for (int step = 0; step < 4000; ++step) {
        const std::size_t a = rng.nextBounded(num_lanes);
        const sched::BufferLanes::Lane &lane = lanes.lane(a);
        const std::uint64_t action = rng.nextBounded(20);
        if (action < 8) {
            const double dur = duration();
            const double bytes =
                rng.nextBounded(6) == 0
                    ? 0.0
                    : static_cast<double>(1 + rng.nextBounded(500));
            double start = lane.empty()
                               ? floor + static_cast<double>(
                                             rng.nextBounded(50))
                               : lane.back().end;
            if (rng.nextBounded(3) == 0)
                start += static_cast<double>(rng.nextBounded(30));
            else if (overhangs && rng.nextBounded(2) == 0)
                start -= kEps * rng.nextDouble(); // overhang
            if (!lane.empty() && (start < lane.back().start ||
                                  lane.back().end >
                                      start + (overhangs ? kEps : 0.0)))
                start = lane.back().end;
            const std::size_t id = brute.add(start, dur, bytes);
            lanes.append(a, Slot{start, start + dur, bytes, id});
            horizon = std::max(horizon, start + dur);
            ++n.appended;
        } else if (action < 11 && !lane.empty()) {
            const std::size_t from = rng.nextBounded(lane.size());
            const std::size_t to =
                from - rng.nextBounded(std::min<std::size_t>(from, 4) + 1);
            const Slot s = lane[from];
            const double dur = s.end - s.start;
            const double lo = to == 0 ? floor : lane[to - 1].end;
            const double hi =
                to < from ? lane[to].start
                          : (from + 1 < lane.size() ? lane[from + 1].start
                                                    : s.start + 30.0);
            double new_start = lo + (hi - lo) * rng.nextDouble();
            if (overhangs && rng.nextBounded(3) == 0)
                new_start = (hi + kEps) - dur; // maximal overhang
            if (new_start < lo || new_start > hi ||
                new_start + dur > hi + (overhangs ? kEps : 0.0))
                continue;
            lanes.move(a, from, to, new_start);
            brute.move(s.entry, new_start);
            ++n.moved;
        } else if (action < 12) {
            floor = std::min(horizon, floor + static_cast<double>(
                                                  rng.nextBounded(60)));
            lanes.retireBefore(floor);
        } else {
            // Probe at random, just above the floor, and within kEps
            // of an interval boundary; some windows end within kEps
            // of an interval start.
            const double offsets[] = {-kEps, -kEps / 2, 0.0, kEps / 2,
                                      kEps};
            auto jitter = [&] { return offsets[rng.nextBounded(5)]; };
            const Slot *near = random_slot();
            double t =
                floor + (horizon + 20.0 - floor) * rng.nextDouble();
            const std::uint64_t probe = rng.nextBounded(3);
            if (probe == 1)
                t = floor + static_cast<double>(rng.nextBounded(5)) +
                    jitter();
            else if (probe == 2 && near != nullptr)
                t = (rng.nextBounded(2) ? near->start : near->end) +
                    jitter();
            t = std::max(t, floor);
            double dur = duration();
            if (near != nullptr && near->start > t &&
                rng.nextBounded(3) == 0)
                dur = (near->start - t) + std::abs(jitter());
            const double bytes =
                static_cast<double>(1 + rng.nextBounded(600));
            const Slot *exclude =
                rng.nextBounded(2) == 0 ? random_slot() : nullptr;
            const std::size_t exclude_id =
                exclude == nullptr ? SIZE_MAX : exclude->entry;
            const bool proven = lanes.cannotBind(bytes);
            ASSERT_EQ(lanes.occupancy(t, exclude),
                      brute.occupancyAt(t, exclude_id))
                << "step " << step << " t " << t;
            const bool fits = lanes.feasible(t, dur, bytes, exclude);
            ASSERT_EQ(fits, brute.feasible(t, dur, bytes, exclude_id))
                << "step " << step << " t " << t;
            const double first = lanes.firstFeasible(t, dur, bytes);
            ASSERT_EQ(first, brute.firstFeasible(t, dur, bytes))
                << "step " << step << " t " << t;
            n.infeasible += !fits;
            n.deferred += first > t;
            n.proven += proven;
            n.scanned += !proven;
        }
    }
}

TEST(BufferLanesTest, MatchesBruteForceOnLaneShapedIntervals)
{
    // The draw must reach what it claims to: moves, and a buffer
    // that binds.
    LaneDrawCounts n;
    drawLaneShaped(1000, /*overhangs=*/true, n);
    EXPECT_GT(n.appended, 1000u);
    EXPECT_GT(n.moved, 100u);
    EXPECT_GT(n.infeasible, 0u);
    EXPECT_GT(n.deferred, 0u);

    // Without overhangs, a capacity between the per-lane maxima (up
    // to 3 x 500 B) and their sum plus the largest request (600 B)
    // puts queries on both sides of the slack proof: the proven
    // answers and the scanned ones must both match the brute force.
    LaneDrawCounts slack;
    drawLaneShaped(1800, /*overhangs=*/false, slack);
    EXPECT_GT(slack.moved, 100u);
    EXPECT_GT(slack.proven, 300u);
    EXPECT_GT(slack.scanned, 300u);
    EXPECT_GT(slack.infeasible, 0u);
}

TEST(BufferLanesTest, FeasibilityRespectsExcludedSlot)
{
    sched::BufferLanes lanes(100, 1);
    lanes.append(0, {0.0, 10.0, 80.0, 0});
    EXPECT_FALSE(lanes.feasible(0.0, 10.0, 50.0));
    // Excluding the resident slot frees its bytes.
    EXPECT_TRUE(lanes.feasible(0.0, 10.0, 50.0, &lanes.lane(0)[0]));
}

TEST(BufferLanesTest, ExcludedSlotStartIsNoCheckpoint)
{
    // The excluded slot starts inside the window, within kEps of a
    // slot that starts just past the window end. Checking occupancy
    // at the excluded start would count that later slot.
    sched::BufferLanes lanes(100, 3);
    lanes.append(0, {0.0, 10.0, 50.0, 0});
    lanes.append(1, {9.9999995, 20.0, 30.0, 1});
    lanes.append(2, {10.0000001, 30.0, 70.0, 2});
    EXPECT_TRUE(lanes.feasible(0.0, 10.0, 40.0, &lanes.lane(1)[0]));
}

TEST(BufferLanesTest, FirstFeasibleTakesTheEarliestEnd)
{
    // A sub-kEps interval inside the previous slot's overhang ends
    // first, although it starts later.
    sched::BufferLanes lanes(100, 1);
    lanes.append(0, {10.0, 20.0000005, 80.0, 0});
    lanes.append(0, {20.0, 20.0000002, 80.0, 1});
    EXPECT_EQ(lanes.firstFeasible(0.0, 15.0, 50.0), 20.0000002);
}

TEST(BufferLanesTest, MoveRetimesAndSplicesOccupancy)
{
    sched::BufferLanes lanes(100, 1);
    lanes.append(0, {0.0, 10.0, 60.0, 0});
    EXPECT_EQ(lanes.occupancy(5.0), 60.0);
    lanes.move(0, 0, 0, 100.0);
    EXPECT_EQ(lanes.occupancy(5.0), 0.0);
    EXPECT_EQ(lanes.occupancy(105.0), 60.0);

    // A gap-fill move: the later slot lands before the first one.
    lanes.append(0, {120.0, 130.0, 30.0, 1});
    lanes.move(0, 1, 0, 50.0);
    ASSERT_EQ(lanes.lane(0)[0].entry, 1u);
    EXPECT_EQ(lanes.occupancy(55.0), 30.0);
    EXPECT_EQ(lanes.occupancy(125.0), 0.0);
}

TEST(BufferLanesTest, OverhangSendsSlackLanesBackToTheScan)
{
    // One lane of 100-B slots provably leaves room for 900 B, until
    // a gap-fill move leaves the moved slot ending kEps/2 after its
    // new successor starts: two slots of the lane may then count at
    // once, so the proof is off for good and the scan answers.
    sched::BufferLanes lanes(1000, 1);
    lanes.append(0, {0.0, 10.0, 100.0, 0});
    lanes.append(0, {20.0, 30.0, 100.0, 1});
    lanes.append(0, {40.0, 45.0, 100.0, 2});
    EXPECT_TRUE(lanes.cannotBind(900.0));
    lanes.move(0, 2, 1, 15.0 + 5e-7);
    EXPECT_FALSE(lanes.cannotBind(0.0));
    EXPECT_EQ(lanes.occupancy(20.0 - 6e-7), 200.0);
    EXPECT_FALSE(lanes.feasible(20.0 - 6e-7, 1.0, 900.0));
    EXPECT_TRUE(lanes.feasible(20.0 - 6e-7, 1.0, 800.0));
}

TEST(BufferLanesTest, FirstFeasiblePanicsOnRequestLargerThanBuffer)
{
    // No release can make room for more bytes than the whole buffer.
    sched::BufferLanes lanes(100, 1);
    lanes.append(0, {0.0, 10.0, 50.0, 0});
    EXPECT_THROW(lanes.firstFeasible(0.0, 5.0, 150.0), std::logic_error);
}

TEST(BufferLanesTest, OutOfOrderIntervalPanics)
{
    sched::BufferLanes lanes(100, 1);
    lanes.append(0, {10.0, 20.0, 10.0, 0});
    // Overlapping the previous slot by more than kEps.
    EXPECT_THROW(lanes.append(0, {15.0, 30.0, 10.0, 1}),
                 std::logic_error);
    // Starting before it.
    EXPECT_THROW(lanes.append(0, {5.0, 5.0, 10.0, 1}),
                 std::logic_error);
}

TEST(BufferLanesTest, LayerLargerThanWholeBufferIsRejected)
{
    // At 16 KiB one AR/VR-A layer's smallest staging tile (19,916 B)
    // overflows the whole global buffer; the schedule could never
    // satisfy the buffer, so building its cost table fails.
    util::setVerbose(false);
    accel::AcceleratorClass tiny = accel::edgeClass();
    tiny.globalBufferBytes = 16ull << 10;
    const accel::Accelerator acc = accel::Accelerator::makeHda(
        tiny, {DataflowStyle::NVDLA, DataflowStyle::ShiDiannao},
        {512, 512}, {8.0, 8.0});
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model);
    EXPECT_THROW(scheduler.schedule(workload::arvrA(), acc),
                 std::runtime_error);
}

} // namespace
