/**
 * @file
 * util/pareto tests: the dominance relation (two- and
 * three-objective), Pareto-front extraction (insertion of
 * non-dominated points, eviction of dominated ones, tie handling),
 * the index view, input-order determinism, and the min-EDP picker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/pareto.hh"

namespace
{

using herald::util::DesignPoint;
using herald::util::dominates;
using herald::util::paretoFront;
using herald::util::paretoFrontIndices;

DesignPoint
pt(double latency, double energy, const char *label = "")
{
    return DesignPoint{latency, energy, label};
}

DesignPoint
pt3(double latency, double energy, double misses,
    const char *label = "")
{
    DesignPoint p{latency, energy, label};
    p.slaMisses = misses;
    return p;
}

TEST(ParetoTest, DominanceRelation)
{
    // Strictly better in both axes.
    EXPECT_TRUE(dominates(pt(1.0, 1.0), pt(2.0, 2.0)));
    EXPECT_FALSE(dominates(pt(2.0, 2.0), pt(1.0, 1.0)));
    // Tie on one axis, strictly better on the other.
    EXPECT_TRUE(dominates(pt(1.0, 2.0), pt(1.0, 3.0)));
    EXPECT_TRUE(dominates(pt(1.0, 2.0), pt(4.0, 2.0)));
    // Equal points dominate in neither direction.
    EXPECT_FALSE(dominates(pt(1.0, 2.0), pt(1.0, 2.0)));
    // Incomparable (each wins one axis): no dominance either way.
    EXPECT_FALSE(dominates(pt(1.0, 3.0), pt(3.0, 1.0)));
    EXPECT_FALSE(dominates(pt(3.0, 1.0), pt(1.0, 3.0)));
}

TEST(ParetoTest, FrontKeepsNonDominatedAndEvictsDominated)
{
    // Three frontier points plus two dominated interior points.
    const std::vector<DesignPoint> points = {
        pt(3.0, 1.0, "fast-energy"), pt(1.0, 3.0, "fast-latency"),
        pt(2.0, 2.0, "balanced"),    pt(2.5, 2.5, "dominated"),
        pt(3.5, 3.5, "dominated2"),
    };
    const std::vector<DesignPoint> front = paretoFront(points);
    ASSERT_EQ(front.size(), 3u);
    // Sorted by ascending latency, and every survivor is mutually
    // non-dominated.
    EXPECT_EQ(front[0].label, "fast-latency");
    EXPECT_EQ(front[1].label, "balanced");
    EXPECT_EQ(front[2].label, "fast-energy");
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_TRUE(std::is_sorted(
            front.begin(), front.end(),
            [](const DesignPoint &a, const DesignPoint &b) {
                return a.latency < b.latency;
            }));
        for (std::size_t j = 0; j < front.size(); ++j)
            EXPECT_FALSE(dominates(front[i], front[j]))
                << i << " dominates " << j;
    }
    // Every evicted point is dominated by some survivor.
    for (const DesignPoint &p : points) {
        const bool kept =
            std::any_of(front.begin(), front.end(),
                        [&](const DesignPoint &f) {
                            return f.latency == p.latency &&
                                   f.energy == p.energy;
                        });
        if (!kept) {
            EXPECT_TRUE(std::any_of(front.begin(), front.end(),
                                    [&](const DesignPoint &f) {
                                        return dominates(f, p);
                                    }))
                << p.label << " evicted but undominated";
        }
    }
}

TEST(ParetoTest, FrontHandlesTiesAndDegenerateSets)
{
    // A single point is its own front.
    EXPECT_EQ(paretoFront({pt(1.0, 1.0)}).size(), 1u);
    // An empty set stays empty.
    EXPECT_TRUE(paretoFront({}).empty());
    // Duplicate coordinates collapse to one representative.
    const std::vector<DesignPoint> front = paretoFront(
        {pt(1.0, 1.0, "a"), pt(1.0, 1.0, "b"), pt(2.0, 0.5, "c")});
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].latency, 1.0);
    EXPECT_EQ(front[1].label, "c");
    // Equal-latency points: only the lowest-energy one survives.
    const std::vector<DesignPoint> tied =
        paretoFront({pt(1.0, 5.0, "hi"), pt(1.0, 2.0, "lo")});
    ASSERT_EQ(tied.size(), 1u);
    EXPECT_EQ(tied[0].label, "lo");
}

TEST(ParetoTest, FrontIsInputOrderDeterministic)
{
    std::vector<DesignPoint> points = {
        pt(5.0, 1.0), pt(1.0, 5.0), pt(3.0, 3.0),
        pt(4.0, 4.0), pt(2.0, 6.0), pt(6.0, 0.5),
    };
    const std::vector<DesignPoint> ref = paretoFront(points);
    // Every rotation of the input yields the same front, point for
    // point — the sweep canonicalizes by sorting first.
    for (std::size_t r = 1; r < points.size(); ++r) {
        std::rotate(points.begin(), points.begin() + 1, points.end());
        const std::vector<DesignPoint> front = paretoFront(points);
        ASSERT_EQ(front.size(), ref.size()) << "rotation " << r;
        for (std::size_t i = 0; i < front.size(); ++i) {
            EXPECT_EQ(front[i].latency, ref[i].latency);
            EXPECT_EQ(front[i].energy, ref[i].energy);
        }
    }
}

TEST(ParetoTest, ThirdAxisDominance)
{
    // The SLA axis participates in dominance like the other two.
    EXPECT_TRUE(dominates(pt3(1.0, 1.0, 0.0), pt3(1.0, 1.0, 2.0)));
    EXPECT_FALSE(dominates(pt3(1.0, 1.0, 2.0), pt3(1.0, 1.0, 0.0)));
    // Better latency/energy but more misses: incomparable.
    EXPECT_FALSE(dominates(pt3(1.0, 1.0, 3.0), pt3(2.0, 2.0, 0.0)));
    EXPECT_FALSE(dominates(pt3(2.0, 2.0, 0.0), pt3(1.0, 1.0, 3.0)));
    // Defaulted third axis (0) reproduces classic 2-D dominance.
    EXPECT_TRUE(dominates(pt(1.0, 1.0), pt3(2.0, 2.0, 0.0)));
}

TEST(ParetoTest, ThreeObjectiveFrontKeepsMissTradeoffs)
{
    // A point that loses on latency and energy survives by winning
    // the SLA axis; a point dominated on all three is evicted.
    const std::vector<DesignPoint> points = {
        pt3(1.0, 2.0, 4.0, "fast-but-missy"),
        pt3(3.0, 3.0, 0.0, "slow-but-clean"),
        pt3(3.5, 3.5, 1.0, "dominated"),
    };
    const std::vector<DesignPoint> front = paretoFront(points);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].label, "fast-but-missy");
    EXPECT_EQ(front[1].label, "slow-but-clean");
}

TEST(ParetoTest, FrontIndicesMatchFrontAndCollapseDuplicates)
{
    const std::vector<DesignPoint> points = {
        pt3(2.0, 2.0, 0.0, "dup-late"), pt3(1.0, 3.0, 0.0, "a"),
        pt3(2.0, 2.0, 0.0, "dup-early"), pt3(5.0, 5.0, 5.0, "bad"),
    };
    const std::vector<std::size_t> idx = paretoFrontIndices(points);
    const std::vector<DesignPoint> front = paretoFront(points);
    ASSERT_EQ(idx.size(), front.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
        EXPECT_EQ(points[idx[i]].latency, front[i].latency);
        EXPECT_EQ(points[idx[i]].energy, front[i].energy);
    }
    // Exact duplicates keep the lowest original index (position 0,
    // "dup-late", beats position 2 despite identical coordinates).
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
}

} // namespace
