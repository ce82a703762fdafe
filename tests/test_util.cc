/**
 * @file
 * Unit tests for the util module: math helpers, Pareto extraction,
 * table formatting and the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/pareto.hh"
#include "util/table.hh"

namespace
{

using namespace herald::util;

TEST(CeilDiv, ExactDivision)
{
    EXPECT_EQ(ceilDiv(12, 4), 3u);
}

TEST(CeilDiv, RoundsUp)
{
    EXPECT_EQ(ceilDiv(13, 4), 4u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
}

TEST(CeilDiv, ZeroNumerator)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
}

TEST(CeilDiv, ZeroDenominatorPanics)
{
    EXPECT_THROW(ceilDiv(4, 0), std::logic_error);
}

TEST(Isqrt, Values)
{
    EXPECT_EQ(isqrt(0), 0u);
    EXPECT_EQ(isqrt(1), 1u);
    EXPECT_EQ(isqrt(15), 3u);
    EXPECT_EQ(isqrt(16), 4u);
    EXPECT_EQ(isqrt(17), 4u);
}

TEST(SplitMix64, Deterministic)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, BoundedRange)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Pareto, Dominance)
{
    DesignPoint a{1.0, 1.0, "a"};
    DesignPoint b{2.0, 2.0, "b"};
    DesignPoint c{1.0, 2.0, "c"};
    EXPECT_TRUE(dominates(a, b));
    EXPECT_TRUE(dominates(a, c));
    EXPECT_FALSE(dominates(b, a));
    EXPECT_FALSE(dominates(a, a));
}

TEST(Pareto, FrontExtraction)
{
    std::vector<DesignPoint> points{
        {3.0, 1.0, "p0"}, {1.0, 3.0, "p1"}, {2.0, 2.0, "p2"},
        {3.0, 3.0, "dominated"}, {2.5, 2.5, "dominated2"}};
    auto front = paretoFront(points);
    ASSERT_EQ(front.size(), 3u);
    EXPECT_EQ(front[0].label, "p1");
    EXPECT_EQ(front[1].label, "p2");
    EXPECT_EQ(front[2].label, "p0");
}

TEST(Pareto, FrontSortedByLatency)
{
    std::vector<DesignPoint> points{
        {5.0, 0.5, "x"}, {0.5, 5.0, "y"}, {2.0, 2.0, "z"}};
    auto front = paretoFront(points);
    for (std::size_t i = 1; i < front.size(); ++i)
        EXPECT_LE(front[i - 1].latency, front[i].latency);
}

TEST(Table, AlignedOutput)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, ArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Format, FmtDouble)
{
    EXPECT_EQ(fmtDouble(1.5, 3), "1.500");
    EXPECT_EQ(fmtDouble(0.0, 2), "0.00");
}

TEST(Format, FmtPercent)
{
    EXPECT_EQ(fmtPercent(-0.653), "-65.3%");
    EXPECT_EQ(fmtPercent(0.05), "+5.0%");
}

TEST(Logging, FatalThrowsRuntimeError)
{
    herald::util::setVerbose(false);
    EXPECT_THROW(herald::util::fatal("user error"),
                 std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(herald::util::panic("bug"), std::logic_error);
}

TEST(Logging, WarnDoesNotThrow)
{
    EXPECT_NO_THROW(herald::util::warn("just a warning"));
}

} // namespace
