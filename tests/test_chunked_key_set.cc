/**
 * @file
 * sched::ChunkedKeySet against std::set<std::pair<double, size_t>>:
 * randomized differential runs of insert, erase, rekey, front,
 * lowerBound and rekeyAll under the key shapes the dispatch engine
 * produces (FIFO's constant key, shared EDF deadlines, LST slack,
 * +inf for deadline-free frames), at sizes from empty to ~5,000 items
 * so chunks split, empty and are dropped. After every operation both
 * sets must hold the same items in the same order.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sched/chunked_key_set.hh"
#include "util/math_utils.hh"

namespace
{

using herald::sched::ChunkedKeySet;
using Item = ChunkedKeySet::Item;
using Reference = std::set<Item>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** How keys are drawn: the dispatch engine's three policies. */
enum class Keys
{
    Constant,  //!< FIFO: every key 0
    Deadlines, //!< EDF: a few shared deadlines, some +inf
    Slack,     //!< LST: spread values, ties and +inf
};

double
drawKey(Keys keys, herald::util::SplitMix64 &rng)
{
    switch (keys) {
      case Keys::Constant:
        return 0.0;
      case Keys::Deadlines:
        return rng.nextBounded(5) == 0
                   ? kInf
                   : 1e6 * static_cast<double>(1 + rng.nextBounded(4));
      case Keys::Slack:
        if (rng.nextBounded(8) == 0)
            return kInf;
        if (rng.nextBounded(4) == 0)
            return 5e5; // a tie band
        return 1e6 * rng.nextDouble() - 2e5;
    }
    return 0.0;
}

void
expectSameOrder(const ChunkedKeySet &set, const Reference &ref)
{
    ASSERT_EQ(set.size(), ref.size());
    ASSERT_EQ(set.empty(), ref.empty());
    auto want = ref.begin();
    std::size_t pos = 0;
    std::size_t first_diff = SIZE_MAX;
    set.forEach([&](const Item &it) {
        if (first_diff == SIZE_MAX &&
            (want == ref.end() || *want != it))
            first_diff = pos;
        if (want != ref.end())
            ++want;
        ++pos;
    });
    ASSERT_EQ(pos, ref.size());
    ASSERT_EQ(first_diff, SIZE_MAX) << "orders differ at " << first_diff;
    if (!ref.empty()) {
        ASSERT_EQ(set.front(), *ref.begin());
    }
}

/**
 * Random operations that walk the set size through @p targets; every
 * operation is mirrored on a std::set and the two are compared after
 * it.
 */
void
runDifferential(Keys keys, std::uint64_t seed,
                const std::vector<std::size_t> &targets)
{
    herald::util::SplitMix64 rng(seed);
    ChunkedKeySet set;
    Reference ref;
    std::vector<double> keyOf; // by id; only read for live ids
    std::vector<std::size_t> live;
    std::size_t ops = 0;

    auto pick = [&]() {
        return static_cast<std::size_t>(rng.nextBounded(live.size()));
    };
    auto insert_new = [&]() {
        const std::size_t id = keyOf.size();
        keyOf.push_back(drawKey(keys, rng));
        set.insert({keyOf[id], id});
        ref.insert({keyOf[id], id});
        live.push_back(id);
    };
    auto erase_one = [&]() {
        const std::size_t at = pick();
        const std::size_t id = live[at];
        set.erase({keyOf[id], id});
        ref.erase({keyOf[id], id});
        live[at] = live.back();
        live.pop_back();
    };
    auto rekey_one = [&]() {
        const std::size_t id = live[pick()];
        // Half the re-keys nudge the key (LST slack relaxing by one
        // layer, which mostly stays inside the chunk), half redraw it.
        const double key = rng.nextBounded(2) == 0
                               ? keyOf[id] + 1e3 * rng.nextDouble()
                               : drawKey(keys, rng);
        set.rekey({keyOf[id], id}, key);
        ref.erase({keyOf[id], id});
        ref.insert({key, id});
        keyOf[id] = key;
    };
    auto probe = [&]() {
        const Item q{rng.nextBounded(3) == 0 || live.empty()
                         ? drawKey(keys, rng)
                         : keyOf[live[pick()]],
                     static_cast<std::size_t>(
                         rng.nextBounded(keyOf.size() + 2))};
        const Item *got = set.lowerBound(q);
        const auto want = ref.lower_bound(q);
        if (want == ref.end()) {
            EXPECT_EQ(got, nullptr);
        } else {
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(*got, *want);
        }
    };
    auto rekey_all = [&]() {
        std::vector<char> seen(keyOf.size(), 0);
        Reference next;
        set.rekeyAll([&](std::size_t id) {
            EXPECT_FALSE(seen[id]) << "id " << id << " re-keyed twice";
            seen[id] = 1;
            keyOf[id] = drawKey(keys, rng);
            next.insert({keyOf[id], id});
            return keyOf[id];
        });
        EXPECT_EQ(next.size(), ref.size());
        ref.swap(next);
    };

    for (const std::size_t target : targets) {
        while (live.size() != target) {
            const bool grow = live.size() < target;
            const std::uint64_t r = rng.nextBounded(100);
            if (r < 50 || (r < 60 && live.empty())) {
                if (grow)
                    insert_new();
                else
                    erase_one();
            } else if (r < 60) {
                if (grow)
                    erase_one();
                else
                    insert_new();
            } else if (r < 85 && !live.empty()) {
                rekey_one();
            } else {
                probe();
            }
            if (++ops % 997 == 0)
                rekey_all();
            expectSameOrder(set, ref);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(ops, 10000u);
}

const std::vector<std::size_t> kSizeWalk = {200, 0,  5000, 100, 3000,
                                            0,   64, 65,   0,   1};

TEST(ChunkedKeySetTest, MatchesStdSetUnderConstantKeys)
{
    runDifferential(Keys::Constant, 1, kSizeWalk);
}

TEST(ChunkedKeySetTest, MatchesStdSetUnderSharedDeadlines)
{
    runDifferential(Keys::Deadlines, 2, kSizeWalk);
}

TEST(ChunkedKeySetTest, MatchesStdSetUnderSlackKeys)
{
    runDifferential(Keys::Slack, 3, kSizeWalk);
}

TEST(ChunkedKeySetTest, EmptySetAnswersWithoutChunks)
{
    ChunkedKeySet set;
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.lowerBound({0.0, 0}), nullptr);
    set.rekeyAll([](std::size_t) { return 0.0; });
    EXPECT_TRUE(set.empty());

    // Empty out a lone chunk, then use the set again.
    set.insert({1.0, 7});
    set.erase({1.0, 7});
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.lowerBound({-kInf, 0}), nullptr);
    set.insert({kInf, 3});
    ASSERT_NE(set.lowerBound({-kInf, 0}), nullptr);
    EXPECT_EQ(*set.lowerBound({-kInf, 0}), Item(kInf, 3));
    EXPECT_EQ(set.lowerBound({kInf, 4}), nullptr);
    EXPECT_EQ(set.front(), Item(kInf, 3));
}

TEST(ChunkedKeySetTest, ReKeyAcrossChunksKeepsOrder)
{
    // 5,000 items in ascending and then descending id order under
    // one key split chunks at both ends; re-keying the front item
    // past the back crosses every chunk boundary.
    ChunkedKeySet set;
    Reference ref;
    for (std::size_t i = 0; i < 2500; ++i) {
        set.insert({0.0, i});
        ref.insert({0.0, i});
        set.insert({0.0, 4999 - i});
        ref.insert({0.0, 4999 - i});
    }
    expectSameOrder(set, ref);
    for (std::size_t i = 0; i < 100; ++i) {
        const Item head = set.front();
        set.rekey(head, 1.0);
        ref.erase(head);
        ref.insert({1.0, head.second});
        expectSameOrder(set, ref);
    }
    while (!ref.empty()) {
        const Item head = set.front();
        set.erase(head);
        ref.erase(head);
        ASSERT_EQ(set.size(), ref.size());
    }
    EXPECT_TRUE(set.empty());
}

} // namespace
