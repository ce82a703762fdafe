#include "sched/buffer_lanes.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/schedule.hh"
#include "util/logging.hh"

namespace herald::sched
{

namespace
{

using Slot = BufferLanes::Slot;
using Lane = BufferLanes::Lane;

/** First slot of @p lane starting after @p x. */
Lane::const_iterator
startsAfter(const Lane &lane, double x)
{
    return std::partition_point(
        lane.begin(), lane.end(),
        [x](const Slot &s) { return s.start <= x; });
}

/**
 * Visit every slot before @p after that covers @p x (start <= x <
 * end), walking back from @p after. Each slot ends by its successor's
 * start + kEps, so once a slot starts at least kEps before x, no
 * earlier slot reaches x.
 */
template <typename Visit>
void
walkBack(const Lane &lane, Lane::const_iterator after, double x,
         Visit &&visit)
{
    while (after != lane.begin()) {
        const Slot &s = *--after;
        if (s.end > x)
            visit(s);
        if (s.start + kEps <= x)
            return;
    }
}

} // namespace

void
BufferLanes::disorder(const Slot &prev, const Slot &next)
{
    util::panic("buffer lanes: interval [", next.start, ", ", next.end,
                ") cannot follow [", prev.start, ", ", prev.end,
                ") on one sub-accelerator");
}

bool
BufferLanes::cannotBind(double bytes) const
{
    // Without overlap at most one slot per lane counts at any point,
    // so occupancy(t, exclude) <= laneMaxSum; both sums are exact.
    return !overlap && laneMaxSum + bytes <= capacity + kEps;
}

void
BufferLanes::append(std::size_t a, const Slot &slot)
{
    Lane &lane = lanes[a];
    if (!lane.empty())
        overlap |= checkOrder(lane.back(), slot);
    if (slot.bytes > laneMax[a]) {
        laneMaxSum += slot.bytes - laneMax[a];
        laneMax[a] = slot.bytes;
    }
    lane.push_back(slot);
}

void
BufferLanes::retireBefore(double floor_cycle)
{
    for (Lane &lane : lanes) {
        auto live = std::find_if(
            lane.begin(), lane.end(),
            [floor_cycle](const Slot &s) { return s.end > floor_cycle; });
        lane.erase(lane.begin(), live);
    }
}

double
BufferLanes::occupancy(double t, const Slot *exclude) const
{
    const double x = t + kEps;
    double total = 0.0;
    for (const Lane &lane : lanes) {
        walkBack(lane, startsAfter(lane, x), x, [&](const Slot &s) {
            if (&s != exclude)
                total += s.bytes;
        });
    }
    return total;
}

bool
BufferLanes::feasible(double start, double dur, double bytes,
                      const Slot *exclude) const
{
    if (cannotBind(bytes))
        return true;
    // Occupancy is piecewise constant: check the window start and
    // every slot start strictly inside the window.
    auto fits = [&](double t) {
        return occupancy(t, exclude) + bytes <= capacity + kEps;
    };
    if (!fits(start))
        return false;
    const double end = start + dur;
    for (const Lane &lane : lanes) {
        for (auto it = startsAfter(lane, start);
             it != lane.end() && it->start < end; ++it) {
            if (&*it != exclude && !fits(it->start))
                return false;
        }
    }
    return true;
}

double
BufferLanes::firstFeasible(double start, double dur,
                           double bytes) const
{
    if (cannotBind(bytes))
        return start;
    double t = start;
    for (int guard = 0; guard < 1 << 16; ++guard) {
        if (feasible(t, dur, bytes))
            return t;
        // Jump to the next release that could lower occupancy: the
        // earliest end after t + kEps. Per lane that is a covering
        // slot or one starting later; a later slot cannot end before
        // it starts, so the forward scan stops at the running best.
        const double x = t + kEps;
        double next = std::numeric_limits<double>::infinity();
        for (const Lane &lane : lanes) {
            const auto after = startsAfter(lane, x);
            walkBack(lane, after, x, [&](const Slot &s) {
                next = std::min(next, s.end);
            });
            for (auto it = after; it != lane.end() && it->start < next;
                 ++it)
                next = std::min(next, it->end);
        }
        if (!std::isfinite(next))
            util::panic("buffer lanes: ", bytes,
                        " bytes exceed the whole buffer of ", capacity);
        t = next;
    }
    util::panic("buffer lanes: first feasible start failed to "
                "converge");
}

} // namespace herald::sched
