/**
 * @file
 * Global-buffer occupancy, read off one lane per sub-accelerator.
 *
 * A sub-accelerator runs one layer at a time, so the buffer intervals
 * it stages form a lane: a start-sorted array of (start, end, bytes)
 * slots in which no slot ends more than kEps after the next one
 * starts. Dispatch appends back-to-back slots; idle-time gap-fill may
 * leave an overhang of at most kEps. Every append and move checks
 * this lane invariant and panics if it breaks.
 *
 * An interval counts at t iff start <= t + kEps < end. Occupancy at t
 * is, per lane, one binary search for the last slot starting by
 * t + kEps and a walk back that stops at the first slot starting at
 * least kEps before t + kEps: by the lane invariant no earlier slot
 * reaches the point. Feasibility of a window checks the window start
 * and every slot start strictly inside it.
 *
 * Most buffers never bind, and the lanes prove it from their own
 * slots before any scan. While no slot has ever ended after its lane
 * successor starts, each lane's slots are disjoint half-open
 * intervals, so at most one per lane counts at any point and
 * occupancy never exceeds the sum of the per-lane maxima of slot
 * bytes. When that sum plus the request fits, feasible() is true and
 * firstFeasible() returns its start without a scan. The maxima and
 * the overlap flag are sticky: retirement and moves never lower or
 * clear them, so the bound holds for every later state. Only a
 * gap-fill overhang (at most kEps) sets the flag.
 *
 * Byte counts are integer-valued doubles, so every sum is exact and
 * each query agrees bit for bit with a brute-force scan over all
 * intervals (asserted in test_parallel_dse.cc). A layer larger than
 * the whole buffer never gets here: LayerCostTable rejects it.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sched/schedule.hh"

namespace herald::sched
{

/** See file comment. */
class BufferLanes
{
  public:
    struct Slot
    {
        double start;
        double end;
        double bytes;
        std::size_t entry; //!< its schedule entry, in commit order
    };
    using Lane = std::vector<Slot>;

    BufferLanes(std::uint64_t capacity_bytes, std::size_t num_lanes)
        : capacity(static_cast<double>(capacity_bytes)),
          lanes(num_lanes), laneMax(num_lanes, 0.0)
    {
    }

    std::size_t numLanes() const { return lanes.size(); }
    const Lane &lane(std::size_t a) const { return lanes[a]; }

    /** Append @p slot as the latest interval of lane @p a. */
    void append(std::size_t a, const Slot &slot);

    /**
     * Retime slot @p from of lane @p a to begin at @p new_start (same
     * duration) and splice it to position @p to <= @p from. Inline:
     * idle-time post-processing calls it once per move.
     */
    void
    move(std::size_t a, std::size_t from, std::size_t to,
         double new_start)
    {
        Lane &lane = lanes[a];
        Slot &s = lane[from];
        s.end = new_start + (s.end - s.start);
        s.start = new_start;
        if (from != to) {
            std::rotate(
                lane.begin() + static_cast<std::ptrdiff_t>(to),
                lane.begin() + static_cast<std::ptrdiff_t>(from),
                lane.begin() + static_cast<std::ptrdiff_t>(from + 1));
        }
        // The slots around `from` were ordered and still are; only
        // the moved slot's new neighbours need a check.
        if (to > 0)
            overlap |= checkOrder(lane[to - 1], lane[to]);
        if (to + 1 < lane.size())
            overlap |= checkOrder(lane[to], lane[to + 1]);
    }

    /**
     * Drop each lane's prefix of slots ending by @p floor_cycle.
     * Every later query must start at or after @p floor_cycle, where
     * such a slot can no longer count.
     */
    void retireBefore(double floor_cycle);

    /** Occupancy at time @p t, optionally skipping one slot. */
    double occupancy(double t, const Slot *exclude = nullptr) const;

    /**
     * Whether no placement of @p bytes can overflow the buffer: the
     * slots never overlapped on a lane and the sum of the per-lane
     * maxima plus @p bytes fits. Then feasible() and firstFeasible()
     * answer without a scan.
     */
    bool cannotBind(double bytes) const;

    /**
     * Whether adding @p bytes over [start, start+dur) keeps occupancy
     * within capacity. @p exclude skips one slot (for moves).
     */
    bool feasible(double start, double dur, double bytes,
                  const Slot *exclude = nullptr) const;

    /**
     * Earliest time >= @p start at which [t, t+dur) with @p bytes is
     * feasible; advances over interval ends. Panics if @p bytes
     * exceeds the whole buffer.
     */
    double firstFeasible(double start, double dur,
                         double bytes) const;

  private:
    /**
     * Panic unless @p next may follow @p prev on one lane; return
     * whether they overlap (@p prev ends after @p next starts).
     */
    static bool
    checkOrder(const Slot &prev, const Slot &next)
    {
        if (next.start < prev.start || prev.end > next.start + kEps)
            disorder(prev, next);
        return prev.end > next.start;
    }

    [[noreturn]] static void disorder(const Slot &prev,
                                      const Slot &next);

    double capacity;
    std::vector<Lane> lanes;
    std::vector<double> laneMax; //!< per lane, the most bytes any slot held
    double laneMaxSum = 0.0;
    bool overlap = false; //!< a slot once ended after its successor began
};

} // namespace herald::sched
