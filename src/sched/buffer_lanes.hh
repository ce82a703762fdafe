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
 * Byte counts are integer-valued doubles, so every sum is exact and
 * each query agrees bit for bit with a brute-force scan over all
 * intervals (asserted in test_parallel_dse.cc). A layer larger than
 * the whole buffer never gets here: LayerCostTable rejects it.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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
          lanes(num_lanes)
    {
    }

    std::size_t numLanes() const { return lanes.size(); }
    const Lane &lane(std::size_t a) const { return lanes[a]; }

    /** Append @p slot as the latest interval of lane @p a. */
    void append(std::size_t a, const Slot &slot);

    /**
     * Retime slot @p from of lane @p a to begin at @p new_start (same
     * duration) and splice it to position @p to <= @p from.
     */
    void move(std::size_t a, std::size_t from, std::size_t to,
              double new_start);

    /**
     * Drop each lane's prefix of slots ending by @p floor_cycle.
     * Every later query must start at or after @p floor_cycle, where
     * such a slot can no longer count.
     */
    void retireBefore(double floor_cycle);

    /** Occupancy at time @p t, optionally skipping one slot. */
    double occupancy(double t, const Slot *exclude = nullptr) const;

    /**
     * Whether adding @p bytes over [start, start+dur) keeps occupancy
     * within capacity. @p exclude skips one slot (for moves).
     */
    bool feasible(double start, double dur, double bytes,
                  const Slot *exclude = nullptr) const;

    /**
     * Earliest time >= @p start at which [t, t+dur) with @p bytes is
     * feasible; advances over interval ends.
     */
    double firstFeasible(double start, double dur,
                         double bytes) const;

  private:
    double capacity;
    std::vector<Lane> lanes;
};

} // namespace herald::sched
