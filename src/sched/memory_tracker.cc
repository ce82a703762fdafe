#include "sched/memory_tracker.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/schedule.hh"
#include "util/logging.hh"

namespace herald::sched
{

// ------------------------------------------------------------------
// Fenwick tree over per-block delta sums
// ------------------------------------------------------------------

void
MemoryTracker::rebuildFenwick()
{
    const std::size_t n = blocks.size();
    fenwick.assign(n + 1, 0.0);
    for (std::size_t b = 0; b < n; ++b)
        fenwickAdd(b, blocks[b].deltaSum);
}

void
MemoryTracker::fenwickAdd(std::size_t block, double delta)
{
    for (std::size_t i = block + 1; i < fenwick.size();
         i += i & (~i + 1))
        fenwick[i] += delta;
}

double
MemoryTracker::fenwickPrefix(std::size_t block) const
{
    double sum = 0.0;
    for (std::size_t i = block; i > 0; i -= i & (~i + 1))
        sum += fenwick[i];
    return sum;
}

// ------------------------------------------------------------------
// Blocked timeline positions
// ------------------------------------------------------------------

MemoryTracker::Pos
MemoryTracker::upperBound(double t) const
{
    // First block whose last event time > t, then the in-block upper
    // bound. Blocks are non-empty and time-ordered.
    auto bit = std::partition_point(
        blocks.begin(), blocks.end(),
        [t](const Block &b) { return b.ev.back().time <= t; });
    if (bit == blocks.end())
        return Pos{blocks.size(), 0};
    auto eit = std::upper_bound(
        bit->ev.begin(), bit->ev.end(), t,
        [](double value, const Event &e) { return value < e.time; });
    return Pos{static_cast<std::size_t>(bit - blocks.begin()),
               static_cast<std::size_t>(eit - bit->ev.begin())};
}

MemoryTracker::Pos
MemoryTracker::lowerBound(double t) const
{
    auto bit = std::partition_point(
        blocks.begin(), blocks.end(),
        [t](const Block &b) { return b.ev.back().time < t; });
    if (bit == blocks.end())
        return Pos{blocks.size(), 0};
    auto eit = std::lower_bound(
        bit->ev.begin(), bit->ev.end(), t,
        [](const Event &e, double value) { return e.time < value; });
    return Pos{static_cast<std::size_t>(bit - blocks.begin()),
               static_cast<std::size_t>(eit - bit->ev.begin())};
}

double
MemoryTracker::prefixSumBefore(Pos p) const
{
    if (p.block == blocks.size())
        return fenwickPrefix(blocks.size());
    double sum = fenwickPrefix(p.block);
    const std::vector<Event> &ev = blocks[p.block].ev;
    for (std::size_t i = 0; i < p.off; ++i)
        sum += ev[i].delta;
    return sum;
}

// ------------------------------------------------------------------
// Event maintenance
// ------------------------------------------------------------------

void
MemoryTracker::splitBlock(std::size_t b)
{
    std::vector<Event> &ev = blocks[b].ev;
    const std::size_t half = ev.size() / 2;
    Block tail;
    tail.ev.assign(ev.begin() + static_cast<std::ptrdiff_t>(half),
                   ev.end());
    ev.resize(half);
    blocks[b].deltaSum = 0.0;
    for (const Event &e : ev)
        blocks[b].deltaSum += e.delta;
    for (const Event &e : tail.ev)
        tail.deltaSum += e.delta;
    blocks.insert(blocks.begin() + static_cast<std::ptrdiff_t>(b + 1),
                  std::move(tail));
    rebuildFenwick();
}

void
MemoryTracker::insertEvent(double time, double delta, std::size_t idx)
{
    if (blocks.empty()) {
        Block block;
        block.ev.push_back(Event{time, delta, idx});
        block.deltaSum = delta;
        blocks.push_back(std::move(block));
        rebuildFenwick();
        return;
    }
    // Insert after every equal-time event. A boundary position (the
    // head of a block) becomes an append to the previous block, so
    // monotone insertion degenerates to push_back on the last block.
    Pos p = upperBound(time);
    std::size_t b = p.block;
    std::size_t off = p.off;
    if (off == 0 && b > 0) {
        --b;
        off = blocks[b].ev.size();
    }
    std::vector<Event> &ev = blocks[b].ev;
    ev.insert(ev.begin() + static_cast<std::ptrdiff_t>(off),
              Event{time, delta, idx});
    blocks[b].deltaSum += delta;
    fenwickAdd(b, delta);
    if (ev.size() > 2 * kTargetBlockEvents)
        splitBlock(b);
}

void
MemoryTracker::eraseEvent(double time, std::size_t idx)
{
    // Events of one interval are found by exact time (callers pass
    // the stored interval bounds back verbatim).
    Pos p = lowerBound(time);
    while (valid(p) && at(p).time == time && at(p).idx != idx)
        advance(p);
    if (!valid(p) || at(p).time != time)
        util::panic("memory tracker: stale event erase");
    Block &block = blocks[p.block];
    block.deltaSum -= at(p).delta;
    fenwickAdd(p.block, -block.ev[p.off].delta);
    block.ev.erase(block.ev.begin() +
                   static_cast<std::ptrdiff_t>(p.off));
    if (block.ev.empty()) {
        blocks.erase(blocks.begin() +
                     static_cast<std::ptrdiff_t>(p.block));
        rebuildFenwick();
    }
}

// ------------------------------------------------------------------
// Queries
// ------------------------------------------------------------------

double
MemoryTracker::occupancy(double t, std::size_t exclude) const
{
    double total = prefixSumBefore(upperBound(t + kEps));
    if (exclude < intervals.size()) {
        const Interval &iv = intervals[exclude];
        if (iv.start <= t + kEps && iv.end > t + kEps)
            total -= iv.bytes;
    }
    return total;
}

bool
MemoryTracker::feasible(double start, double dur, double bytes,
                        std::size_t exclude) const
{
    const double end = start + dur;
    // Occupancy is piecewise constant; check at the window start and
    // at every interval start strictly inside the window.
    double peak = occupancy(start, exclude);
    for (Pos p = upperBound(start);
         valid(p) && at(p).time < end; advance(p)) {
        const Event &e = at(p);
        if (e.delta <= 0.0 || e.idx == exclude)
            continue;
        peak = std::max(peak, occupancy(e.time, exclude));
    }
    return peak + bytes <= capacity + kEps;
}

double
MemoryTracker::firstFeasible(double start, double dur,
                             double bytes) const
{
    if (bytes > capacity) {
        // Cannot ever fit; caller serializes behind everything.
        double latest = start;
        for (const Interval &iv : intervals)
            latest = std::max(latest, iv.end);
        return latest;
    }
    double t = start;
    for (int guard = 0; guard < 1 << 16; ++guard) {
        if (feasible(t, dur, bytes))
            return t;
        // Jump to the next release that could lower occupancy: the
        // first end event after t on the sorted timeline.
        double next = std::numeric_limits<double>::infinity();
        for (Pos p = upperBound(t + kEps); valid(p); advance(p)) {
            if (at(p).delta < 0.0) {
                next = at(p).time;
                break;
            }
        }
        if (!std::isfinite(next))
            return t; // nothing to release; give up at t
        t = next;
    }
    util::panic("memory tracker failed to converge");
}

// ------------------------------------------------------------------
// Interval maintenance
// ------------------------------------------------------------------

void
MemoryTracker::reserve(std::size_t num_intervals)
{
    intervals.reserve(num_intervals);
    blocks.reserve(2 * num_intervals / kTargetBlockEvents + 2);
}

std::size_t
MemoryTracker::add(double start, double dur, double bytes)
{
    std::size_t idx;
    if (!freeSlots.empty()) {
        idx = freeSlots.back();
        freeSlots.pop_back();
        intervals[idx] = Interval{start, start + dur, bytes};
    } else {
        idx = intervals.size();
        intervals.push_back(Interval{start, start + dur, bytes});
    }
    insertEvent(start, bytes, idx);
    insertEvent(start + dur, -bytes, idx);
    return idx;
}

std::size_t
MemoryTracker::retireBefore(double floor_cycle)
{
    if (blocks.empty())
        return 0;
    // Every candidate interval (end <= floor) has both events at
    // times <= floor, so the whole retirement lives in the event
    // prefix up to the first event with time > floor. Events in the
    // prefix owned by intervals straddling the floor (start <= floor
    // < end) survive and are re-chunked in place.
    const Pos stop = upperBound(floor_cycle);
    if (stop.block == 0 && stop.off == 0)
        return 0;
    const bool partial = stop.block < blocks.size();
    const std::size_t full_blocks = partial ? stop.block
                                            : blocks.size();
    std::vector<Event> keep;
    std::size_t removed = 0;
    auto sift = [&](const Event &e) {
        if (intervals[e.idx].end <= floor_cycle) {
            // The -bytes event is the later of the pair, so the slot
            // is freed exactly once, after its +bytes partner was
            // already sifted.
            if (e.delta < 0.0) {
                intervals[e.idx] = Interval{0.0, 0.0, 0.0};
                freeSlots.push_back(e.idx);
                ++removed;
            }
        } else {
            keep.push_back(e);
        }
    };
    for (std::size_t b = 0; b < full_blocks; ++b) {
        for (const Event &e : blocks[b].ev)
            sift(e);
    }
    if (partial) {
        const std::vector<Event> &ev = blocks[stop.block].ev;
        for (std::size_t i = 0; i < stop.off; ++i)
            sift(ev[i]);
        keep.insert(keep.end(),
                    ev.begin() + static_cast<std::ptrdiff_t>(stop.off),
                    ev.end());
    }
    if (removed == 0)
        return 0;
    std::vector<Block> rebuilt;
    for (std::size_t i = 0; i < keep.size();
         i += kTargetBlockEvents) {
        const std::size_t n =
            std::min(keep.size() - i, kTargetBlockEvents);
        Block block;
        block.ev.assign(keep.begin() + static_cast<std::ptrdiff_t>(i),
                        keep.begin() +
                            static_cast<std::ptrdiff_t>(i + n));
        for (const Event &e : block.ev)
            block.deltaSum += e.delta;
        rebuilt.push_back(std::move(block));
    }
    const std::size_t suffix = full_blocks + (partial ? 1 : 0);
    for (std::size_t b = suffix; b < blocks.size(); ++b)
        rebuilt.push_back(std::move(blocks[b]));
    blocks = std::move(rebuilt);
    rebuildFenwick();
    return removed;
}

void
MemoryTracker::move(std::size_t idx, double new_start)
{
    Interval &iv = intervals.at(idx);
    double dur = iv.end - iv.start;
    eraseEvent(iv.start, idx);
    eraseEvent(iv.end, idx);
    iv.start = new_start;
    iv.end = new_start + dur;
    insertEvent(iv.start, iv.bytes, idx);
    insertEvent(iv.end, -iv.bytes, idx);
}

} // namespace herald::sched
