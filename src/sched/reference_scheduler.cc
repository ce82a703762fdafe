#include "sched/reference_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sched/schedule.hh"
#include "util/logging.hh"

namespace herald::sched
{

namespace
{

/** Flat key for an (instance, layer) pair; both fit in 32 bits. */
std::uint64_t
depKey(std::size_t instance_idx, std::size_t layer_idx)
{
    return (static_cast<std::uint64_t>(instance_idx) << 32) |
           static_cast<std::uint64_t>(layer_idx & 0xffffffffULL);
}

/**
 * Entry index of (instance, layer) pairs for dependence lookups.
 * Fault-killed entries are skipped (only the execution that completed
 * the work is a dependence anchor); reference schedules have none.
 */
std::unordered_map<std::uint64_t, std::size_t>
buildDependenceIndex(const std::vector<ScheduledLayer> &entries)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].faultKilled)
            continue;
        index[depKey(entries[i].instanceIdx, entries[i].layerIdx)] = i;
    }
    return index;
}

} // namespace

/** Forward declaration: the pre-rewrite post-processing. */
namespace
{
void referencePostProcess(Schedule &schedule,
                          const workload::Workload &wl,
                          const accel::Accelerator &acc,
                          const SchedulerOptions &opts);
} // namespace

namespace
{

/**
 * The pre-blocking memory tracker, kept verbatim for the reference
 * path: one flat time-sorted event array with an eagerly rebuilt
 * prefix — O(events-after-position) per insert, which is what made
 * out-of-time-order schedules quadratic. It skips zero-byte
 * intervals' events, which the production BufferLanes count; on
 * schedules, where every layer stages a non-zero footprint, query
 * results are bit-identical (integer-valued byte sums), so the
 * oracle still certifies the production buffer check.
 */
class FlatMemoryTracker
{
  public:
    explicit FlatMemoryTracker(std::uint64_t capacity_bytes)
        : capacity(static_cast<double>(capacity_bytes))
    {
    }

    struct Interval
    {
        double start;
        double end;
        double bytes;
    };

    bool
    feasible(double start, double dur, double bytes,
             std::size_t exclude = SIZE_MAX) const
    {
        const double end = start + dur;
        double peak = occupancy(start, exclude);
        for (std::size_t i = upperBound(start);
             i < events.size() && events[i].time < end; ++i) {
            if (events[i].delta <= 0.0 || events[i].idx == exclude)
                continue;
            peak = std::max(peak, occupancy(events[i].time, exclude));
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
            for (std::size_t i = upperBound(t + kEps);
                 i < events.size(); ++i) {
                if (events[i].delta < 0.0) {
                    next = events[i].time;
                    break;
                }
            }
            if (!std::isfinite(next))
                return t;
            t = next;
        }
        util::panic("memory tracker failed to converge");
    }

    std::size_t
    add(double start, double dur, double bytes)
    {
        std::size_t idx = intervals.size();
        intervals.push_back(Interval{start, start + dur, bytes});
        insertEvent(start, bytes, idx);
        insertEvent(start + dur, -bytes, idx);
        return idx;
    }

    void
    move(std::size_t idx, double new_start)
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

    double
    occupancy(double t, std::size_t exclude = SIZE_MAX) const
    {
        std::size_t m = upperBound(t + kEps);
        double total = m > 0 ? prefix[m - 1] : 0.0;
        if (exclude < intervals.size()) {
            const Interval &iv = intervals[exclude];
            if (iv.start <= t + kEps && iv.end > t + kEps)
                total -= iv.bytes;
        }
        return total;
    }

  private:
    struct Event
    {
        double time;
        double delta;
        std::size_t idx;
    };

    double capacity;
    std::vector<Interval> intervals;
    std::vector<Event> events;
    std::vector<double> prefix;

    std::size_t
    upperBound(double t) const
    {
        auto it = std::upper_bound(
            events.begin(), events.end(), t,
            [](double value, const Event &e) {
                return value < e.time;
            });
        return static_cast<std::size_t>(it - events.begin());
    }

    void
    rebuildPrefixFrom(std::size_t pos)
    {
        prefix.resize(events.size());
        double running = pos > 0 ? prefix[pos - 1] : 0.0;
        for (std::size_t i = pos; i < events.size(); ++i) {
            running += events[i].delta;
            prefix[i] = running;
        }
    }

    void
    insertEvent(double time, double delta, std::size_t idx)
    {
        std::size_t pos = upperBound(time);
        events.insert(events.begin() +
                          static_cast<std::ptrdiff_t>(pos),
                      Event{time, delta, idx});
        rebuildPrefixFrom(pos);
    }

    void
    eraseEvent(double time, std::size_t idx)
    {
        auto it = std::lower_bound(
            events.begin(), events.end(), time,
            [](const Event &e, double value) {
                return e.time < value;
            });
        while (it != events.end() && it->time == time &&
               it->idx != idx)
            ++it;
        if (it == events.end() || it->time != time)
            util::panic("memory tracker: stale event erase");
        std::size_t pos =
            static_cast<std::size_t>(it - events.begin());
        events.erase(it);
        rebuildPrefixFrom(pos);
    }
};

/** Reference-path tracker mirroring the schedule's intervals. */
FlatMemoryTracker
buildFlatTracker(const std::vector<ScheduledLayer> &entries,
                 std::uint64_t capacity)
{
    FlatMemoryTracker tracker(capacity);
    for (const ScheduledLayer &e : entries) {
        tracker.add(e.startCycle, e.duration(),
                    static_cast<double>(e.l2FootprintBytes));
    }
    return tracker;
}

} // namespace

Schedule
referenceSchedule(cost::CostModel &model,
                  const SchedulerOptions &opts,
                  const workload::Workload &wl,
                  const accel::Accelerator &acc)
{
    // The oracle predates the policy subsystem: it understands the
    // FIFO/EDF pair the production scheduler must stay bit-identical
    // to, and nothing else. LST and drop policies are property-tested
    // against invariants instead of against this reference.
    if (opts.policy == Policy::Lst)
        util::panic("referenceSchedule: LST is not implemented by "
                    "the reference oracle");
    if (opts.dropPolicy != DropPolicy::None)
        util::panic("referenceSchedule: drop policies are not "
                    "implemented by the reference oracle");
    if (opts.preemption != Preemption::Off)
        util::panic("referenceSchedule: preemption points are not "
                    "implemented by the reference oracle");
    if (opts.lstHysteresisCycles != 0.0)
        util::panic("referenceSchedule: LST hysteresis is not "
                    "implemented by the reference oracle");
    if (!opts.faults.empty())
        util::panic("referenceSchedule: fault timelines are not "
                    "implemented by the reference oracle");
    if (opts.reconfig.enabled())
        util::panic("referenceSchedule: elastic repartitioning is "
                    "not implemented by the reference oracle");
    const bool deadline_aware = opts.policy == Policy::Edf;

    const std::size_t n_inst = wl.numInstances();
    const std::size_t n_acc = acc.numSubAccs();
    Schedule schedule(n_acc);
    if (n_inst == 0)
        return schedule;

    std::vector<std::size_t> next_layer(n_inst, 0);
    std::vector<double> ready_time(n_inst, 0.0);
    for (std::size_t i = 0; i < n_inst; ++i)
        ready_time[i] = wl.instances()[i].arrivalCycle;
    std::vector<double> acc_avail(n_acc, 0.0);
    std::vector<std::size_t> acc_last_instance(n_acc, SIZE_MAX);
    FlatMemoryTracker memory(acc.globalBufferBytes());

    std::size_t remaining = wl.totalLayers();
    std::size_t rotate = 0;
    double release_frontier = 0.0;

    while (remaining > 0) {
        auto pending = [&](std::size_t cand) {
            return next_layer[cand] < wl.modelOf(cand).numLayers();
        };
        auto base_order = [&](std::size_t k) {
            return opts.ordering == Ordering::BreadthFirst
                       ? (rotate + k) % n_inst
                       : k;
        };

        std::size_t inst = SIZE_MAX;
        double best_deadline = workload::kNoDeadline;
        for (std::size_t k = 0; k < n_inst; ++k) {
            std::size_t cand = base_order(k);
            if (!pending(cand))
                continue;
            if (wl.instances()[cand].arrivalCycle >
                release_frontier + kEps)
                continue; // not yet arrived
            if (inst == SIZE_MAX) {
                inst = cand;
                best_deadline =
                    wl.instances()[cand].deadlineCycle;
                if (!deadline_aware)
                    break;
                continue;
            }
            double deadline = wl.instances()[cand].deadlineCycle;
            if (deadline < best_deadline) {
                inst = cand;
                best_deadline = deadline;
            }
        }
        if (inst == SIZE_MAX) {
            double best_arrival = workload::kNoDeadline;
            for (std::size_t k = 0; k < n_inst; ++k) {
                std::size_t cand = base_order(k);
                if (!pending(cand))
                    continue;
                const workload::Instance &ci =
                    wl.instances()[cand];
                bool better =
                    inst == SIZE_MAX ||
                    ci.arrivalCycle < best_arrival - kEps ||
                    (deadline_aware &&
                     std::abs(ci.arrivalCycle - best_arrival) <=
                         kEps &&
                     ci.deadlineCycle < best_deadline);
                if (better) {
                    inst = cand;
                    best_arrival = ci.arrivalCycle;
                    best_deadline = ci.deadlineCycle;
                }
            }
        }
        if (inst == SIZE_MAX)
            util::panic("scheduler: no instance with pending layers");

        const dnn::Layer &layer =
            wl.modelOf(inst).layer(next_layer[inst]);

        std::vector<accel::StyledLayerCost> costs(n_acc);
        std::vector<double> metric_of(n_acc);
        std::vector<std::size_t> order(n_acc);
        for (std::size_t a = 0; a < n_acc; ++a) {
            costs[a] = accel::evaluateOnSubAcc(model, acc, a,
                                               layer,
                                               opts.rdaOverheads);
            metric_of[a] = metricValue(opts.metric, costs[a].cost);
            order[a] = a;
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return metric_of[a] < metric_of[b];
                  });

        std::size_t chosen = order[0];
        if (opts.loadBalance && n_acc > 1) {
            const double best_metric = metric_of[order[0]];
            for (std::size_t a : order) {
                if (metric_of[a] >
                    best_metric * opts.loadBalanceMaxDegradation) {
                    break;
                }
                double start =
                    std::max(ready_time[inst], acc_avail[a]);
                double frontier = start + costs[a].cost.cycles;
                double max_f = frontier;
                double min_f = frontier;
                for (std::size_t b = 0; b < n_acc; ++b) {
                    if (b == a)
                        continue;
                    max_f = std::max(max_f, acc_avail[b]);
                    min_f = std::min(min_f, acc_avail[b]);
                }
                if (min_f > 0.0 &&
                    max_f <= opts.loadBalanceFactor * min_f) {
                    chosen = a;
                    break;
                }
            }
        }

        const accel::StyledLayerCost &sc = costs[chosen];
        double dur = sc.cost.cycles;
        double context_penalty = 0.0;
        if (opts.contextChangeCycles > 0.0 &&
            acc_last_instance[chosen] != SIZE_MAX &&
            acc_last_instance[chosen] != inst) {
            context_penalty = opts.contextChangeCycles;
            dur += context_penalty;
        }
        double start =
            std::max(ready_time[inst], acc_avail[chosen]);
        start = memory.firstFeasible(
            start, dur,
            static_cast<double>(sc.cost.l2FootprintBytes));
        memory.add(start, dur,
                   static_cast<double>(sc.cost.l2FootprintBytes));

        ScheduledLayer entry;
        entry.instanceIdx = inst;
        entry.layerIdx = next_layer[inst];
        entry.accIdx = chosen;
        entry.style = sc.style;
        entry.startCycle = start;
        entry.endCycle = start + dur;
        entry.energyUnits = sc.cost.energyUnits;
        entry.l2FootprintBytes = sc.cost.l2FootprintBytes;
        entry.contextPenaltyCycles = context_penalty;
        schedule.add(entry);

        ready_time[inst] = entry.endCycle;
        acc_avail[chosen] = entry.endCycle;
        release_frontier =
            std::max(release_frontier, entry.endCycle);
        acc_last_instance[chosen] = inst;
        ++next_layer[inst];
        --remaining;
        rotate = (inst + 1) % n_inst;
    }

    if (opts.postProcess)
        referencePostProcess(schedule, wl, acc, opts);
    return schedule;
}

namespace
{

void
referencePostProcess(Schedule &schedule,
                     const workload::Workload &wl,
                     const accel::Accelerator &acc,
                     const SchedulerOptions &opts)
{
    std::vector<ScheduledLayer> &entries = schedule.mutableEntries();
    if (entries.empty())
        return;
    auto dep_index = buildDependenceIndex(entries);

    auto dep_ready = [&](const ScheduledLayer &e) {
        double arrival =
            wl.instances()[e.instanceIdx].arrivalCycle;
        if (e.layerIdx == 0)
            return arrival;
        auto it =
            dep_index.find(depKey(e.instanceIdx, e.layerIdx - 1));
        return it == dep_index.end()
                   ? arrival
                   : std::max(arrival,
                              entries[it->second].endCycle);
    };

    for (int pass = 0; pass < opts.maxPostPasses; ++pass) {
        bool changed = false;
        FlatMemoryTracker tracker =
            buildFlatTracker(entries, acc.globalBufferBytes());

        std::vector<std::vector<std::size_t>> per_acc(
            schedule.numSubAccs());
        for (std::size_t i = 0; i < entries.size(); ++i)
            per_acc[entries[i].accIdx].push_back(i);
        for (auto &vec : per_acc) {
            std::sort(vec.begin(), vec.end(),
                      [&](std::size_t a, std::size_t b) {
                          return entries[a].startCycle <
                                 entries[b].startCycle;
                      });
        }

        for (auto &vec : per_acc) {
            for (std::size_t pos = 0; pos < vec.size(); ++pos) {
                ScheduledLayer &e = entries[vec[pos]];
                double acc_prev_end =
                    pos == 0 ? 0.0 : entries[vec[pos - 1]].endCycle;
                double new_start =
                    std::max(dep_ready(e), acc_prev_end);
                if (new_start < e.startCycle - kEps &&
                    tracker.feasible(
                        new_start, e.duration(),
                        static_cast<double>(e.l2FootprintBytes),
                        vec[pos])) {
                    tracker.move(vec[pos], new_start);
                    double dur = e.duration();
                    e.startCycle = new_start;
                    e.endCycle = new_start + dur;
                    changed = true;
                }
            }
        }

        for (auto &vec : per_acc) {
            bool moved = true;
            int guard = 0;
            const int max_moves =
                static_cast<int>(vec.size()) + 8;
            while (moved && guard++ < max_moves) {
                moved = false;
                std::sort(vec.begin(), vec.end(),
                          [&](std::size_t a, std::size_t b) {
                              return entries[a].startCycle <
                                     entries[b].startCycle;
                          });
                for (std::size_t pos = 0;
                     pos < vec.size() && !moved; ++pos) {
                    double gap_start =
                        pos == 0 ? 0.0
                                 : entries[vec[pos - 1]].endCycle;
                    double gap_end = entries[vec[pos]].startCycle;
                    if (gap_end - gap_start <= kEps)
                        continue;
                    int depth = 0;
                    for (std::size_t j = pos;
                         j < vec.size() &&
                         depth < opts.lookaheadDepth;
                         ++j, ++depth) {
                        ScheduledLayer &cand = entries[vec[j]];
                        double dur = cand.duration();
                        double earliest =
                            std::max(gap_start, dep_ready(cand));
                        if (earliest + dur > gap_end + kEps)
                            continue;
                        if (cand.startCycle <= earliest + kEps)
                            continue;
                        // Mirror of the production scheduler's
                        // stale-penalty guard: with a non-zero
                        // context-change penalty, only take a
                        // reordering move when it keeps every
                        // affected entry's baked-in penalty
                        // consistent with the new adjacency.
                        if (opts.contextChangeCycles > 0.0 &&
                            j != pos) {
                            const double P = opts.contextChangeCycles;
                            auto pen = [&](const ScheduledLayer &e,
                                           const ScheduledLayer
                                               *prev) {
                                return prev && prev->instanceIdx !=
                                                   e.instanceIdx
                                           ? P
                                           : 0.0;
                            };
                            const ScheduledLayer *new_prev =
                                pos == 0 ? nullptr
                                         : &entries[vec[pos - 1]];
                            const ScheduledLayer &displaced =
                                entries[vec[pos]];
                            if (pen(cand, new_prev) !=
                                    cand.contextPenaltyCycles ||
                                pen(displaced, &cand) !=
                                    displaced.contextPenaltyCycles) {
                                continue;
                            }
                            if (j + 1 < vec.size()) {
                                const ScheduledLayer &orphan =
                                    entries[vec[j + 1]];
                                if (pen(orphan,
                                        &entries[vec[j - 1]]) !=
                                    orphan.contextPenaltyCycles) {
                                    continue;
                                }
                            }
                        }
                        if (!tracker.feasible(
                                earliest, dur,
                                static_cast<double>(
                                    cand.l2FootprintBytes),
                                vec[j])) {
                            continue;
                        }
                        tracker.move(vec[j], earliest);
                        cand.startCycle = earliest;
                        cand.endCycle = earliest + dur;
                        changed = true;
                        moved = true;
                        break;
                    }
                }
            }
        }

        if (!changed)
            break;
    }

    if (opts.contextChangeCycles > 0.0) {
        std::string stale = checkContextPenalties(
            schedule, opts.contextChangeCycles);
        if (!stale.empty())
            util::panic("referencePostProcess: ", stale);
    }
}

} // namespace

// Frozen copy of HeraldScheduler::postProcessIdleTime from before its
// gap-fill scan resumed at the last move; do not optimize.
void
referencePostProcessIdleTime(Schedule &schedule,
                             const workload::Workload &wl,
                             const accel::Accelerator &acc,
                             const SchedulerOptions &opts)
{
    std::vector<ScheduledLayer> &entries = schedule.mutableEntries();
    if (entries.empty())
        return;
    auto dep_index = buildDependenceIndex(entries);

    // Fault pinning: idle-time elimination must not rewrite fault
    // history. Pinned (never moved): killed entries (their end is
    // the fault onset), every entry of an instance that suffered a
    // kill (a re-execution pulled ahead of its kill would reorder
    // cause and effect), and entries whose committed window overlaps
    // an outage/throttle (their durations embed fault effects that
    // do not transfer to another window). Unpinned entries only ever
    // move into fully undisturbed windows.
    const FaultTimeline &faults = opts.faults;
    const bool faulty = !faults.empty();
    std::vector<char> pinned;
    if (faulty) {
        pinned.assign(entries.size(), 0);
        std::vector<char> victim(wl.numInstances(), 0);
        for (const ScheduledLayer &e : entries) {
            if (e.faultKilled)
                victim[e.instanceIdx] = 1;
        }
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const ScheduledLayer &e = entries[i];
            if (e.faultKilled || victim[e.instanceIdx] ||
                !faults.windowUndisturbed(e.accIdx, e.startCycle,
                                          e.duration()))
                pinned[i] = 1;
        }
    }
    // Reconfiguration windows pin like outages: the donor and
    // receiver are rewiring, so nothing may be hoisted into the
    // window (the dispatch loop never placed work there either).
    const std::vector<ReconfigEvent> &reconfigs =
        schedule.reconfigEvents();
    auto window_ok = [&](const ScheduledLayer &e, double new_start) {
        if (faulty && !faults.windowUndisturbed(e.accIdx, new_start,
                                                e.duration()))
            return false;
        for (const ReconfigEvent &w : reconfigs) {
            if (e.accIdx != w.donor && e.accIdx != w.receiver)
                continue;
            if (new_start < w.endCycle - kEps &&
                new_start + e.duration() > w.startCycle + kEps)
                return false;
        }
        return true;
    };

    // Earliest legal start: the predecessor's end, but never before
    // the instance's arrival (pull/gap-fill must not hoist a frame's
    // layers ahead of the frame itself).
    auto dep_ready = [&](const ScheduledLayer &e) {
        double arrival =
            wl.instances()[e.instanceIdx].arrivalCycle;
        if (e.layerIdx == 0)
            return arrival;
        auto it =
            dep_index.find(depKey(e.instanceIdx, e.layerIdx - 1));
        return it == dep_index.end()
                   ? arrival
                   : std::max(arrival,
                              entries[it->second].endCycle);
    };

    // Tracker and per-sub-accelerator time order are built once and
    // maintained incrementally: both passes only retime entries, and
    // every retime updates the tracker (move) and the order (splice)
    // in place, so no per-pass rebuild or re-sort is needed. Entry
    // start times on one sub-accelerator are strictly increasing
    // (positive durations, no overlap), so the maintained order is
    // the unique sorted order the per-pass sort would recompute.
    FlatMemoryTracker tracker =
        buildFlatTracker(entries, acc.globalBufferBytes());
    std::vector<std::vector<std::size_t>> per_acc(
        schedule.numSubAccs());
    for (std::size_t i = 0; i < entries.size(); ++i)
        per_acc[entries[i].accIdx].push_back(i);
    for (auto &vec : per_acc) {
        std::sort(vec.begin(), vec.end(),
                  [&](std::size_t a, std::size_t b) {
                      return entries[a].startCycle <
                             entries[b].startCycle;
                  });
    }

    for (int pass = 0; pass < opts.maxPostPasses; ++pass) {
        bool changed = false;

        // Pull pass: shift entries earlier preserving order.
        for (auto &vec : per_acc) {
            for (std::size_t pos = 0; pos < vec.size(); ++pos) {
                if (faulty && pinned[vec[pos]])
                    continue;
                ScheduledLayer &e = entries[vec[pos]];
                double acc_prev_end =
                    pos == 0 ? 0.0 : entries[vec[pos - 1]].endCycle;
                double new_start =
                    std::max(dep_ready(e), acc_prev_end);
                if (new_start < e.startCycle - kEps &&
                    window_ok(e, new_start) &&
                    tracker.feasible(
                        new_start, e.duration(),
                        static_cast<double>(e.l2FootprintBytes),
                        vec[pos])) {
                    tracker.move(vec[pos], new_start);
                    double dur = e.duration();
                    e.startCycle = new_start;
                    e.endCycle = new_start + dur;
                    changed = true;
                }
            }
        }

        // Gap-fill pass (Fig. 9): move a later layer into an idle gap
        // within the look-ahead window. After every move the acc's
        // time order is re-established (a splice of the moved entry
        // to its new position) before continuing — gaps are only
        // meaningful on a sorted timeline.
        for (auto &vec : per_acc) {
            bool moved = true;
            int guard = 0;
            const int max_moves =
                static_cast<int>(vec.size()) + 8;
            while (moved && guard++ < max_moves) {
                moved = false;
                // Gaps include the leading idle window before the
                // sub-accelerator's first entry (pos == 0) — with
                // staggered arrivals a frame pinned at its arrival
                // can leave a long head gap that later-queued but
                // already-arrived work should fill. A candidate is
                // placed at the earliest point inside the gap its
                // dependences and arrival allow, not just at the
                // gap's left edge.
                for (std::size_t pos = 0;
                     pos < vec.size() && !moved; ++pos) {
                    double gap_start =
                        pos == 0 ? 0.0
                                 : entries[vec[pos - 1]].endCycle;
                    double gap_end = entries[vec[pos]].startCycle;
                    if (gap_end - gap_start <= kEps)
                        continue;
                    int depth = 0;
                    for (std::size_t j = pos;
                         j < vec.size() &&
                         depth < opts.lookaheadDepth;
                         ++j, ++depth) {
                        if (faulty && pinned[vec[j]])
                            continue;
                        ScheduledLayer &cand = entries[vec[j]];
                        double dur = cand.duration();
                        double earliest =
                            std::max(gap_start, dep_ready(cand));
                        if (earliest + dur > gap_end + kEps)
                            continue; // does not fit in the gap
                        if (cand.startCycle <= earliest + kEps)
                            continue; // no improvement
                        if (!window_ok(cand, earliest))
                            continue; // would land on a fault
                        // Context-change penalties are baked into
                        // entry durations at dispatch time from the
                        // then-current sub-accelerator adjacency. A
                        // reorder that changed the adjacency would
                        // leave those durations stale (penalty
                        // charged where no switch remains, or a new
                        // switch uncharged), so with a non-zero
                        // penalty the move is only taken when it
                        // provably keeps every affected entry's
                        // penalty intact: the moved entry against
                        // its new predecessor, the entry it now
                        // precedes, and the entry left behind at its
                        // old slot. (The pull pass never reorders,
                        // so this is the only adjacency hazard;
                        // checkContextPenalties() asserts the
                        // invariant after the passes.)
                        if (opts.contextChangeCycles > 0.0 &&
                            j != pos) {
                            const double P = opts.contextChangeCycles;
                            auto pen = [&](const ScheduledLayer &e,
                                           const ScheduledLayer
                                               *prev) {
                                return prev && prev->instanceIdx !=
                                                   e.instanceIdx
                                           ? P
                                           : 0.0;
                            };
                            const ScheduledLayer *new_prev =
                                pos == 0 ? nullptr
                                         : &entries[vec[pos - 1]];
                            const ScheduledLayer &displaced =
                                entries[vec[pos]];
                            if (pen(cand, new_prev) !=
                                    cand.contextPenaltyCycles ||
                                pen(displaced, &cand) !=
                                    displaced.contextPenaltyCycles) {
                                continue;
                            }
                            if (j + 1 < vec.size()) {
                                const ScheduledLayer &orphan =
                                    entries[vec[j + 1]];
                                if (pen(orphan,
                                        &entries[vec[j - 1]]) !=
                                    orphan.contextPenaltyCycles) {
                                    continue;
                                }
                            }
                        }
                        if (!tracker.feasible(
                                earliest, dur,
                                static_cast<double>(
                                    cand.l2FootprintBytes),
                                vec[j])) {
                            continue;
                        }
                        tracker.move(vec[j], earliest);
                        cand.startCycle = earliest;
                        cand.endCycle = earliest + dur;
                        // Splice vec[j] into its new slot at pos.
                        std::rotate(
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(j),
                            vec.begin() +
                                static_cast<std::ptrdiff_t>(j + 1));
                        changed = true;
                        moved = true;
                        break;
                    }
                }
            }
        }

        if (!changed)
            break;
    }

    if (opts.contextChangeCycles > 0.0) {
        std::string stale = checkContextPenalties(
            schedule, opts.contextChangeCycles);
        if (!stale.empty())
            util::panic("referencePostProcessIdleTime: ", stale);
    }
}

} // namespace herald::sched
