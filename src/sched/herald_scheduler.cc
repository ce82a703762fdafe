#include "sched/herald_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sched/buffer_lanes.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"

namespace herald::sched
{

const char *
toString(Ordering ordering)
{
    switch (ordering) {
      case Ordering::BreadthFirst:
        return "breadth-first";
      case Ordering::DepthFirst:
        return "depth-first";
    }
    util::panic("unknown Ordering");
}

const char *
toString(Preemption preemption)
{
    switch (preemption) {
      case Preemption::Off:
        return "run-to-completion";
      case Preemption::AtLayerBoundary:
        return "preempt-at-layer";
    }
    util::panic("unknown Preemption");
}

void
SchedulerOptions::validate() const
{
    // NaN poisons every ordered comparison downstream (all false),
    // so finiteness is checked explicitly, mirroring the workload
    // constructors.
    if (!(loadBalanceFactor >= 1.0))
        util::fatal("load-balancing factor must be >= 1, got ",
                    loadBalanceFactor);
    if (!(loadBalanceMaxDegradation >= 1.0))
        util::fatal("load-balancing max degradation must be >= 1, "
                    "got ",
                    loadBalanceMaxDegradation);
    if (lookaheadDepth < 0 || maxPostPasses < 0)
        util::fatal("negative post-processing parameter: lookahead ",
                    lookaheadDepth, ", max passes ", maxPostPasses);
    if (!std::isfinite(lstHysteresisCycles) ||
        lstHysteresisCycles < 0.0)
        util::fatal("LST hysteresis band must be finite and >= 0, "
                    "got ",
                    lstHysteresisCycles);
    // A hysteresis band with a policy that never consults it is a
    // contradiction, not a tuning choice: the caller believes grants
    // are sticky when selection ignores the band entirely.
    if (lstHysteresisCycles > 0.0 && policy != Policy::Lst)
        util::fatal("lstHysteresisCycles is an LST knob; policy is ",
                    toString(policy),
                    " — set policy = Policy::Lst or drop the band");
    if (!std::isfinite(contextChangeCycles) ||
        contextChangeCycles < 0.0)
        util::fatal("context-change penalty must be finite and >= 0, "
                    "got ",
                    contextChangeCycles);
    reconfig.validate();
}

HeraldScheduler::HeraldScheduler(cost::CostModel &model,
                                 SchedulerOptions options)
    : costModel(model), opts(options)
{
    opts.validate();
}

Schedule
HeraldScheduler::schedule(const workload::Workload &wl,
                          const accel::Accelerator &acc) const
{
    if (wl.numInstances() == 0)
        return Schedule(acc.numSubAccs());
    LayerCostTable table =
        LayerCostTable::build(costModel, wl, acc, opts.metric,
                              opts.rdaOverheads, opts.prefillThreads);
    return schedule(wl, acc, table);
}

Schedule
HeraldScheduler::schedule(const workload::Workload &wl,
                          const accel::Accelerator &acc,
                          const LayerCostTable &table) const
{
    if (wl.numInstances() == 0)
        return Schedule(acc.numSubAccs());
    // Step 1 is the dispatch engine's batch path; step 2 needs the
    // whole schedule, so it runs here on the retained result.
    OnlineOptions engine_opts;
    engine_opts.sched = opts;
    engine_opts.sched.postProcess = false;
    engine_opts.retainSchedule = true;
    OnlineScheduler engine(costModel, wl, acc, table,
                           std::move(engine_opts));
    Schedule schedule = engine.scheduleWorkload();
    if (opts.postProcess)
        postProcessIdleTime(schedule, wl, acc);
    return schedule;
}

void
HeraldScheduler::postProcessIdleTime(Schedule &schedule,
                                     const workload::Workload &wl,
                                     const accel::Accelerator &acc)
    const
{
    std::vector<ScheduledLayer> &entries = schedule.mutableEntries();
    if (entries.empty())
        return;

    // Dependence index: entry of each (instance, layer) pair, flat
    // over per-instance layer offsets. Fault-killed entries are
    // skipped: a killed pair reappears as a later re-execution, and
    // only the execution that completed the work is a dependence
    // anchor.
    constexpr std::size_t kNone = SIZE_MAX;
    std::vector<std::size_t> layer_base(wl.numInstances());
    std::size_t num_layers = 0;
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        layer_base[i] = num_layers;
        num_layers += wl.modelOf(i).numLayers();
    }
    std::vector<std::size_t> dep_entry(num_layers, kNone);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].faultKilled)
            dep_entry[layer_base[entries[i].instanceIdx] +
                      entries[i].layerIdx] = i;
    }

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
        const std::size_t pred =
            dep_entry[layer_base[e.instanceIdx] + e.layerIdx - 1];
        return pred == kNone
                   ? arrival
                   : std::max(arrival, entries[pred].endCycle);
    };

    // The buffer lanes double as each sub-accelerator's time order.
    // They are built once: both passes only retime entries, and every
    // retime moves one slot (splicing it to its new position for a
    // gap-fill) and mirrors the slot into its entry, so no per-pass
    // rebuild or re-sort is needed. Entry start times on one
    // sub-accelerator are strictly increasing (every layer lasts
    // longer than kEps, and the lanes panic on disorder), so the
    // maintained order is the unique sorted order a per-pass sort
    // would recompute.
    using Slot = BufferLanes::Slot;
    BufferLanes lanes(acc.globalBufferBytes(), schedule.numSubAccs());
    {
        std::vector<std::vector<Slot>> by_acc(schedule.numSubAccs());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const ScheduledLayer &e = entries[i];
            by_acc[e.accIdx].push_back(
                {e.startCycle, e.endCycle,
                 static_cast<double>(e.l2FootprintBytes), i});
        }
        for (std::size_t a = 0; a < by_acc.size(); ++a) {
            std::sort(by_acc[a].begin(), by_acc[a].end(),
                      [](const Slot &x, const Slot &y) {
                          return x.start < y.start;
                      });
            for (const Slot &slot : by_acc[a])
                lanes.append(a, slot);
        }
    }
    auto retime = [&](std::size_t a, std::size_t from, std::size_t to,
                      double new_start) {
        lanes.move(a, from, to, new_start);
        const Slot &slot = lanes.lane(a)[to];
        entries[slot.entry].startCycle = slot.start;
        entries[slot.entry].endCycle = slot.end;
    };

    // Gap-fill one gap (Fig. 9) on lane a: the idle window before
    // slot pos (pos == 0 is the leading window before the
    // sub-accelerator's first entry — with staggered arrivals a frame
    // pinned at its arrival can leave a long head gap that
    // later-queued but already-arrived work should fill). The first of
    // the next lookaheadDepth entries that fits moves to the earliest
    // point inside the gap its dependences and arrival allow, and is
    // spliced to slot pos so the lane stays the sub-accelerator's time
    // order. Returns whether an entry moved.
    auto fill_gap = [&](std::size_t a, std::size_t pos) {
        const BufferLanes::Lane &vec = lanes.lane(a);
        double gap_start = pos == 0 ? 0.0 : vec[pos - 1].end;
        double gap_end = vec[pos].start;
        if (gap_end - gap_start <= kEps)
            return false;
        int depth = 0;
        for (std::size_t j = pos;
             j < vec.size() && depth < opts.lookaheadDepth;
             ++j, ++depth) {
            if (faulty && pinned[vec[j].entry])
                continue;
            const ScheduledLayer &cand = entries[vec[j].entry];
            double dur = cand.duration();
            double earliest = std::max(gap_start, dep_ready(cand));
            if (earliest + dur > gap_end + kEps)
                continue; // does not fit in the gap
            if (cand.startCycle <= earliest + kEps)
                continue; // no improvement
            if (!window_ok(cand, earliest))
                continue; // would land on a fault
            // Context-change penalties are baked into entry
            // durations at dispatch time from the then-current
            // sub-accelerator adjacency. A reorder that changed the
            // adjacency would leave those durations stale (penalty
            // charged where no switch remains, or a new switch
            // uncharged), so with a non-zero penalty the move is only
            // taken when it provably keeps every affected entry's
            // penalty intact: the moved entry against its new
            // predecessor, the entry it now precedes, and the entry
            // left behind at its old slot. (The pull pass never
            // reorders, so this is the only adjacency hazard;
            // checkContextPenalties() asserts the invariant after the
            // passes.)
            if (opts.contextChangeCycles > 0.0 && j != pos) {
                const double P = opts.contextChangeCycles;
                auto pen = [&](const ScheduledLayer &e,
                               const ScheduledLayer *prev) {
                    return prev && prev->instanceIdx != e.instanceIdx
                               ? P
                               : 0.0;
                };
                const ScheduledLayer *new_prev =
                    pos == 0 ? nullptr : &entries[vec[pos - 1].entry];
                const ScheduledLayer &displaced = entries[vec[pos].entry];
                if (pen(cand, new_prev) != cand.contextPenaltyCycles ||
                    pen(displaced, &cand) !=
                        displaced.contextPenaltyCycles) {
                    continue;
                }
                if (j + 1 < vec.size()) {
                    const ScheduledLayer &orphan =
                        entries[vec[j + 1].entry];
                    if (pen(orphan, &entries[vec[j - 1].entry]) !=
                        orphan.contextPenaltyCycles) {
                        continue;
                    }
                }
            }
            if (!lanes.feasible(earliest, dur, vec[j].bytes, &vec[j]))
                continue;
            retime(a, j, pos, earliest);
            return true;
        }
        return false;
    };

    // Where the gap-fill scan resumes after a move at gap pos. The
    // scan left of pos found no move before this one, and a gap
    // p' < pos - lookaheadDepth - 1 sees exactly what it saw then,
    // so restarting at 0 would find no move there again. The move
    // spliced slot j into [pos, j]; gap p' reads only
    //  - slots p'-1 .. p'+lookaheadDepth (its bounds, candidates,
    //    context-penalty neighbours and orphan), all left of pos;
    //  - dep_ready of those candidates: only the moved entry's
    //    successor changed, and it lies after pos on the timeline;
    //  - buffer intervals starting by (slot p' start + kEps) + kEps
    //    (a candidate ends by the gap end + kEps, occupancy reads
    //    kEps past its query point), while the moved interval's old
    //    and new windows start at or after slot pos-1's end.
    // The last point holds when every entry lasts longer than 2 kEps.
    // Fault-killed entries can be shorter, so it is checked, in the
    // arithmetic the lanes use, on the last gap skipped (starts are
    // sorted, so it bounds the rest); when it fails the scan restarts
    // at 0. Either way the moves are exactly those of a restart
    // from 0.
    const std::size_t lookahead =
        static_cast<std::size_t>(opts.lookaheadDepth);
    auto resume_at = [&](const BufferLanes::Lane &vec,
                         std::size_t pos) -> std::size_t {
        if (pos <= lookahead + 1)
            return 0;
        const std::size_t r = pos - lookahead - 1;
        const double reach = (vec[r - 1].start + kEps) + kEps;
        return reach < vec[pos - 1].end ? r : 0;
    };

    for (int pass = 0; pass < opts.maxPostPasses; ++pass) {
        bool changed = false;

        // Pull pass: shift entries earlier preserving order.
        for (std::size_t a = 0; a < lanes.numLanes(); ++a) {
            const BufferLanes::Lane &vec = lanes.lane(a);
            for (std::size_t pos = 0; pos < vec.size(); ++pos) {
                if (faulty && pinned[vec[pos].entry])
                    continue;
                const ScheduledLayer &e = entries[vec[pos].entry];
                double acc_prev_end = pos == 0 ? 0.0 : vec[pos - 1].end;
                double new_start =
                    std::max(dep_ready(e), acc_prev_end);
                if (new_start < e.startCycle - kEps &&
                    window_ok(e, new_start) &&
                    lanes.feasible(new_start, e.duration(),
                                   vec[pos].bytes, &vec[pos])) {
                    retime(a, pos, pos, new_start);
                    changed = true;
                }
            }
        }

        // Gap-fill pass: scan the gaps left to right, resuming
        // shortly before each move (see resume_at), with at most
        // lane size + 8 moves per sub-accelerator.
        for (std::size_t a = 0; a < lanes.numLanes(); ++a) {
            const BufferLanes::Lane &vec = lanes.lane(a);
            const std::size_t max_moves = vec.size() + 8;
            std::size_t moves = 0;
            std::size_t pos = 0;
            while (pos < vec.size() && moves < max_moves) {
                if (!fill_gap(a, pos)) {
                    ++pos;
                    continue;
                }
                changed = true;
                ++moves;
                pos = resume_at(vec, pos);
            }
        }

        if (!changed)
            break;
    }

    if (opts.contextChangeCycles > 0.0) {
        std::string stale = checkContextPenalties(
            schedule, opts.contextChangeCycles);
        if (!stale.empty())
            util::panic("postProcessIdleTime: ", stale);
    }
}

} // namespace herald::sched
