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
        postProcessIdleTime(schedule, engine.takeLanes(), wl);
    return schedule;
}

void
HeraldScheduler::postProcessIdleTime(Schedule &schedule,
                                     BufferLanes lanes,
                                     const workload::Workload &wl)
    const
{
    std::vector<ScheduledLayer> &entries = schedule.mutableEntries();
    if (entries.empty())
        return;

    // The buffer lanes double as each sub-accelerator's time order.
    // They are the dispatch engine's own: retain mode never retires a
    // slot, and a slot's entry is its schedule index. Both passes only
    // retime entries, and every retime moves one slot (splicing it to
    // its new position for a gap-fill) and mirrors the slot into its
    // entry, so the slots stay the entries' windows and no rebuild or
    // re-sort is needed. Entry start times on one sub-accelerator are
    // strictly increasing (every layer lasts longer than kEps, and
    // the lanes panic on disorder), so the maintained order is the
    // unique sorted order a per-pass sort would recompute.
    using Slot = BufferLanes::Slot;
    std::size_t slots = 0;
    for (std::size_t a = 0; a < lanes.numLanes(); ++a)
        slots += lanes.lane(a).size();
    if (lanes.numLanes() != schedule.numSubAccs() ||
        slots != entries.size())
        util::panic("postProcessIdleTime: ", lanes.numLanes(),
                    " lanes with ", slots, " slots for ",
                    schedule.numSubAccs(), " sub-accelerators and ",
                    entries.size(), " entries");

    // Dependences, flat per entry: the entry that ran the previous
    // layer of the same instance (kNone for layer 0) and the
    // instance's arrival. Entries are in commit order, and a layer
    // commits only after its predecessor completed, so that
    // predecessor is the instance's latest completed entry so far.
    // Fault-killed entries are skipped: a killed pair reappears as a
    // later re-execution, and only the execution that completed the
    // work is a dependence anchor.
    constexpr std::size_t kNone = SIZE_MAX;
    std::vector<std::size_t> pred_of(entries.size());
    std::vector<double> arrival_of(entries.size());
    {
        std::vector<std::size_t> last_done(wl.numInstances(), kNone);
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const ScheduledLayer &e = entries[i];
            std::size_t &last = last_done[e.instanceIdx];
            pred_of[i] = e.layerIdx == 0 ? kNone : last;
            if (pred_of[i] != kNone &&
                entries[pred_of[i]].layerIdx + 1 != e.layerIdx)
                util::panic("postProcessIdleTime: entry ", i,
                            " does not follow its predecessor");
            arrival_of[i] = wl.instances()[e.instanceIdx].arrivalCycle;
            if (!e.faultKilled)
                last = i;
        }
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
    auto window_ok = [&](std::size_t a, double new_start, double dur) {
        if (faulty && !faults.windowUndisturbed(a, new_start, dur))
            return false;
        for (const ReconfigEvent &w : reconfigs) {
            if (a != w.donor && a != w.receiver)
                continue;
            if (new_start < w.endCycle - kEps &&
                new_start + dur > w.startCycle + kEps)
                return false;
        }
        return true;
    };

    // Earliest legal start: the predecessor's end, but never before
    // the instance's arrival (pull/gap-fill must not hoist a frame's
    // layers ahead of the frame itself).
    auto dep_ready = [&](std::size_t i) {
        const std::size_t pred = pred_of[i];
        return pred == kNone
                   ? arrival_of[i]
                   : std::max(arrival_of[i], entries[pred].endCycle);
    };

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
            const Slot &slot = vec[j];
            if (faulty && pinned[slot.entry])
                continue;
            const double dur = slot.end - slot.start;
            const double earliest =
                std::max(gap_start, dep_ready(slot.entry));
            if (earliest + dur > gap_end + kEps)
                continue; // does not fit in the gap
            if (slot.start <= earliest + kEps)
                continue; // no improvement
            if (!window_ok(a, earliest, dur))
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
                const ScheduledLayer &cand = entries[slot.entry];
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
            if (!lanes.feasible(earliest, dur, slot.bytes, &slot))
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
                const Slot &slot = vec[pos];
                if (faulty && pinned[slot.entry])
                    continue;
                const double dur = slot.end - slot.start;
                const double acc_prev_end =
                    pos == 0 ? 0.0 : vec[pos - 1].end;
                const double new_start =
                    std::max(dep_ready(slot.entry), acc_prev_end);
                if (new_start < slot.start - kEps &&
                    window_ok(a, new_start, dur) &&
                    lanes.feasible(new_start, dur, slot.bytes, &slot)) {
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
