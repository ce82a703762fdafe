#include "sched/schedule.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "sched/fault_model.hh"
#include "util/logging.hh"

namespace herald::sched
{

namespace
{

/** A global-buffer occupancy level and the cycle it is reached at. */
struct Occupancy
{
    std::int64_t bytes = 0;
    double cycle = 0.0;
};

/**
 * Sweep every entry's buffer claim (at start) and release (at end) in
 * time order, releases before claims at a tie. Returns the first
 * point where occupancy exceeds @p cap or, if it never does, the
 * peak.
 */
Occupancy
occupancySweep(const std::vector<ScheduledLayer> &list, std::int64_t cap)
{
    struct Event
    {
        double time;
        std::int64_t delta;
    };
    std::vector<Event> events;
    events.reserve(2 * list.size());
    for (const ScheduledLayer &e : list) {
        events.push_back(
            {e.startCycle,
             static_cast<std::int64_t>(e.l2FootprintBytes)});
        events.push_back(
            {e.endCycle,
             -static_cast<std::int64_t>(e.l2FootprintBytes)});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &x, const Event &y) {
                  if (x.time != y.time)
                      return x.time < y.time;
                  return x.delta < y.delta; // releases before claims
              });
    std::int64_t occupancy = 0;
    Occupancy peak;
    for (const Event &ev : events) {
        occupancy += ev.delta;
        if (occupancy > peak.bytes) {
            peak = {occupancy, ev.time};
            if (occupancy > cap)
                break;
        }
    }
    return peak;
}

/** Each sub-accelerator's entries, sorted by start cycle. */
std::vector<std::vector<const ScheduledLayer *>>
entriesByStart(const Schedule &schedule)
{
    std::vector<std::vector<const ScheduledLayer *>> on_acc(
        schedule.numSubAccs());
    for (const ScheduledLayer &e : schedule.entries())
        on_acc[e.accIdx].push_back(&e);
    for (std::vector<const ScheduledLayer *> &run : on_acc) {
        std::sort(run.begin(), run.end(),
                  [](const ScheduledLayer *x, const ScheduledLayer *y) {
                      return x->startCycle < y->startCycle;
                  });
    }
    return on_acc;
}

} // namespace

bool
operator==(const ScheduledLayer &a, const ScheduledLayer &b)
{
    return a.instanceIdx == b.instanceIdx &&
           a.layerIdx == b.layerIdx && a.accIdx == b.accIdx &&
           a.style == b.style && a.startCycle == b.startCycle &&
           a.endCycle == b.endCycle &&
           a.energyUnits == b.energyUnits &&
           a.l2FootprintBytes == b.l2FootprintBytes &&
           a.contextPenaltyCycles == b.contextPenaltyCycles &&
           a.faultKilled == b.faultKilled;
}

bool
operator==(const ReconfigEvent &a, const ReconfigEvent &b)
{
    return a.epochId == b.epochId && a.donor == b.donor &&
           a.receiver == b.receiver && a.movedPes == b.movedPes &&
           a.startCycle == b.startCycle && a.endCycle == b.endCycle &&
           a.peSplit == b.peSplit;
}

bool
Schedule::identicalTo(const Schedule &other) const
{
    if (numAccs != other.numAccs || list.size() != other.list.size())
        return false;
    if (droppedList != other.droppedList)
        return false;
    if (reconfigList.size() != other.reconfigList.size())
        return false;
    for (std::size_t i = 0; i < reconfigList.size(); ++i) {
        if (reconfigList[i] != other.reconfigList[i])
            return false;
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] != other.list[i])
            return false;
    }
    return true;
}

void
Schedule::add(ScheduledLayer entry)
{
    if (entry.accIdx >= numAccs)
        util::panic("schedule: sub-accelerator index out of range");
    if (entry.endCycle < entry.startCycle)
        util::panic("schedule: negative-duration entry");
    list.push_back(entry);
}

void
Schedule::markDropped(std::size_t instance_idx)
{
    // Sorted insert: admission-time drops arrive in ascending
    // instance order, but dynamic (mid-schedule) drops arrive in
    // doom order — keep the list sorted so isDropped stays a binary
    // search and identicalTo stays order-insensitive.
    auto it = std::lower_bound(droppedList.begin(),
                               droppedList.end(), instance_idx);
    if (it != droppedList.end() && *it == instance_idx)
        return; // duplicate
    droppedList.insert(it, instance_idx);
}

bool
Schedule::isDropped(std::size_t instance_idx) const
{
    return std::binary_search(droppedList.begin(), droppedList.end(),
                              instance_idx);
}

void
Schedule::addReconfig(ReconfigEvent event)
{
    if (event.donor >= numAccs || event.receiver >= numAccs ||
        event.donor == event.receiver)
        util::panic("schedule: reconfig donor/receiver out of range");
    if (event.endCycle < event.startCycle)
        util::panic("schedule: negative-duration reconfig window");
    if (event.peSplit.size() != numAccs)
        util::panic("schedule: reconfig PE split arity mismatch");
    if (!reconfigList.empty() &&
        event.startCycle < reconfigList.back().startCycle)
        util::panic("schedule: reconfig events must arrive in window "
                    "order");
    reconfigList.push_back(std::move(event));
}

double
Schedule::makespanCycles() const
{
    double makespan = 0.0;
    for (const ScheduledLayer &e : list)
        makespan = std::max(makespan, e.endCycle);
    return makespan;
}

double
Schedule::busyCycles(std::size_t acc_idx) const
{
    double busy = 0.0;
    for (const ScheduledLayer &e : list) {
        if (e.accIdx == acc_idx)
            busy += e.duration();
    }
    return busy;
}

ScheduleSummary
Schedule::finalize(const accel::Accelerator &acc,
                   const cost::EnergyModel &energy, bool charge_idle) const
{
    ScheduleSummary summary;
    summary.makespanCycles = makespanCycles();
    summary.latencySec =
        summary.makespanCycles / (dnn::kClockGHz * 1e9);
    summary.busyCycles.resize(acc.numSubAccs(), 0.0);

    for (const ScheduledLayer &e : list) {
        summary.energyUnits += e.energyUnits;
        summary.busyCycles[e.accIdx] += e.duration();
    }

    if (charge_idle && energy.staticPerPeCycle > 0.0) {
        for (std::size_t a = 0; a < acc.numSubAccs(); ++a) {
            double idle =
                std::max(0.0, summary.makespanCycles -
                                  summary.busyCycles[a]);
            summary.energyUnits +=
                energy.staticPerPeCycle *
                static_cast<double>(acc.subAccs()[a].numPes) * idle;
        }
    }

    summary.energyMj = energy.toMillijoules(summary.energyUnits);
    return summary;
}

ScheduleSummary
Schedule::finalize(const workload::Workload &wl,
                   const accel::Accelerator &acc,
                   const cost::EnergyModel &energy, bool charge_idle) const
{
    ScheduleSummary summary = finalize(acc, energy, charge_idle);
    summary.sla = computeSla(wl);
    return summary;
}

SlaStats
Schedule::computeSla(const workload::Workload &wl) const
{
    if (wl.numInstances() == 0)
        return {};

    // Completion = the latest end cycle over an instance's layers;
    // negative marks an instance with no scheduled layer at all.
    // Fault-killed entries occupy the timeline but complete nothing,
    // so they are excluded from completion and counted separately.
    std::vector<double> completion(wl.numInstances(), -1.0);
    std::vector<char> lost_layer(wl.numInstances(), 0);
    std::size_t killed_layers = 0;
    for (const ScheduledLayer &e : list) {
        if (e.instanceIdx >= wl.numInstances())
            util::panic("computeSla: instance ", e.instanceIdx,
                        " out of range");
        if (e.faultKilled) {
            ++killed_layers;
            lost_layer[e.instanceIdx] = 1;
            continue;
        }
        completion[e.instanceIdx] =
            std::max(completion[e.instanceIdx], e.endCycle);
    }
    SlaStats stats = frameSla(*this, wl, completion);
    stats.faultKilledLayers = killed_layers;
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        if (lost_layer[i] && !isDropped(i))
            ++stats.framesRescheduled;
    }
    return stats;
}

SlaStats
frameSla(const Schedule &schedule, const workload::Workload &wl,
         const std::vector<double> &completion)
{
    SlaStats stats;
    stats.frames = wl.numInstances();
    std::vector<double> latencies;
    latencies.reserve(wl.numInstances());
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        const workload::Instance &inst = wl.instances()[i];
        InstanceSla sla;
        sla.instanceIdx = i;
        sla.arrivalCycle = inst.arrivalCycle;
        sla.deadlineCycle = inst.deadlineCycle;
        sla.dropped = schedule.isDropped(i);
        sla.scheduled = !sla.dropped && completion[i] >= 0.0;
        if (inst.hasDeadline())
            ++stats.framesWithDeadline;
        if (sla.dropped)
            ++stats.droppedFrames;
        if (sla.scheduled) {
            sla.completionCycle = completion[i];
            sla.latencyCycles = completion[i] - inst.arrivalCycle;
            sla.missed = inst.hasDeadline() &&
                         completion[i] > inst.deadlineCycle + kEps;
        } else {
            // Dropped or never completed: the frame cannot make its
            // deadline and its latency is unbounded. It still counts
            // in the percentiles as +inf — excluding it would let an
            // over-subscribed run that sheds half its frames report
            // a rosy p50/p99.
            sla.completionCycle = workload::kNoDeadline;
            sla.latencyCycles = workload::kNoDeadline;
            sla.missed = inst.hasDeadline();
        }
        stats.maxLatencyCycles =
            std::max(stats.maxLatencyCycles, sla.latencyCycles);
        latencies.push_back(sla.latencyCycles);
        if (sla.missed)
            ++stats.deadlineMisses;
        stats.perInstance.push_back(sla);
    }
    if (stats.framesWithDeadline > 0) {
        stats.missRate =
            static_cast<double>(stats.deadlineMisses) /
            static_cast<double>(stats.framesWithDeadline);
    }

    // Nearest-rank percentiles over *all* frame latencies (+inf for
    // frames that never completed).
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto rank = [&](double q) {
            std::size_t n = latencies.size();
            std::size_t r = static_cast<std::size_t>(
                std::ceil(q * static_cast<double>(n)));
            return latencies[std::min(n - 1, r > 0 ? r - 1 : 0)];
        };
        stats.p50LatencyCycles = rank(0.50);
        stats.p99LatencyCycles = rank(0.99);
    }
    return stats;
}

std::string
Schedule::validate(const workload::Workload &wl,
                   const accel::Accelerator &acc,
                   const FaultTimeline *faults) const
{
    using util::concat;
    if (numAccs != acc.numSubAccs())
        return concat("schedule built for ", numAccs,
                      " sub-accelerators, accelerator has ",
                      acc.numSubAccs());
    if (faults && faults->numSubAccs() != numAccs)
        return concat("fault timeline built for ", faults->numSubAccs(),
                      " sub-accelerators, schedule has ", numAccs);

    // Dropped frames are intentionally incomplete: a frame shed at
    // admission has no layers at all, a frame shed mid-schedule
    // (dynamic doomed-frame drop) keeps the prefix it had already
    // committed — in either case the scheduled layers must form a
    // dependence-chain prefix, and completeness is judged on the
    // remainder.
    for (std::size_t d : droppedList) {
        if (d >= wl.numInstances())
            return concat("dropped instance ", d, " out of range");
    }

    // Completeness: every non-dropped (instance, layer) exactly
    // once; dropped instances contribute a (possibly empty) prefix.
    // Fault-killed entries are wasted attempts, not executions: they
    // are excluded from uniqueness/completeness and checked against
    // the fault timeline separately below.
    std::map<std::pair<std::size_t, std::size_t>, const ScheduledLayer *>
        seen;
    std::vector<const ScheduledLayer *> killed;
    std::vector<std::size_t> layer_count(wl.numInstances(), 0);
    std::vector<std::size_t> max_layer(wl.numInstances(), 0);
    for (const ScheduledLayer &e : list) {
        if (e.instanceIdx >= wl.numInstances())
            return concat("entry references instance ", e.instanceIdx,
                          " out of range");
        const dnn::Model &model = wl.modelOf(e.instanceIdx);
        if (e.layerIdx >= model.numLayers())
            return concat("entry references layer ", e.layerIdx,
                          " out of range for ", model.name());
        if (e.faultKilled) {
            if (!faults)
                return concat("fault-killed entry (instance ",
                              e.instanceIdx, " layer ", e.layerIdx,
                              ") without a fault timeline");
            killed.push_back(&e);
            continue;
        }
        auto key = std::make_pair(e.instanceIdx, e.layerIdx);
        if (!seen.emplace(key, &e).second)
            return concat("duplicate entry for instance ", e.instanceIdx,
                          " layer ", e.layerIdx);
        ++layer_count[e.instanceIdx];
        max_layer[e.instanceIdx] =
            std::max(max_layer[e.instanceIdx], e.layerIdx);
    }
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        const std::size_t expect = wl.modelOf(i).numLayers();
        if (isDropped(i)) {
            // Uniqueness holds, so "prefix" == the max scheduled
            // layer index is count - 1.
            if (layer_count[i] > 0 && max_layer[i] != layer_count[i] - 1)
                return concat("dropped instance ", i, " scheduled ",
                              layer_count[i],
                              " layers that are not a chain prefix");
            if (layer_count[i] >= expect)
                return concat("dropped instance ", i,
                              " is fully scheduled");
        } else if (layer_count[i] != expect) {
            return concat("instance ", i, " has ", layer_count[i],
                          " scheduled layers, model has ", expect);
        }
    }

    // The entry-level invariants: arrival, per-sub-accelerator
    // overlap and the fault-window rules (EntryChecker).
    EntryChecker checker(numAccs, faults);
    for (const std::vector<const ScheduledLayer *> &run :
         entriesByStart(*this)) {
        for (const ScheduledLayer *e : run) {
            std::string bad = checker.check(
                *e, wl.instances()[e->instanceIdx].arrivalCycle);
            if (!bad.empty())
                return bad;
        }
    }

    // Every killed entry precedes the re-execution of its layer.
    for (const ScheduledLayer *k : killed) {
        auto it = seen.find(std::make_pair(k->instanceIdx, k->layerIdx));
        if (it != seen.end()) {
            if (it->second->startCycle < k->endCycle - kEps)
                return concat("re-execution of instance ", k->instanceIdx,
                              " layer ", k->layerIdx, " starts ",
                              it->second->startCycle,
                              " before its killed attempt ends ",
                              k->endCycle);
        } else if (k->layerIdx != layer_count[k->instanceIdx]) {
            // Only a dropped frame misses a layer (completeness), and
            // its unrecovered kill can only be the attempt at the
            // first uncommitted layer.
            return concat("dropped instance ", k->instanceIdx,
                          " has a killed attempt at layer ", k->layerIdx,
                          " beyond its committed prefix");
        }
    }

    // Reconfiguration windows are planned outages on the donor and
    // receiver: no entry on either party may overlap one (a layer in
    // flight at the window start would have been drained or killed).
    for (const ReconfigEvent &w : reconfigList) {
        for (const ScheduledLayer &e : list) {
            if ((e.accIdx == w.donor || e.accIdx == w.receiver) &&
                e.startCycle < w.endCycle - kEps &&
                e.endCycle > w.startCycle + kEps)
                return concat("instance ", e.instanceIdx, " layer ",
                              e.layerIdx, " [", e.startCycle, ", ",
                              e.endCycle, ") overlaps reconfig window [",
                              w.startCycle, ", ", w.endCycle,
                              ") on sub-accelerator ", e.accIdx);
        }
    }

    // Dependence: layer l starts after layer l-1 of the same
    // instance (killed attempts at layer l obey the same bound —
    // the attempt could not begin before the chain reached it).
    // Layer l-1 is in `seen`: the checks above leave every frame a
    // chain prefix with any unrecovered kill right after it.
    for (const ScheduledLayer &e : list) {
        if (e.layerIdx == 0)
            continue;
        const ScheduledLayer *prev =
            seen.at(std::make_pair(e.instanceIdx, e.layerIdx - 1));
        if (e.startCycle < prev->endCycle - kEps)
            return concat("dependence violation: instance ",
                          e.instanceIdx, " layer ", e.layerIdx,
                          " starts ", e.startCycle,
                          " before predecessor ends ", prev->endCycle);
    }

    // Global-buffer occupancy.
    const std::int64_t cap =
        static_cast<std::int64_t>(acc.globalBufferBytes());
    const Occupancy over = occupancySweep(list, cap);
    if (over.bytes > cap)
        return concat("global buffer over-subscribed (", over.bytes,
                      " > ", cap, " bytes) at cycle ", over.cycle);
    return "";
}

std::uint64_t
Schedule::peakOccupancyBytes() const
{
    return static_cast<std::uint64_t>(
        occupancySweep(list, std::numeric_limits<std::int64_t>::max())
            .bytes);
}

std::string
checkContextPenalties(const Schedule &schedule,
                      double context_change_cycles)
{
    const auto on_acc = entriesByStart(schedule);
    for (std::size_t a = 0; a < on_acc.size(); ++a) {
        const std::vector<const ScheduledLayer *> &run = on_acc[a];
        for (std::size_t i = 0; i < run.size(); ++i) {
            const ScheduledLayer &e = *run[i];
            double expected =
                i > 0 && run[i - 1]->instanceIdx != e.instanceIdx
                    ? context_change_cycles
                    : 0.0;
            if (e.contextPenaltyCycles != expected)
                return util::concat(
                    "stale context penalty on sub-accelerator ", a,
                    ": instance ", e.instanceIdx, " layer ", e.layerIdx,
                    " carries ", e.contextPenaltyCycles,
                    " cycles, adjacency requires ", expected);
        }
    }
    return "";
}

std::string
EntryChecker::arrivalViolation(const ScheduledLayer &e, double arrival)
{
    return util::concat("arrival violation: instance ", e.instanceIdx,
                        " layer ", e.layerIdx, " starts ", e.startCycle,
                        " before arrival ", arrival);
}

std::string
EntryChecker::overlapViolation(const ScheduledLayer &e)
{
    return util::concat("overlap on sub-accelerator ", e.accIdx,
                        " at cycle ", e.startCycle);
}

std::string
EntryChecker::faultViolation(const ScheduledLayer &e) const
{
    if (!faults->windowAvailable(e.accIdx, e.startCycle, e.duration()))
        return util::concat("instance ", e.instanceIdx, " layer ",
                            e.layerIdx, " [", e.startCycle, ", ",
                            e.endCycle,
                            ") overlaps an unavailable window on "
                            "sub-accelerator ",
                            e.accIdx);
    if (e.faultKilled && !faults->isFaultOnset(e.accIdx, e.endCycle))
        return util::concat("fault-killed entry (instance ", e.instanceIdx,
                            " layer ", e.layerIdx, ") ends at ",
                            e.endCycle,
                            ", not at a fault onset on sub-accelerator ",
                            e.accIdx);
    return {};
}

std::string
Schedule::renderTimeline(const workload::Workload &wl, int width) const
{
    return renderTimeline(wl, nullptr, width);
}

std::string
Schedule::renderTimeline(const workload::Workload &wl,
                         const FaultTimeline *faults, int width) const
{
    if (width < 8)
        width = 8;
    const double makespan = makespanCycles();
    std::ostringstream oss;
    if (makespan <= 0.0 || list.empty()) {
        // Nothing executed (or only zero-length entries): no time
        // axis to draw. An all-dropped schedule lands here too —
        // report the drops instead of dividing by a zero makespan.
        oss << "(empty schedule";
        if (!droppedList.empty())
            oss << "; " << droppedList.size() << " dropped frames";
        oss << ")\n";
        return oss.str();
    }

    auto glyph = [](std::size_t instance) {
        static const char digits[] =
            "0123456789abcdefghijklmnopqrstuvwxyz";
        return digits[instance % 36];
    };

    // Per-epoch capacity header: epoch 0's split is recovered from
    // the first event (the donor had its moved PEs back, the
    // receiver had not gained them yet).
    if (!reconfigList.empty()) {
        std::vector<std::uint64_t> first = reconfigList.front().peSplit;
        first[reconfigList.front().donor] +=
            reconfigList.front().movedPes;
        first[reconfigList.front().receiver] -=
            reconfigList.front().movedPes;
        auto print_epoch = [&](std::uint64_t id, double from,
                               const std::vector<std::uint64_t> &pes) {
            oss << "epoch " << id << " @ " << from << ": ";
            for (std::size_t a = 0; a < pes.size(); ++a)
                oss << (a == 0 ? "" : "/") << pes[a];
            oss << " pe\n";
        };
        print_epoch(reconfigList.front().epochId - 1, 0.0, first);
        for (const ReconfigEvent &w : reconfigList)
            print_epoch(w.epochId, w.endCycle, w.peSplit);
    }

    for (std::size_t a = 0; a < numAccs; ++a) {
        std::string row(static_cast<std::size_t>(width), '.');
        if (faults) {
            // Mark unavailable cells first; busy entries (which
            // validate() keeps clear of outages) overwrite them.
            for (int c = 0; c < width; ++c) {
                double t = (static_cast<double>(c) + 0.5) /
                           static_cast<double>(width) * makespan;
                if (!faults->availableAt(a, t))
                    row[static_cast<std::size_t>(c)] = 'x';
            }
        }
        // Reconfiguration windows on this row ('R', distinct from
        // fault 'x'); busy entries never overlap them (validate()).
        for (const ReconfigEvent &w : reconfigList) {
            if (w.donor != a && w.receiver != a)
                continue;
            for (int c = 0; c < width; ++c) {
                double t = (static_cast<double>(c) + 0.5) /
                           static_cast<double>(width) * makespan;
                if (t >= w.startCycle && t < w.endCycle)
                    row[static_cast<std::size_t>(c)] = 'R';
            }
        }
        for (const ScheduledLayer &e : list) {
            if (e.accIdx != a)
                continue;
            int lo = static_cast<int>(e.startCycle / makespan * width);
            int hi = static_cast<int>(e.endCycle / makespan * width);
            lo = std::min(lo, width - 1);
            hi = std::max(lo + 1, std::min(hi, width));
            for (int c = lo; c < hi; ++c)
                row[static_cast<std::size_t>(c)] =
                    glyph(e.instanceIdx);
        }
        oss << "acc" << a << " |" << row << "|\n";
    }
    oss << "       0";
    for (int i = 0; i < width - 8; ++i)
        oss << ' ';
    oss << makespan << " cycles\n";
    oss << "       (cells: workload instance index; '.', idle";
    if (faults)
        oss << "; 'x', unavailable";
    if (!reconfigList.empty())
        oss << "; 'R', reconfiguration";
    oss << ")";
    if (wl.numInstances() > 0)
        oss << "\n";
    return oss.str();
}

} // namespace herald::sched
