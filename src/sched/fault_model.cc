#include "sched/fault_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace herald::sched
{

void
FaultTimeline::checkAcc(std::size_t acc) const
{
    if (acc >= perAcc.size()) {
        util::fatal("fault timeline: sub-accelerator ", acc,
                    " out of range (timeline built for ",
                    perAcc.size(), ")");
    }
}

void
FaultTimeline::addPermanentFailure(std::size_t acc, double cycle)
{
    checkAcc(acc);
    if (!std::isfinite(cycle) || cycle < 0.0)
        util::fatal("fault timeline: permanent-failure cycle must be "
                    "finite and non-negative");
    perAcc[acc].permanentFailCycle =
        std::min(perAcc[acc].permanentFailCycle, cycle);
}

void
FaultTimeline::addOutage(std::size_t acc, double begin_cycle,
                         double duration_cycles)
{
    checkAcc(acc);
    if (!std::isfinite(begin_cycle) || begin_cycle < 0.0)
        util::fatal("fault timeline: outage begin must be finite and "
                    "non-negative");
    if (!std::isfinite(duration_cycles) || duration_cycles <= 0.0)
        util::fatal("fault timeline: outage duration must be finite "
                    "and positive");

    // Sorted insert with union-merge: overlapping or adjacent
    // outages coalesce so the query side sees disjoint windows.
    std::vector<OutageWindow> &out = perAcc[acc].outages;
    OutageWindow w{begin_cycle, begin_cycle + duration_cycles};
    auto it = std::lower_bound(
        out.begin(), out.end(), w,
        [](const OutageWindow &a, const OutageWindow &b) {
            return a.beginCycle < b.beginCycle;
        });
    it = out.insert(it, w);
    // Merge left, then absorb overlapping successors.
    if (it != out.begin() &&
        std::prev(it)->endCycle >= it->beginCycle) {
        std::prev(it)->endCycle =
            std::max(std::prev(it)->endCycle, it->endCycle);
        it = out.erase(it);
        --it;
    }
    while (std::next(it) != out.end() &&
           std::next(it)->beginCycle <= it->endCycle) {
        it->endCycle =
            std::max(it->endCycle, std::next(it)->endCycle);
        out.erase(std::next(it));
    }
}

void
FaultTimeline::addThrottle(std::size_t acc, double begin_cycle,
                           double duration_cycles, double factor)
{
    checkAcc(acc);
    if (!std::isfinite(begin_cycle) || begin_cycle < 0.0)
        util::fatal("fault timeline: throttle begin must be finite "
                    "and non-negative");
    if (!std::isfinite(duration_cycles) || duration_cycles <= 0.0)
        util::fatal("fault timeline: throttle duration must be "
                    "finite and positive");
    if (!std::isfinite(factor) || factor <= 1.0)
        util::fatal("fault timeline: throttle factor must be finite "
                    "and > 1 (got ", factor, ")");

    std::vector<ThrottleWindow> &thr = perAcc[acc].throttles;
    ThrottleWindow w{begin_cycle, begin_cycle + duration_cycles,
                     factor};
    auto it = std::lower_bound(
        thr.begin(), thr.end(), w,
        [](const ThrottleWindow &a, const ThrottleWindow &b) {
            return a.beginCycle < b.beginCycle;
        });
    if (it != thr.end() && it->beginCycle < w.endCycle)
        util::fatal("fault timeline: overlapping throttle intervals "
                    "on sub-accelerator ", acc);
    if (it != thr.begin() && std::prev(it)->endCycle > w.beginCycle)
        util::fatal("fault timeline: overlapping throttle intervals "
                    "on sub-accelerator ", acc);
    thr.insert(it, w);
}

// Shape of FaultTimeline::random() (fractions are of the horizon).
constexpr double kOutageProb = 0.75; // per sub-acc: any outages at all
constexpr std::uint64_t kMaxOutagesPerAcc = 2;
constexpr double kMinOutageFraction = 0.02;
constexpr double kMaxOutageFraction = 0.15;
constexpr double kThrottleProb = 0.5; // per sub-acc: any throttles
constexpr std::uint64_t kMaxThrottlesPerAcc = 2;
constexpr double kMinThrottleFactor = 1.5;
constexpr double kMaxThrottleFactor = 4.0;
// Per sub-acc chance of a permanent failure in [0.3, 0.9) of the
// horizon (one seed-chosen sub-accelerator is always exempt).
constexpr double kPermanentFailureProb = 0.25;

FaultTimeline
FaultTimeline::random(std::uint64_t seed, std::size_t n_sub_accs,
                      double horizon_cycles)
{
    if (n_sub_accs == 0)
        util::fatal("fault timeline: random() needs >= 1 sub-acc");
    if (!std::isfinite(horizon_cycles) || horizon_cycles <= 0.0)
        util::fatal("fault timeline: random() horizon must be "
                    "finite and positive");

    FaultTimeline tl(n_sub_accs);
    util::SplitMix64 rng(seed);
    // One sub-accelerator is always spared the permanent failure so
    // a random timeline degrades the chip, never bricks it.
    const std::size_t spared = rng.nextBounded(n_sub_accs);

    for (std::size_t a = 0; a < n_sub_accs; ++a) {
        if (rng.nextDouble() < kOutageProb) {
            const int n = 1 + static_cast<int>(
                                  rng.nextBounded(kMaxOutagesPerAcc));
            for (int i = 0; i < n; ++i) {
                double begin = rng.nextDouble() * 0.85 *
                               horizon_cycles;
                double frac =
                    kMinOutageFraction +
                    rng.nextDouble() * (kMaxOutageFraction -
                                        kMinOutageFraction);
                tl.addOutage(a, begin, frac * horizon_cycles);
            }
        }
        if (rng.nextDouble() < kThrottleProb) {
            const int n = 1 + static_cast<int>(
                                  rng.nextBounded(kMaxThrottlesPerAcc));
            // Throttles are laid out left to right in disjoint
            // lanes: each picks a begin inside [prev_end, horizon).
            double lane = 0.0;
            for (int i = 0; i < n && lane < horizon_cycles; ++i) {
                double begin =
                    lane +
                    rng.nextDouble() * (horizon_cycles - lane) * 0.7;
                double dur = (kMinOutageFraction +
                              rng.nextDouble() *
                                  (kMaxOutageFraction -
                                   kMinOutageFraction)) *
                             horizon_cycles;
                double factor =
                    kMinThrottleFactor +
                    rng.nextDouble() * (kMaxThrottleFactor -
                                        kMinThrottleFactor);
                tl.addThrottle(a, begin, dur, factor);
                lane = begin + dur;
            }
        }
        if (a != spared &&
            rng.nextDouble() < kPermanentFailureProb) {
            tl.addPermanentFailure(
                a, (0.3 + 0.6 * rng.nextDouble()) * horizon_cycles);
        }
    }
    return tl;
}

bool
FaultTimeline::empty() const
{
    for (const SubAccFaults &f : perAcc) {
        if (f.permanentFailCycle < kNeverCycle ||
            !f.outages.empty() || !f.throttles.empty())
            return false;
    }
    return true;
}

double
FaultTimeline::permanentFailureCycle(std::size_t acc) const
{
    checkAcc(acc);
    return perAcc[acc].permanentFailCycle;
}

bool
FaultTimeline::availableAt(std::size_t acc, double cycle) const
{
    checkAcc(acc);
    const SubAccFaults &f = perAcc[acc];
    if (cycle >= f.permanentFailCycle)
        return false;
    for (const OutageWindow &w : f.outages) {
        if (w.beginCycle > cycle)
            break;
        if (cycle < w.endCycle)
            return false;
    }
    return true;
}

double
FaultTimeline::nextAvailable(std::size_t acc, double cycle) const
{
    checkAcc(acc);
    const SubAccFaults &f = perAcc[acc];
    double t = cycle;
    for (const OutageWindow &w : f.outages) {
        if (w.beginCycle > t)
            break;
        if (t < w.endCycle)
            t = w.endCycle; // windows are disjoint and sorted
    }
    return t >= f.permanentFailCycle ? kNeverCycle : t;
}

double
FaultTimeline::nextOnset(std::size_t acc, double cycle) const
{
    checkAcc(acc);
    const SubAccFaults &f = perAcc[acc];
    double onset = f.permanentFailCycle > cycle
                       ? f.permanentFailCycle
                       : kNeverCycle;
    for (const OutageWindow &w : f.outages) {
        if (w.beginCycle > cycle) {
            onset = std::min(onset, w.beginCycle);
            break;
        }
    }
    return onset;
}

double
FaultTimeline::throttleFactorAt(std::size_t acc, double cycle) const
{
    checkAcc(acc);
    for (const ThrottleWindow &w : perAcc[acc].throttles) {
        if (w.beginCycle > cycle)
            break;
        if (cycle < w.endCycle)
            return w.factor;
    }
    return 1.0;
}

bool
FaultTimeline::windowAvailable(std::size_t acc, double start,
                               double dur) const
{
    checkAcc(acc);
    const SubAccFaults &f = perAcc[acc];
    const double end = start + dur;
    if (end > f.permanentFailCycle + kEps)
        return false;
    if (start >= f.permanentFailCycle)
        return false; // zero-duration entry at/after the failure
    for (const OutageWindow &w : f.outages) {
        if (w.beginCycle >= end - kEps)
            break;
        if (w.endCycle > start + kEps)
            return false;
    }
    return true;
}

bool
FaultTimeline::windowUndisturbed(std::size_t acc, double start,
                                 double dur) const
{
    if (!windowAvailable(acc, start, dur))
        return false;
    const double end = start + dur;
    for (const ThrottleWindow &w : perAcc[acc].throttles) {
        if (w.beginCycle >= end - kEps)
            break;
        if (w.endCycle > start + kEps)
            return false;
    }
    return true;
}

double
FaultTimeline::throttleStretchCycles(std::size_t acc, double start,
                                     double dur) const
{
    checkAcc(acc);
    const double end = start + dur;
    double stretch = 0.0;
    for (const ThrottleWindow &w : perAcc[acc].throttles) {
        if (w.beginCycle >= end)
            break;
        double overlap = std::min(end, w.endCycle) -
                         std::max(start, w.beginCycle);
        if (overlap > 0.0)
            stretch += overlap * (w.factor - 1.0);
    }
    return stretch;
}

bool
FaultTimeline::isFaultOnset(std::size_t acc, double cycle) const
{
    checkAcc(acc);
    const SubAccFaults &f = perAcc[acc];
    if (std::abs(cycle - f.permanentFailCycle) <= kEps)
        return true;
    for (const OutageWindow &w : f.outages) {
        if (w.beginCycle > cycle + kEps)
            break;
        if (std::abs(cycle - w.beginCycle) <= kEps)
            return true;
    }
    return false;
}

const std::vector<OutageWindow> &
FaultTimeline::outages(std::size_t acc) const
{
    checkAcc(acc);
    return perAcc[acc].outages;
}

const std::vector<ThrottleWindow> &
FaultTimeline::throttles(std::size_t acc) const
{
    checkAcc(acc);
    return perAcc[acc].throttles;
}

std::string
FaultTimeline::describe() const
{
    std::ostringstream oss;
    for (std::size_t a = 0; a < perAcc.size(); ++a) {
        const SubAccFaults &f = perAcc[a];
        for (const OutageWindow &w : f.outages) {
            oss << "acc" << a << ": outage [" << w.beginCycle << ", "
                << w.endCycle << ")\n";
        }
        for (const ThrottleWindow &w : f.throttles) {
            oss << "acc" << a << ": throttle x" << w.factor << " ["
                << w.beginCycle << ", " << w.endCycle << ")\n";
        }
        if (f.permanentFailCycle < kNeverCycle) {
            oss << "acc" << a << ": permanent failure at "
                << f.permanentFailCycle << "\n";
        }
    }
    std::string s = oss.str();
    return s.empty() ? "(no faults)\n" : s;
}

SlaStats
faultObliviousSla(const Schedule &schedule,
                  const workload::Workload &wl,
                  const FaultTimeline &faults)
{
    SlaStats stats;
    stats.frames = wl.numInstances();
    if (stats.frames == 0)
        return stats;

    // Overlay the fault timeline on the fault-blind execution: a
    // layer touching an unavailable window dies (and takes the rest
    // of the frame's chain with it), a layer overlapping throttles
    // finishes late by the stretch. Completion is charged the sum of
    // the frame's stretches; cascading queueing behind stretched
    // layers is ignored, which flatters the oblivious runtime.
    std::vector<double> completion(wl.numInstances(), -1.0);
    std::vector<double> delay(wl.numInstances(), 0.0);
    std::vector<char> killed(wl.numInstances(), 0);
    for (const ScheduledLayer &e : schedule.entries()) {
        if (e.instanceIdx >= wl.numInstances())
            util::panic("faultObliviousSla: instance ",
                        e.instanceIdx, " out of range");
        completion[e.instanceIdx] =
            std::max(completion[e.instanceIdx], e.endCycle);
        if (!faults.windowAvailable(e.accIdx, e.startCycle,
                                    e.duration())) {
            killed[e.instanceIdx] = 1;
            ++stats.faultKilledLayers;
        } else {
            delay[e.instanceIdx] += faults.throttleStretchCycles(
                e.accIdx, e.startCycle, e.duration());
        }
    }

    std::vector<double> latencies;
    latencies.reserve(wl.numInstances());
    constexpr double eps = 1e-6;
    for (std::size_t i = 0; i < wl.numInstances(); ++i) {
        const workload::Instance &inst = wl.instances()[i];
        InstanceSla sla;
        sla.instanceIdx = i;
        sla.arrivalCycle = inst.arrivalCycle;
        sla.deadlineCycle = inst.deadlineCycle;
        sla.dropped = schedule.isDropped(i);
        sla.scheduled =
            !sla.dropped && !killed[i] && completion[i] >= 0.0;
        if (inst.hasDeadline())
            ++stats.framesWithDeadline;
        if (sla.dropped)
            ++stats.droppedFrames;
        if (sla.scheduled) {
            sla.completionCycle = completion[i] + delay[i];
            sla.latencyCycles =
                sla.completionCycle - inst.arrivalCycle;
            sla.missed = inst.hasDeadline() &&
                         sla.completionCycle >
                             inst.deadlineCycle + eps;
        } else {
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
        stats.missRate = static_cast<double>(stats.deadlineMisses) /
                         static_cast<double>(stats.framesWithDeadline);
    }
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

FaultTimeline
factoryFaultTimeline(std::size_t n_sub_accs, int failed_sub_accs,
                     double horizon_cycles)
{
    if (failed_sub_accs < 0 ||
        static_cast<std::size_t>(failed_sub_accs) >= n_sub_accs + 1)
        util::fatal("factoryFaultTimeline: cannot fail ",
                    failed_sub_accs, " of ", n_sub_accs,
                    " sub-accelerators");
    FaultTimeline tl(n_sub_accs);
    // Failures land mid-run, staggered: the k-th failure hits
    // sub-accelerator k at (0.3 + 0.25 k) of the horizon, so work is
    // already committed to each victim when it dies.
    for (int k = 0; k < failed_sub_accs; ++k) {
        tl.addPermanentFailure(static_cast<std::size_t>(k),
                               (0.3 + 0.25 * k) * horizon_cycles);
    }
    return tl;
}

} // namespace herald::sched
