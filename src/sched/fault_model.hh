/**
 * @file
 * Deterministic sub-accelerator fault injection (capacity loss at
 * runtime): per-sub-accelerator timelines of permanent failures,
 * transient outage windows and throttle intervals, consumed by the
 * dispatch loop (degraded-mode scheduling), Schedule::validate()
 * (fault-consistency checks) and the fault-oblivious SLA baseline.
 *
 * Semantics (online revelation): a fault becomes known to the
 * scheduler at its onset cycle. A layer is never *started* inside a
 * known outage or after a permanent failure (the planner defers past
 * the window or demotes to another sub-accelerator), but a layer
 * already in flight when an onset arrives is killed there — it
 * occupies its sub-accelerator up to the onset, performs zero useful
 * work (ScheduledLayer::faultKilled), and the victim frame's
 * remaining dependence chain re-enters selection. Throttle intervals
 * model thermal/power capping: a layer that starts inside one runs
 * at the window's factor (the factor is sampled at the layer's start
 * cycle and held for the layer — layers are atomic).
 *
 * Determinism contract: a FaultTimeline is pure data. Hand-built or
 * generated from a seeded RNG (random()), the same timeline yields
 * bit-identical schedules across reruns and prefill thread counts,
 * and an empty timeline leaves every schedule bit-identical to the
 * fault-free scheduler.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sched/schedule.hh"
#include "workload/workload.hh"

namespace herald::sched
{

/** Cycle value meaning "never happens" / "no availability left". */
inline constexpr double kNeverCycle =
    std::numeric_limits<double>::infinity();

/** Transient unavailability: [beginCycle, endCycle) cannot execute. */
struct OutageWindow
{
    double beginCycle = 0.0;
    double endCycle = 0.0;
};

/** Effective cycle costs scale by @c factor inside the window. */
struct ThrottleWindow
{
    double beginCycle = 0.0;
    double endCycle = 0.0;
    double factor = 1.0; //!< > 1; sampled at a layer's start cycle
};

/** See file comment. */
class FaultTimeline
{
  public:
    /** An empty timeline for an unknown chip (matches any). */
    FaultTimeline() = default;

    /** A (still fault-free) timeline for @p n_sub_accs. */
    explicit FaultTimeline(std::size_t n_sub_accs)
        : perAcc(n_sub_accs)
    {
    }

    /** Sub-accelerator @p acc dies for good at @p cycle. */
    void addPermanentFailure(std::size_t acc, double cycle);

    /** Transient outage [begin, begin + duration) on @p acc. */
    void addOutage(std::size_t acc, double begin_cycle,
                   double duration_cycles);

    /**
     * Throttle interval on @p acc: layers starting inside it run
     * @p factor x slower. Overlapping throttles on one
     * sub-accelerator are rejected (the factor would be ambiguous).
     */
    void addThrottle(std::size_t acc, double begin_cycle,
                     double duration_cycles, double factor);

    /**
     * Seeded random timeline over [0, horizon): per sub-accelerator
     * up to two outages, up to two throttles and maybe a permanent
     * failure, with one seed-chosen sub-accelerator always spared
     * the failure. Bit-identical for the same (seed, n_sub_accs,
     * horizon) on every platform: the generator is a self-contained
     * splitmix64 stream, not a std:: distribution.
     */
    static FaultTimeline random(std::uint64_t seed,
                                std::size_t n_sub_accs,
                                double horizon_cycles);

    /** True when no fault of any kind is recorded. */
    bool empty() const;

    std::size_t numSubAccs() const { return perAcc.size(); }

    /** kNeverCycle when @p acc never permanently fails. */
    double permanentFailureCycle(std::size_t acc) const;

    /** Whether @p acc can execute at @p cycle (half-open windows). */
    bool availableAt(std::size_t acc, double cycle) const;

    /**
     * Earliest cycle >= @p cycle at which @p acc can execute;
     * kNeverCycle once the permanent failure is reached.
     */
    double nextAvailable(std::size_t acc, double cycle) const;

    /**
     * Earliest fault onset (outage begin or permanent failure)
     * strictly after @p cycle; kNeverCycle if none. This is the
     * cycle at which a layer in flight on @p acc is killed.
     */
    double nextOnset(std::size_t acc, double cycle) const;

    /** Throttle factor in effect on @p acc at @p cycle (1 if none). */
    double throttleFactorAt(std::size_t acc, double cycle) const;

    /**
     * Whether [start, start + dur) avoids every outage and ends
     * before the permanent failure — i.e. a layer there would not
     * be killed.
     */
    bool windowAvailable(std::size_t acc, double start,
                         double dur) const;

    /** windowAvailable() and no throttle overlaps the window. */
    bool windowUndisturbed(std::size_t acc, double start,
                           double dur) const;

    /**
     * Extra cycles a @p dur -cycle execution over [start, start+dur)
     * would take under the overlapping throttle intervals:
     * sum(overlap x (factor - 1)). Used by the fault-oblivious
     * baseline (a lower bound — cascading queueing is ignored, which
     * judges the oblivious runtime charitably).
     */
    double throttleStretchCycles(std::size_t acc, double start,
                                 double dur) const;

    /**
     * Whether @p cycle coincides (within epsilon) with a kill onset
     * on @p acc — validate() requires every fault-killed entry to
     * end exactly at one.
     */
    bool isFaultOnset(std::size_t acc, double cycle) const;

    const std::vector<OutageWindow> &outages(std::size_t acc) const;
    const std::vector<ThrottleWindow> &
    throttles(std::size_t acc) const;

    /** One human-readable line per fault event. */
    std::string describe() const;

  private:
    struct SubAccFaults
    {
        double permanentFailCycle = kNeverCycle;
        std::vector<OutageWindow> outages;     //!< sorted, disjoint
        std::vector<ThrottleWindow> throttles; //!< sorted, disjoint
    };
    std::vector<SubAccFaults> perAcc;

    void checkAcc(std::size_t acc) const;
};

/**
 * SLA outcome of executing the *fault-blind* @p schedule on faulty
 * hardware with no rescheduling: a frame any of whose layers overlap
 * an unavailable window dies there (its chain never completes), and
 * layers overlapping throttle intervals finish late by the stretch,
 * delaying the frame's completion. This is the baseline the
 * fault-aware scheduler must strictly beat. faultKilledLayers counts
 * the disturbed layers; framesRescheduled is 0 by definition.
 */
SlaStats faultObliviousSla(const Schedule &schedule,
                           const workload::Workload &wl,
                           const FaultTimeline &faults);

/**
 * The capacity-loss companion of workload::faultedFactory(): the
 * first @p failed_sub_accs sub-accelerators (of @p n_sub_accs)
 * permanently fail, staggered through the middle of
 * [0, horizon_cycles) — early enough that plenty of frames are still
 * in flight, late enough that the fault-aware scheduler has
 * committed work to the doomed sub-accelerators.
 */
FaultTimeline factoryFaultTimeline(std::size_t n_sub_accs,
                                   int failed_sub_accs,
                                   double horizon_cycles);

} // namespace herald::sched

