/**
 * @file
 * Layer execution schedules: the output of the schedulers and the
 * object the evaluation metrics (latency / energy / EDP) are computed
 * from. A schedule assigns every layer of every workload instance to
 * a sub-accelerator with a start/end time in cycles.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "cost/energy_model.hh"
#include "dataflow/style.hh"
#include "workload/workload.hh"

namespace herald::sched
{

class FaultTimeline;

/**
 * Absolute tolerance, in cycles, of every schedule-time comparison
 * (ties, overlaps, window edges, arrival gates). Schedule time is a
 * double; this is the one place its epsilon is defined.
 */
inline constexpr double kEps = 1e-6;

/** One scheduled layer execution. */
struct ScheduledLayer
{
    std::size_t instanceIdx = 0; //!< workload instance
    std::size_t layerIdx = 0;    //!< layer within the instance's model
    std::size_t accIdx = 0;      //!< sub-accelerator
    dataflow::DataflowStyle style = dataflow::DataflowStyle::NVDLA;
    double startCycle = 0.0;
    double endCycle = 0.0;
    double energyUnits = 0.0;    //!< dynamic energy (MAC units)
    std::uint64_t l2FootprintBytes = 0; //!< staging occupancy
    /**
     * Context-change share of the duration: the penalty charged
     * because the previous entry on this sub-accelerator (in time
     * order) belongs to a different instance — 0 when no penalty
     * applies. duration() - contextPenaltyCycles is the pure layer
     * cost; post-processing keeps this consistent with the actual
     * adjacency when it reorders entries.
     */
    double contextPenaltyCycles = 0.0;
    /**
     * The layer was in flight when a fault onset hit its
     * sub-accelerator (sched/fault_model.hh): it occupied
     * [startCycle, endCycle) — endCycle is exactly the onset — but
     * performed zero useful work, and a later entry re-executes the
     * same (instance, layer) on a surviving sub-accelerator (or the
     * frame was dropped). energyUnits holds the wasted fraction of
     * the layer's energy; contextPenaltyCycles still records the
     * penalty *planned* at dispatch so the adjacency invariant
     * (checkContextPenalties) stays exact — duration() -
     * contextPenaltyCycles is meaningless for killed entries.
     */
    bool faultKilled = false;

    double duration() const { return endCycle - startCycle; }
};

/**
 * Exact (bit-level on the doubles) equality — the equivalence suite
 * compares production and reference schedules entry by entry.
 */
bool operator==(const ScheduledLayer &a, const ScheduledLayer &b);
inline bool
operator!=(const ScheduledLayer &a, const ScheduledLayer &b)
{
    return !(a == b);
}

/**
 * One committed runtime repartitioning (sched/reconfig.hh): the
 * donor and receiver sub-accelerators were both drained and offline
 * for [startCycle, endCycle) — a planned outage — after which the
 * partition epoch @c epochId (with per-sub-acc PE split @c peSplit)
 * is in force. validate() rejects entries on either party that
 * overlap the window.
 */
struct ReconfigEvent
{
    std::uint64_t epochId = 0;
    std::size_t donor = 0;
    std::size_t receiver = 0;
    std::uint64_t movedPes = 0;
    double startCycle = 0.0;
    double endCycle = 0.0;
    std::vector<std::uint64_t> peSplit; //!< post-migration allocation
};

/** Exact (bit-level on the doubles) equality. */
bool operator==(const ReconfigEvent &a, const ReconfigEvent &b);
inline bool
operator!=(const ReconfigEvent &a, const ReconfigEvent &b)
{
    return !(a == b);
}

/** Per-instance (frame) service-level outcome. */
struct InstanceSla
{
    std::size_t instanceIdx = 0;
    double arrivalCycle = 0.0;
    double completionCycle = 0.0; //!< kNoDeadline when !scheduled
    double latencyCycles = 0.0;   //!< completion - arrival
    double deadlineCycle = 0.0;   //!< absolute; kNoDeadline if none
    bool scheduled = false; //!< any layer present in the schedule
    bool missed = false;    //!< completion > deadline, or never run
    bool dropped = false;   //!< rejected by the drop policy
};

/**
 * SLA metrics of a schedule against a real-time workload.
 *
 * Honest accounting: the latency percentiles (p50/p99/max) cover
 * *every* frame — a frame that was dropped or never scheduled
 * contributes +infinity, since it never completes. An over-subscribed
 * scenario that drops half its frames therefore reports an infinite
 * p99 instead of the rosy tail of the survivors.
 */
struct SlaStats
{
    std::size_t frames = 0;             //!< workload instances
    std::size_t framesWithDeadline = 0; //!< finite-deadline subset
    std::size_t deadlineMisses = 0; //!< incl. dropped/never-scheduled
    std::size_t droppedFrames = 0;  //!< admission-dropped (subset of
                                    //!< deadlineMisses)
    double missRate = 0.0; //!< misses / framesWithDeadline (0 if none)
    double p50LatencyCycles = 0.0; //!< median frame latency
    double p99LatencyCycles = 0.0; //!< tail; +inf if frames never ran
    double maxLatencyCycles = 0.0; //!< +inf if any frame never ran
    /** Layer executions killed by a fault onset (wasted work). */
    std::size_t faultKilledLayers = 0;
    /**
     * Non-dropped frames that lost >= 1 layer to a fault and were
     * re-dispatched to completion on surviving sub-accelerators.
     */
    std::size_t framesRescheduled = 0;
    std::vector<InstanceSla> perInstance; //!< by instance index
};

/** Aggregate metrics of a finalized schedule. */
struct ScheduleSummary
{
    double makespanCycles = 0.0;
    double latencySec = 0.0;
    double energyUnits = 0.0; //!< dynamic + idle static
    double energyMj = 0.0;
    std::vector<double> busyCycles; //!< per sub-accelerator
    /** Filled by the workload-aware finalize overload. */
    SlaStats sla{};

    double edp() const { return latencySec * energyMj; }
};

/**
 * Deterministic work counters of idle-time post-processing
 * (HeraldScheduler): sweeps run, counting the last one that moved
 * nothing, and the entries each kind of sweep retimed.
 */
struct PostProcessStats
{
    std::size_t passes = 0;
    std::size_t pullMoves = 0;
    std::size_t gapMoves = 0;
};

/**
 * A (possibly in-construction) schedule. Entries are appended by the
 * schedulers and may be retimed by post-processing; finalize()
 * computes the summary including idle static energy for
 * under-utilized sub-accelerators (dark silicon).
 */
class Schedule
{
  public:
    explicit Schedule(std::size_t num_sub_accs)
        : numAccs(num_sub_accs)
    {
    }

    void add(ScheduledLayer entry);

    /** Pre-size the entry list (schedulers know totalLayers()). */
    void reserve(std::size_t num_entries) { list.reserve(num_entries); }

    /**
     * Record that instance @p instance_idx was shed by the drop
     * policy: no *further* layers of it will appear in the schedule.
     * A frame dropped at admission has no layers at all; a frame
     * dropped mid-schedule (DropPolicy::DoomedFrames) keeps the
     * dependence-chain prefix it had already committed. validate()
     * accepts exactly those shapes and computeSla() counts every
     * dropped frame as a deadline miss with unbounded latency.
     * Any call order; duplicates are ignored.
     */
    void markDropped(std::size_t instance_idx);

    /** Instances rejected by the drop policy, ascending. */
    const std::vector<std::size_t> &droppedInstances() const
    {
        return droppedList;
    }

    /** Whether @p instance_idx was dropped. */
    bool isDropped(std::size_t instance_idx) const;

    /**
     * Record a committed runtime repartitioning. Events arrive in
     * nondecreasing window order (the schedulers commit them as the
     * dispatch frontier advances).
     */
    void addReconfig(ReconfigEvent event);

    /** Committed repartitionings, in commit order. */
    const std::vector<ReconfigEvent> &reconfigEvents() const
    {
        return reconfigList;
    }

    /**
     * Entry-by-entry exact equality against @p other (same order,
     * every field identical, including the double-typed times).
     */
    bool identicalTo(const Schedule &other) const;

    const std::vector<ScheduledLayer> &entries() const { return list; }
    std::vector<ScheduledLayer> &mutableEntries() { return list; }
    std::size_t numSubAccs() const { return numAccs; }

    /** What post-processing did; all zero when it did not run. */
    const PostProcessStats &postProcessStats() const { return ppStats; }
    PostProcessStats &mutablePostProcessStats() { return ppStats; }

    /** Latest end time over all entries. */
    double makespanCycles() const;

    /** Sum of entry durations on sub-accelerator @p acc_idx. */
    double busyCycles(std::size_t acc_idx) const;

    /**
     * Compute the summary. Idle static energy is charged for every
     * sub-accelerator's PEs over (makespan - busy) when the energy
     * model has a non-zero static coefficient and @p charge_idle.
     */
    ScheduleSummary finalize(const accel::Accelerator &acc,
                             const cost::EnergyModel &energy,
                             bool charge_idle = true,
                             double clock_ghz = 1.0) const;

    /**
     * Workload-aware finalize: everything the base overload computes
     * plus the SLA statistics (per-instance completion latency,
     * deadline miss count/rate, p50/p99 frame latency) against the
     * workload's arrivals and deadlines.
     */
    ScheduleSummary finalize(const workload::Workload &wl,
                             const accel::Accelerator &acc,
                             const cost::EnergyModel &energy,
                             bool charge_idle = true,
                             double clock_ghz = 1.0) const;

    /** The SLA statistics alone (also embedded by finalize(wl,..)). */
    SlaStats computeSla(const workload::Workload &wl) const;

    /**
     * Validate against the workload and accelerator: completeness,
     * dependence order, per-sub-accelerator non-overlap, and global-
     * buffer occupancy. Returns an empty string when valid, else a
     * description of the first violation.
     *
     * The arrival, overlap and fault-window rules are EntryChecker's,
     * run over each sub-accelerator's entries in start order.
     *
     * With a non-null @p faults the fault-consistency rules apply
     * too: no entry may overlap an unavailable window, every
     * fault-killed entry must end exactly at a fault onset on its
     * sub-accelerator and precede the re-execution of its (instance,
     * layer), and completeness is judged on the non-killed entries.
     * Without @p faults any fault-killed entry is itself a
     * violation.
     */
    std::string validate(const workload::Workload &wl,
                         const accel::Accelerator &acc,
                         const FaultTimeline *faults = nullptr) const;

    /**
     * Peak concurrent global-buffer occupancy in bytes (one of the
     * "Mem Occupancy" outputs of Fig. 10).
     */
    std::uint64_t peakOccupancyBytes() const;

    /**
     * Render an ASCII timeline (Fig. 7-style): one row per
     * sub-accelerator, @p width columns spanning the makespan, each
     * cell showing the instance index running there (or '.' idle).
     * An empty or fully-dropped schedule renders a one-line note
     * instead of dividing by a zero makespan.
     */
    std::string renderTimeline(const workload::Workload &wl,
                               int width = 72) const;

    /**
     * Same, overlaying @p faults: idle cells where the
     * sub-accelerator is inside an outage window or past its
     * permanent failure render as 'x'.
     */
    std::string renderTimeline(const workload::Workload &wl,
                               const FaultTimeline *faults,
                               int width) const;

  private:
    std::size_t numAccs;
    std::vector<ScheduledLayer> list;
    std::vector<std::size_t> droppedList; //!< sorted ascending
    std::vector<ReconfigEvent> reconfigList; //!< commit order
    PostProcessStats ppStats;
};

/**
 * The per-frame SLA accounting of Schedule::computeSla and
 * faultObliviousSla. @p completion[i] is instance i's completion
 * cycle, negative if it never completed (as a frame @p schedule
 * dropped never does). Leaves faultKilledLayers and
 * framesRescheduled to the caller.
 */
SlaStats frameSla(const Schedule &schedule,
                  const workload::Workload &wl,
                  const std::vector<double> &completion);

/**
 * Verify that every entry's contextPenaltyCycles matches the
 * schedule's actual per-sub-accelerator adjacency: an entry whose
 * time-order predecessor on its sub-accelerator belongs to a
 * different instance must carry exactly @p context_change_cycles,
 * every other entry exactly 0. Returns an empty string when
 * consistent, else a description of the first stale penalty — the
 * post-processing passes assert this after reordering (the historical
 * bug was penalties baked in at dispatch and never re-checked).
 */
std::string checkContextPenalties(const Schedule &schedule,
                                  double context_change_cycles);

/**
 * The entry-level schedule invariants, checked incrementally. Fed
 * each sub-accelerator's entries in time order (any interleaving
 * across sub-accelerators), it checks every entry for
 * - arrival: it starts no earlier than its instance's arrival;
 * - overlap: it starts no earlier than the running maximum end of
 *   the entries already fed on its sub-accelerator;
 * - with a fault timeline, fault windows: it stays clear of every
 *   unavailable window (a fault-killed entry ends *at* its onset,
 *   the boundary of availability), and a fault-killed entry ends
 *   exactly at a fault onset on its sub-accelerator.
 * Schedule::validate() feeds it the whole schedule; the online
 * watchdog feeds it each entry it retires.
 */
class EntryChecker
{
  public:
    /** @p faults may be null (no fault rules); it must outlive this. */
    EntryChecker(std::size_t num_sub_accs, const FaultTimeline *faults)
        : lastEnd(num_sub_accs, 0.0), faults(faults)
    {
    }

    /**
     * Check @p e, whose instance arrives at @p arrival. Returns an
     * empty string (no allocation) when it keeps every invariant,
     * else a description of the first one it breaks.
     */
    std::string
    check(const ScheduledLayer &e, double arrival)
    {
        double &last = lastEnd[e.accIdx];
        if (e.startCycle < arrival - kEps)
            return arrivalViolation(e, arrival);
        if (e.startCycle < last - kEps)
            return overlapViolation(e);
        if (faults) {
            std::string err = faultViolation(e);
            if (!err.empty())
                return err;
        }
        last = std::max(last, e.endCycle);
        return {};
    }

  private:
    static std::string arrivalViolation(const ScheduledLayer &e,
                                        double arrival);
    static std::string overlapViolation(const ScheduledLayer &e);
    /** The fault-window rules alone: empty when @p e keeps them. */
    std::string faultViolation(const ScheduledLayer &e) const;

    std::vector<double> lastEnd; //!< per sub-accelerator
    const FaultTimeline *faults;
};

} // namespace herald::sched

