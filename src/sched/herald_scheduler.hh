/**
 * @file
 * Herald's layer scheduler (paper Sec. IV-D, Figs. 7-9).
 *
 * Step 1 — initial scheduling: layers are taken in depth-first or
 * breadth-first model order; each is assigned to the sub-accelerator
 * with the best per-layer metric (dataflow preference), demoted to
 * the next-best candidate when the assignment would leave the
 * sub-accelerator completion frontiers unbalanced beyond the user's
 * load-balancing factor. Start times respect the model's dependence
 * chain and the global-buffer occupancy constraint.
 *
 * Step 2 — post-processing: idle-time elimination. A pull pass moves
 * entries earlier within their sub-accelerator order; a gap-fill pass
 * with a bounded look-ahead reorders later layers into idle gaps
 * (Fig. 9). Both passes only ever move entries earlier, so the
 * makespan is non-increasing and the loop terminates.
 *
 * Throughput architecture: schedule() first builds a LayerCostTable
 * (every unique (layer, sub-acc) cost evaluated once, optionally
 * prefilled across a ThreadPool) and then runs step 1 on the one
 * event-driven dispatch engine, OnlineScheduler's batch path
 * (sched/online_scheduler.hh) — instances are released from an
 * arrival-sorted cursor into ordered ready sets, so picking the next
 * instance is O(log n) instead of an O(n_instances) scan per layer.
 * Step 2 then runs on the retained schedule and the engine's own
 * buffer lanes. The original per-layer-query O(L x N) implementation
 * survives as a test/bench-only verification oracle
 * (sched/reference_scheduler.hh, outside libherald): both paths
 * produce bit-identical schedules (asserted by
 * tests/test_sched_equivalence.cc).
 */

#pragma once

#include "accel/rda.hh"
#include "cost/cost_model.hh"
#include "sched/fault_model.hh"
#include "sched/metric.hh"
#include "sched/policy.hh"
#include "sched/reconfig.hh"
#include "sched/schedule.hh"
#include "workload/workload.hh"

namespace herald::sched
{

class BufferLanes;
class LayerCostTable;

/** Initial layer ordering heuristic (Sec. IV-D). */
enum class Ordering
{
    BreadthFirst, //!< interleave models (default for multi-DNN)
    DepthFirst,   //!< finish one model before the next
};

// Real-time semantics: every workload instance carries an
// arrivalCycle (no layer of the instance may start earlier) and an
// optional absolute deadlineCycle. The scheduler always respects
// arrivals; SchedulerOptions::policy chooses how released instances
// compete for dispatch (FIFO base order, earliest-deadline, or
// least-slack — see sched/policy.hh), and every deadline-driven
// policy degenerates to the base ordering on deadline-free
// workloads. SchedulerOptions::dropPolicy optionally sheds frames
// that are provably hopeless at release instead of letting them
// poison live frames; dropped frames are recorded on the Schedule
// and counted as deadline misses.

const char *toString(Ordering ordering);

/**
 * Preemption granularity of the dispatch loop.
 *
 * Off reproduces the PR 4 run-to-completion semantics: an instance
 * only competes for dispatch once the committed-schedule frontier has
 * passed its arrival, so a long low-priority layer is always allowed
 * to start greedily even when an urgent frame arrives in the middle
 * of it — the urgent frame then queues behind the committed work.
 *
 * AtLayerBoundary re-runs instance selection before *every* layer
 * commit: when the tentatively planned layer would span the arrival
 * of a strictly more urgent frame (smaller policy key — EDF deadline
 * or LST slack), that frame is released immediately and selection is
 * re-run, letting the urgent arrival interleave its layers into the
 * running frame's chain. The displaced layer was never committed, so
 * nothing is undone; the sub-accelerator may idle until the urgent
 * arrival (inserted idle — layers stay atomic). Context-change
 * penalties remain exact (they are charged at commit time from the
 * actual adjacency, and checkContextPenalties() still asserts them)
 * and schedules stay deterministic and bit-identical across thread
 * counts: the decision reads only committed-schedule state and the
 * strict (key, idx) order. FIFO's constant key never fires the
 * urgency test, so FIFO schedules are identical under both settings.
 */
enum class Preemption
{
    Off,            //!< run-to-completion (PR 4 bit-identical)
    AtLayerBoundary //!< re-select before every commit; see above
};

const char *toString(Preemption preemption);

/** Scheduler tuning knobs. */
struct SchedulerOptions
{
    Metric metric = Metric::Edp;
    Ordering ordering = Ordering::BreadthFirst;

    /**
     * Instance-selection policy among released instances: FIFO (base
     * order), EDF (nearest absolute deadline) or LST (least slack,
     * deadline minus optimistic remaining work). Ties — including
     * every instance of a deadline-free workload — resolve via
     * @c ordering.
     */
    Policy policy = Policy::Fifo;

    /**
     * Over-subscription admission control: DropPolicy::HopelessFrames
     * sheds frames whose deadline cannot be met even when running
     * every remaining layer on its best sub-accelerator starting at
     * arrival (see sched/policy.hh). Dropped frames appear in
     * Schedule::droppedInstances() and SlaStats::droppedFrames and
     * count as deadline misses.
     */
    DropPolicy dropPolicy = DropPolicy::None;

    /**
     * Dispatch-loop preemption points (see Preemption). Off is
     * bit-identical to the PR 4 scheduler; AtLayerBoundary lets
     * urgent arrivals claim a sub-accelerator before a long
     * lower-priority layer is committed across their arrival.
     */
    Preemption preemption = Preemption::Off;

    /**
     * LST grant hysteresis in cycles (0 disables). With many live
     * frames at near-equal slack, least-slack dispatch re-keys per
     * retired layer and degenerates into processor sharing — every
     * frame advances one layer per round, every switch pays the
     * context-change penalty, and nobody finishes early. With a
     * positive band the most recently dispatched instance keeps the
     * grant until a competitor's key undercuts it by more than the
     * band. Only consulted when the effective policy is LST.
     */
    double lstHysteresisCycles = 0.0;

    /** Enable the load-balancing feedback loop. */
    bool loadBalance = true;
    /** Max allowed (max frontier / min frontier) imbalance. */
    double loadBalanceFactor = 2.0;
    /**
     * A second-best sub-accelerator is only considered for balancing
     * when its per-layer metric is within this factor of the best
     * one — balancing must not push a layer onto a catastrophically
     * mismatched dataflow.
     */
    double loadBalanceMaxDegradation = 4.0;

    /** Enable idle-time-elimination post-processing. */
    bool postProcess = true;
    /** Look-ahead depth of the gap-fill pass (Fig. 9's LA). */
    int lookaheadDepth = 4;
    /** Maximum post-processing sweeps. */
    int maxPostPasses = 8;

    /**
     * Latency penalty (cycles) when a sub-accelerator switches to a
     * layer of a different model instance (data-layout / context
     * change; paper Sec. IV-A provides this as an option).
     */
    double contextChangeCycles = 0.0;

    /** Overheads applied to flexible (RDA) sub-accelerators. */
    accel::RdaOverheads rdaOverheads{};

    /**
     * Sub-accelerator fault timeline (sched/fault_model.hh). With a
     * non-empty timeline the dispatch loop schedules in degraded
     * mode: layers never start inside a known outage or on a dead
     * sub-accelerator (they defer past the window or demote to a
     * survivor), a layer in flight at a fault onset is killed and
     * recorded (ScheduledLayer::faultKilled) with its frame's chain
     * re-entering selection, and the drop policies re-prove
     * feasibility against the degraded capacity. Must cover exactly
     * the accelerator's sub-accelerator count when non-empty. An
     * empty timeline (the default) leaves every schedule
     * bit-identical to the fault-free scheduler.
     */
    FaultTimeline faults{};

    /**
     * Elastic repartitioning (sched/reconfig.hh). With an enabled
     * policy the dispatch loop re-evaluates it at every layer
     * boundary (the preemption-point hook): when the policy plans a
     * migration, the donor and receiver drain to completion, both
     * are offline for the modeled drain + rewire window (recorded as
     * a Schedule::ReconfigEvent), and afterwards a new
     * accel::PartitionEpoch is in force with only the affected
     * LayerCostTable columns re-prefilled. Reconfig::Off (the
     * default) leaves every schedule bit-identical to the
     * frozen-partition scheduler.
     */
    ReconfigOptions reconfig{};

    /**
     * Worker threads for the LayerCostTable prefill: 1 forces the
     * serial path (the DSE uses this inside its own worker pool), 0
     * resolves via HERALD_THREADS then hardware concurrency. The
     * pool only spins up on tables with at least
     * LayerCostTable::kMinParallelEvals entries; results are
     * bit-identical for every thread count.
     */
    std::size_t prefillThreads = 0;

    /**
     * Reject contradictory or meaningless combinations up front
     * (util::fatal) instead of silently no-opping: negative or NaN
     * cycle knobs, a load-balancing factor below 1, negative
     * post-processing budgets, and an LST hysteresis band paired
     * with a policy that never consults it. Both HeraldScheduler and
     * OnlineScheduler call this from their constructors; callers
     * composing options programmatically may call it directly for an
     * early error.
     */
    void validate() const;
};

/** The Herald scheduler. */
class HeraldScheduler
{
  public:
    HeraldScheduler(cost::CostModel &model,
                    SchedulerOptions options = SchedulerOptions{});

    /**
     * Build a schedule for @p wl on @p acc. Builds a LayerCostTable
     * for the (workload, accelerator) pair first (see
     * SchedulerOptions::prefillThreads) and dispatches from it.
     */
    Schedule schedule(const workload::Workload &wl,
                      const accel::Accelerator &acc) const;

    /**
     * Same, reusing a prebuilt @p table (must have been built for
     * this @p wl / @p acc pair with the same metric and RDA
     * overheads).
     */
    Schedule schedule(const workload::Workload &wl,
                      const accel::Accelerator &acc,
                      const LayerCostTable &table) const;

    /**
     * Idle-time elimination (Fig. 9): pull + gap-fill sweeps over
     * @p lanes, which must hold exactly one slot per entry of
     * @p schedule, in each sub-accelerator's time order, with the
     * slot's entry as its schedule index (a slot count other than the
     * entry count panics). schedule() hands over the dispatch
     * engine's own lanes (OnlineScheduler::takeLanes()): retain mode
     * never retires a slot. They are both the global-buffer check and
     * the time order, maintained across passes and moves (a gap-fill
     * splices one slot; a pull retimes it in place), and the scans
     * read start and duration off the slots. Dependences are two flat
     * per-entry arrays: each entry's ready time (arrival or the
     * predecessor's end) and its successor, whose ready time a retime
     * refreshes. The gap-fill skips gaps of at most kEps in a tight
     * loop and tests each candidate's fit and gain with one branch
     * before the pinned, window, context-penalty and buffer filters.
     * After a move at gap pos it resumes at max(0, pos -
     * lookaheadDepth - 1) rather than 0: no gap further left reads
     * anything the move changed, so the moves are exactly those of a
     * restart from 0 (sched/reference_scheduler.hh keeps that scan as
     * an oracle). Sets schedule.postProcessStats(). Cost:
     * O(passes x (N + moves x LA) x LA) candidate checks for N
     * entries and look-ahead LA, instead of O(passes x moves x N x
     * LA). Public so that tests can run it on hand-built schedules.
     */
    void postProcessIdleTime(Schedule &schedule, BufferLanes lanes,
                             const workload::Workload &wl) const;

    const SchedulerOptions &options() const { return opts; }

  private:
    cost::CostModel &costModel;
    SchedulerOptions opts;
};

} // namespace herald::sched

