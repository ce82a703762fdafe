/**
 * @file
 * Instance-selection and drop policies of the dispatch engine.
 *
 * The dispatch loop repeatedly asks "which released instance's next
 * layer do I place now?". That choice — FIFO order, earliest absolute
 * deadline (EDF), or least slack (LST) — is the whole difference
 * between the real-time policies, and each reduces to a *priority
 * key* per instance: lower dispatches first, ties break on the base
 * order (instance index, rotated under breadth-first ordering).
 * FIFO's key is a constant (the base order decides), EDF's is the
 * absolute deadline, LST's is deadline minus optimistic remaining
 * work — re-keyed as the instance's layers retire. The engine
 * (sched/online_scheduler.hh) keeps released instances in a
 * (key, index)-ordered set, so selection is O(log n).
 *
 * FIFO and EDF are bit-identical to sched::referenceSchedule()
 * (asserted by test_sched_equivalence); LST is covered by property
 * tests instead (validity, no-op on deadline-free workloads, misses
 * <= EDF on the over-subscribed factory scenarios).
 */

#pragma once

namespace herald::sched
{

/** Instance-selection policy of the dispatch loop. */
enum class Policy
{
    Fifo, //!< base ordering only (round-robin / instance order)
    Edf,  //!< earliest absolute deadline first
    Lst,  //!< least slack (deadline - optimistic remaining work)
};

/** Over-subscription admission control. */
enum class DropPolicy
{
    None, //!< schedule every frame, hopeless or not
    /**
     * Drop a frame whose slack is provably negative at release: even
     * starting at its arrival and running every remaining layer on
     * its best sub-accelerator back to back, completion would exceed
     * the deadline. Such frames cannot be saved, only poison live
     * ones; dropped frames are counted as deadline misses (and in
     * SlaStats::droppedFrames). Never drops deadline-free frames.
     */
    HopelessFrames,
    /**
     * HopelessFrames plus a *dynamic* re-test at every dispatch
     * decision: a live frame is shed the moment
     *
     *     now + optimistic remaining work > deadline
     *
     * where "now" is a lower bound on the frame's next possible start
     * (its dependence-chain ready time, never earlier than the
     * earliest sub-accelerator availability) and the remaining work
     * is the LayerCostTable's best-case suffix sum — so the drop is
     * still provable, it just uses the evolving schedule state
     * instead of only the arrival-time proof. A frame shed mid-flight
     * keeps its already-committed layers on the timeline (they
     * consumed real cycles) but schedules nothing further; it is
     * counted as dropped *and* missed. Deterministic: the test reads
     * only committed-schedule state. Never drops deadline-free
     * frames.
     */
    DoomedFrames,
};

const char *toString(Policy policy);
const char *toString(DropPolicy drop);

} // namespace herald::sched

