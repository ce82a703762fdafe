/**
 * @file
 * Runtime repartitioning for the scheduler.
 *
 * Herald freezes the sub-accelerator partition per DSE candidate;
 * under shifting multi-tenant load that frozen split strands
 * capacity on whichever sub-accelerator the light tenant prefers. A
 * BacklogSkewPolicy is evaluated at the dispatch loop's
 * layer-boundary hook (the same point preemption re-selects): when
 * the committed completion-frontier skew between sub-accelerators
 * crosses a threshold, it plans a PE/bandwidth/buffer migration from
 * the under-loaded donor to the backlogged receiver. The migration is
 * a short planned outage on both parties — in-flight layers drain to
 * completion (the window starts at both frontiers' max), the window
 * costs a modeled drain + rewire penalty, and afterwards a new
 * accel::PartitionEpoch is in force and only the donor/receiver
 * LayerCostTable columns are re-prefilled.
 *
 * Determinism contract: a decision is a pure function of committed
 * scheduler state (per-sub-acc frontiers, the live PE split) plus
 * the policy's own cooldown state, so schedules are bit-identical
 * across reruns, prefill thread counts, and the offline/online
 * schedulers. Reconfig::Off leaves every schedule bit-identical to
 * the frozen-partition scheduler.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/accelerator.hh"

namespace herald::sched
{

/** Runtime-repartitioning policy of the dispatch loop. */
enum class Reconfig
{
    Off,         //!< frozen partition (pre-elasticity bit-identical)
    BacklogSkew, //!< migrate when frontier skew crosses a threshold
};

const char *toString(Reconfig reconfig);

/** Repartitioning knobs (also the DSE's repartitioning axis). */
struct ReconfigOptions
{
    Reconfig policy = Reconfig::Off;

    /**
     * BacklogSkew trigger: migrate when the committed completion
     * frontiers of the most- and least-loaded sub-accelerators
     * differ by more than this many cycles. Must be finite and
     * positive when a policy is enabled.
     */
    double skewThresholdCycles = 0.0;

    /**
     * PEs moved per migration (clamped so the donor keeps at least
     * one). Zero with an enabled policy is rejected by validate():
     * it would plan outages that migrate nothing.
     */
    std::uint64_t migrationQuantumPes = 0;

    /** Fixed pipeline-drain cycles charged per migration. */
    double drainCycles = 0.0;

    /** Rewire cycles charged per moved PE. */
    double perPeRewireCycles = 0.0;

    /**
     * Minimum committed-frontier advance between migrations beyond
     * the migration window itself (0 = back-to-back allowed).
     */
    double cooldownCycles = 0.0;

    bool enabled() const { return policy != Reconfig::Off; }

    /** Drain + rewire cost of moving @p moved PEs. */
    double
    penaltyCycles(std::uint64_t moved) const
    {
        return accel::reconfigPenaltyCycles(moved, drainCycles,
                                            perPeRewireCycles);
    }

    /**
     * Reject contradictory knob combinations up front (util::fatal):
     * an enabled policy with a zero migration quantum, a non-finite
     * or non-positive skew threshold, or negative/non-finite penalty
     * and cooldown cycles. Called by SchedulerOptions::validate().
     */
    void validate() const;
};

/** One planned migration (none when @c migrate is false). */
struct ReconfigDecision
{
    bool migrate = false;
    std::size_t donor = 0;    //!< under-loaded, gives up PEs
    std::size_t receiver = 0; //!< backlogged, gains PEs
    std::uint64_t movedPes = 0;
};

/**
 * BacklogSkew: when max(frontier) - min(frontier) exceeds the
 * threshold, the least-loaded sub-accelerator donates
 * min(quantum, donor PEs - 1) PEs to the most-loaded one (strict
 * comparisons, so ties resolve to the lowest index on both ends).
 * A cooldown suppresses re-firing until the max frontier passes the
 * last window's end plus cooldownCycles. One instance is bound to a
 * single scheduling run (its cooldown state is part of the
 * schedule's determinism).
 */
class BacklogSkewPolicy
{
  public:
    explicit BacklogSkewPolicy(const ReconfigOptions &options);

    /**
     * Decide on a migration from committed state only: @p acc_avail
     * is the per-sub-accelerator completion frontier, @p pe_split
     * the live PE allocation. Pure: cooldown updates happen in
     * onMigration().
     */
    ReconfigDecision
    evaluate(const std::vector<double> &acc_avail,
             const std::vector<std::uint64_t> &pe_split) const;

    /** The planned migration committed; its window ends at @p end. */
    void onMigration(double window_end);

  private:
    ReconfigOptions opts;
    double cooldownUntil = 0.0;
};

/**
 * The successor epoch a committed @p decision produces on @p acc's
 * live split: PEs move by decision.movedPes, bandwidth moves
 * proportionally to the donor's moved-PE fraction, and the buffer
 * moves proportionally to the chip-wide moved-PE fraction (integer
 * bytes, clamped so the donor keeps a non-empty share). Both
 * schedulers call this, so offline and online compute bit-identical
 * epochs.
 */
accel::PartitionEpoch
planMigrationEpoch(const accel::Accelerator &acc,
                   const ReconfigDecision &decision,
                   std::uint64_t epoch_id);

/**
 * Indices, ascending, of the sub-accelerators whose resource identity
 * differs between @p from and @p to (same arity): the cost-table
 * columns an epoch swap must re-evaluate. Besides donor and receiver
 * this can list a third sub-accelerator when the swap first
 * materializes the buffer split (planMigrationEpoch gives the
 * remainder bytes to the first shares; the floor share preceded it).
 */
std::vector<std::size_t> resourceChanges(const accel::Accelerator &from,
                                         const accel::Accelerator &to);

} // namespace herald::sched
