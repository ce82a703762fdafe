/**
 * @file
 * Herald: the hardware/schedule co-design space exploration framework
 * (paper Fig. 10). For a chip budget, a workload and a set of
 * dataflow styles, Herald sweeps PE and bandwidth partitionings,
 * schedules the workload on every candidate with its layer scheduler,
 * and reports every evaluated design point plus the best one under
 * the chosen objective.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "dse/design_space.hh"
#include "sched/herald_scheduler.hh"
#include "util/pareto.hh"
#include "workload/workload.hh"

namespace herald::sched
{
class CostColumnCache;
} // namespace herald::sched

namespace herald::dse
{

/** One evaluated (accelerator, schedule) design point. */
struct DsePoint
{
    accel::Accelerator accelerator;
    sched::ScheduleSummary summary;
    /**
     * The elastic-repartitioning policy this point was scheduled
     * with (HeraldOptions::reconfigCandidates axis; Reconfig::Off
     * unless the sweep enabled one).
     */
    sched::ReconfigOptions reconfig{};

    /** Latency/energy/SLA-miss view for Pareto extraction. */
    util::DesignPoint
    designPoint() const
    {
        util::DesignPoint pt{summary.latencySec, summary.energyMj,
                             accelerator.name()};
        pt.slaMisses =
            static_cast<double>(summary.sla.deadlineMisses);
        return pt;
    }
};

/** Result of a design-space exploration. */
struct DseResult
{
    std::vector<DsePoint> points;
    std::size_t bestIdx = 0; //!< by the configured objective

    /**
     * Indices into points of the Pareto-optimal subset over
     * (latency, energy, SLA misses), in ascending-latency order
     * (util::paretoFrontIndices). Filled under
     * Objective::ParetoFrontier — empty for scalar objectives, whose
     * callers only want the argmin. When filled, bestIdx is always a
     * member: the argmin of the (misses, EDP) scalarization cannot
     * be dominated.
     */
    std::vector<std::size_t> frontier;

    const DsePoint &best() const { return points.at(bestIdx); }

    /** All points as latency/energy/miss triples. */
    std::vector<util::DesignPoint> designPoints() const;

    /** The frontier rows of designPoints() (empty unless filled). */
    std::vector<util::DesignPoint> frontierPoints() const;
};

/**
 * What Herald::explore minimizes over the partition space. Unlike
 * sched::Metric (the per-layer assignment metric), objectives are
 * whole-schedule properties — including the SLA dimension of
 * real-time workloads.
 */
enum class Objective
{
    Edp,
    Latency,
    Energy,
    /**
     * Deadline-miss count first, whole-workload latency as the
     * tie-break (encoded so any miss dominates any latency delta).
     * Dropped frames count as misses, so admission control is
     * co-designed too. Meaningful on workloads with deadlines; pair
     * it with a deadline-driven scheduler.policy (Policy::Edf or
     * Policy::Lst, optionally DropPolicy::HopelessFrames) so the
     * sweep searches hardware x policy together.
     */
    SlaViolations,
    /**
     * Multi-objective mode: DseResult::frontier is filled with the
     * Pareto-optimal subset over (latency, energy, SLA misses), and
     * bestIdx falls back to the lexicographic (misses, EDP)
     * scalarization — a point guaranteed to lie on the frontier, so
     * single-number consumers keep working. This is also the scalar
     * the annealing chains hill-climb on under this objective.
     */
    ParetoFrontier,
};

const char *toString(Objective objective);

/** Herald configuration. */
struct HeraldOptions
{
    PartitionSpaceOptions partition{};
    sched::SchedulerOptions scheduler{};
    Objective objective = Objective::Edp;
    /**
     * Elastic-repartitioning policy axis: every partition candidate
     * is scheduled once per entry (threshold / migration quantum /
     * penalty-sensitivity grid — see sched::ReconfigOptions) and the
     * objective picks across the full cross product, so static
     * splits compete directly against runtime migration. Most useful
     * with Objective::SlaViolations on deadline workloads. Empty
     * (the default) keeps today's behavior: one evaluation per
     * partition with scheduler.reconfig as-is.
     */
    std::vector<sched::ReconfigOptions> reconfigCandidates{};
    /** Charge idle static energy at schedule level. */
    bool chargeIdleEnergy = true;
    /**
     * Worker threads for the partition sweep: 0 resolves via the
     * HERALD_THREADS environment variable, then the hardware
     * concurrency; 1 forces the serial path. Results are identical
     * for every thread count (see Herald::explore).
     */
    std::size_t numThreads = 0;
};

/** The co-DSE driver. */
class Herald
{
  public:
    Herald(cost::CostModel &model,
           HeraldOptions options = HeraldOptions{});

    /**
     * Schedule @p wl on a fixed accelerator and return the summary
     * (compiler use case: schedule-only, Sec. I contribution (ii)).
     */
    DsePoint evaluate(const workload::Workload &wl,
                      const accel::Accelerator &acc) const;

    /**
     * Full co-DSE (design-time use case): explore PE/BW partitionings
     * of an HDA with the given @p styles on the @p chip budget.
     *
     * Every strategy drives one memoized evaluation: a candidate is
     * scheduled once per reconfig entry the first time it is asked
     * for, across HeraldOptions::numThreads workers, through one
     * CostColumnCache shared by the whole sweep. Every evaluation is
     * an independent pure function and its point lands in a slot per
     * (candidate, reconfig) index, appended in that order; bestIdx
     * is the first argmin of the objective over all points. So the
     * returned points, their order, and bestIdx are identical for
     * every thread count (including the serial path).
     */
    DseResult explore(const workload::Workload &wl,
                      const accel::AcceleratorClass &chip,
                      const std::vector<dataflow::DataflowStyle>
                          &styles) const;

    const HeraldOptions &options() const { return opts; }

  private:
    cost::CostModel &costModel;
    HeraldOptions opts;

    double objectiveValue(const sched::ScheduleSummary &summary) const;

    /**
     * evaluate() with an explicit LayerCostTable prefill width — the
     * partition sweep forces the serial prefill on its workers while
     * the public single-candidate entry point keeps the configured
     * fan-out. A non-null @p cache routes the prefill through the
     * sweep's shared CostColumnCache.
     */
    DsePoint evaluateImpl(const workload::Workload &wl,
                          const accel::Accelerator &acc,
                          const sched::ReconfigOptions &reconfig,
                          std::size_t prefill_threads,
                          sched::CostColumnCache *cache = nullptr)
        const;
};

} // namespace herald::dse

