/**
 * @file
 * Multi-objective Pareto-front extraction over design points, used to
 * reproduce the Pareto curves of Fig. 11, to pick final designs, and
 * by the DSE's Objective::ParetoFrontier mode (dse/herald_dse.hh).
 *
 * Objectives are latency, energy and SLA deadline misses, all
 * minimized. The SLA axis defaults to 0, so callers that only care
 * about the paper's two-dimensional latency/energy trade-off (the
 * figure benches) get exactly the classic behavior: a tied third
 * axis never influences dominance.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace herald::util
{

/**
 * A single design point in (latency, energy, SLA-miss) space.
 *
 * Dominance semantics (see dominates()): point A dominates point B
 * when A is no worse in *every* objective (latency, energy,
 * slaMisses) and strictly better in at least one. Two points with
 * identical coordinates dominate in neither direction, and
 * "incomparable" points (each wins a different axis) are both kept
 * on the frontier. The Pareto front is the subset no other point
 * dominates — the designs for which no free improvement exists.
 */
struct DesignPoint
{
    double latency = 0.0; //!< seconds (or cycles; units are uniform)
    double energy = 0.0;  //!< millijoules (or pJ; units are uniform)
    std::string label;    //!< free-form tag ("NVDLA FDA", "HDA 4k/12k")
    /**
     * Deadline misses of the schedule (SlaStats::deadlineMisses,
     * dropped frames included). Declared after @c label so the many
     * pre-existing two-objective aggregate initializers keep
     * compiling; defaults to 0, which makes the third axis inert for
     * deadline-free workloads.
     */
    double slaMisses = 0.0;

    /** Energy-delay product, the paper's headline scalar metric. */
    double edp() const { return latency * energy; }
};

/**
 * True when @p a dominates @p b: a.latency <= b.latency &&
 * a.energy <= b.energy && a.slaMisses <= b.slaMisses, with strict
 * inequality in at least one of the three. Irreflexive and
 * transitive; see DesignPoint for the full semantics.
 */
bool dominates(const DesignPoint &a, const DesignPoint &b);

/**
 * Extract the Pareto-optimal subset of @p points (minimizing
 * latency, energy and SLA misses), sorted by ascending latency
 * (ties: ascending energy, then ascending misses). Exact coordinate
 * duplicates collapse to one representative — the first in the
 * sorted order — so the front is a set of distinct trade-offs. The
 * result is a pure function of the point *set*: any permutation of
 * the input yields the identical front.
 */
std::vector<DesignPoint> paretoFront(std::vector<DesignPoint> points);

/**
 * Index view of the same extraction: indices into @p points of the
 * Pareto-optimal subset, in the same ascending-latency order
 * (coordinate ties resolve to the lowest index, and exact coordinate
 * duplicates keep only the lowest index). This is what the DSE
 * stores in DseResult::frontier — indices keep the frontier joined
 * to the full evaluated-point records.
 */
std::vector<std::size_t>
paretoFrontIndices(const std::vector<DesignPoint> &points);

} // namespace herald::util
