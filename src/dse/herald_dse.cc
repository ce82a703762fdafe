#include "dse/herald_dse.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sched/layer_cost_table.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/thread_pool.hh"

namespace herald::dse
{

namespace
{

/** Annealing temperature at iteration 0, relative to the objective. */
constexpr double kAnnealInitialTemp = 0.10;
/** Geometric cooling factor per annealing iteration. */
constexpr double kAnnealCooling = 0.97;

/**
 * Canonical key of a partition candidate for duplicate detection: the
 * PE split and the bandwidth shares quantized to 2^-20 GB/s, so grid
 * points that differ only by floating-point noise collapse to one key.
 */
using CandidateKey =
    std::pair<std::vector<std::uint64_t>, std::vector<std::int64_t>>;

CandidateKey
candidateKey(const PartitionCandidate &cand)
{
    CandidateKey key;
    key.first = cand.peSplit;
    key.second.reserve(cand.bwSplit.size());
    for (double bw : cand.bwSplit) {
        key.second.push_back(
            std::llround(bw * static_cast<double>(1 << 20)));
    }
    return key;
}

/**
 * Index of the first strict minimum of @p values, or @p none when no
 * value is below +infinity.
 */
std::size_t
firstArgmin(const std::vector<double> &values, std::size_t none)
{
    std::size_t idx = none;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] < best) {
            best = values[i];
            idx = i;
        }
    }
    return idx;
}

} // namespace

std::vector<util::DesignPoint>
DseResult::designPoints() const
{
    std::vector<util::DesignPoint> out;
    out.reserve(points.size());
    for (const DsePoint &p : points)
        out.push_back(p.designPoint());
    return out;
}

std::vector<util::DesignPoint>
DseResult::frontierPoints() const
{
    std::vector<util::DesignPoint> out;
    out.reserve(frontier.size());
    for (std::size_t idx : frontier)
        out.push_back(points.at(idx).designPoint());
    return out;
}

Herald::Herald(cost::CostModel &model, HeraldOptions options)
    : costModel(model), opts(options)
{
}

const char *
toString(Objective objective)
{
    switch (objective) {
      case Objective::Edp:
        return "EDP";
      case Objective::Latency:
        return "latency";
      case Objective::Energy:
        return "energy";
      case Objective::SlaViolations:
        return "SLA violations";
      case Objective::ParetoFrontier:
        return "Pareto frontier";
    }
    util::panic("unknown Objective");
}

double
Herald::objectiveValue(const sched::ScheduleSummary &summary) const
{
    switch (opts.objective) {
      case Objective::Edp:
        return summary.edp();
      case Objective::Latency:
        return summary.latencySec;
      case Objective::Energy:
        return summary.energyMj;
      case Objective::SlaViolations: {
        // Lexicographic (misses, latency) folded into one double:
        // the latency term is squashed below 1, so one extra miss
        // always outweighs any latency difference.
        double lat = summary.latencySec;
        return static_cast<double>(summary.sla.deadlineMisses) +
               lat / (1.0 + lat);
      }
      case Objective::ParetoFrontier: {
        // Scalarization used for bestIdx (and for the annealing
        // chains) in frontier mode: lexicographic (misses, EDP),
        // same squash-below-1 fold as SlaViolations. Its argmin is
        // always ON the frontier: a dominator would have misses <=
        // and latency/energy <= with one strict, hence an equal-or-
        // lower key — contradiction with being the strict argmin.
        double edp = summary.edp();
        return static_cast<double>(summary.sla.deadlineMisses) +
               edp / (1.0 + edp);
      }
    }
    util::panic("unknown Objective");
}

DsePoint
Herald::evaluate(const workload::Workload &wl,
                 const accel::Accelerator &acc) const
{
    return evaluateImpl(wl, acc, opts.scheduler.reconfig,
                        opts.scheduler.prefillThreads);
}

DsePoint
Herald::evaluateImpl(const workload::Workload &wl,
                     const accel::Accelerator &acc,
                     const sched::ReconfigOptions &reconfig,
                     std::size_t prefill_threads,
                     sched::CostColumnCache *cache) const
{
    // One LayerCostTable per candidate: built once (unique layers x
    // sub-accs), reused across every scheduled layer of the run.
    // With a sweep-shared column cache, the build fetches whole
    // columns that earlier candidates already evaluated.
    sched::SchedulerOptions sched_opts = opts.scheduler;
    sched_opts.reconfig = reconfig;
    sched_opts.prefillThreads = prefill_threads;
    sched::HeraldScheduler scheduler(costModel, sched_opts);
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        costModel, wl, acc, sched_opts.metric, sched_opts.rdaOverheads,
        prefill_threads, cache);
    sched::Schedule schedule = scheduler.schedule(wl, acc, table);
    DsePoint point{acc,
                   schedule.finalize(wl, acc,
                                     costModel.energyModel(),
                                     opts.chargeIdleEnergy),
                   reconfig};
    return point;
}

DseResult
Herald::explore(const workload::Workload &wl,
                const accel::AcceleratorClass &chip,
                const std::vector<dataflow::DataflowStyle> &styles)
    const
{
    if (styles.empty())
        util::fatal("Herald::explore: no dataflow styles given");

    // One fixed pool for both sweep rounds; no pool (and no spawned
    // threads) on the serial path. The calling thread participates
    // in parallelFor, so n_threads total evaluators means
    // n_threads - 1 pool workers.
    const std::size_t n_threads =
        util::resolveThreadCount(opts.numThreads);
    std::optional<util::ThreadPool> pool;
    if (n_threads > 1)
        pool.emplace(n_threads - 1);

    // The repartitioning-policy axis: every partition candidate is
    // scheduled once per entry, and the reduction at the end picks
    // across the full partition x reconfig cross product. An empty
    // axis degenerates to one evaluation per partition with the
    // configured scheduler.reconfig — exactly today's sweep.
    const std::vector<sched::ReconfigOptions> recfgs =
        opts.reconfigCandidates.empty()
            ? std::vector<sched::ReconfigOptions>{
                  opts.scheduler.reconfig}
            : opts.reconfigCandidates;
    const std::size_t n_recfg = recfgs.size();

    // One column cache for the whole sweep: candidates that hand a
    // sub-accelerator a (style, resources) tuple an earlier candidate
    // already evaluated reuse the whole LayerCostTable column. Columns
    // are pure functions of their key, so results are bit-identical
    // to cold builds.
    sched::CostColumnCache column_cache;

    DseResult result;

    // The one evaluation path every strategy drives. Each candidate
    // is scheduled once per reconfig entry the first time any round
    // asks for it; a repeat (an annealing revisit, a Binary
    // refinement point the coarse grid scored) appends no point and
    // reads its remembered value. Workers fill one slot per fresh
    // (candidate, reconfig) index and the points are appended in that
    // order, so they match the serial sweep exactly. Returns each
    // candidate's objective value minimized over the reconfig axis.
    std::map<CandidateKey, double> memo;
    auto evaluate = [&](const std::vector<PartitionCandidate> &cands) {
        std::vector<const double *> values;
        std::vector<std::pair<const PartitionCandidate *, double *>>
            fresh;
        values.reserve(cands.size());
        for (const PartitionCandidate &c : cands) {
            auto [it, inserted] = memo.emplace(
                candidateKey(c), std::numeric_limits<double>::infinity());
            values.push_back(&it->second);
            if (inserted)
                fresh.emplace_back(&c, &it->second);
        }

        std::vector<std::optional<DsePoint>> slots(fresh.size() *
                                                   n_recfg);
        // When candidates fan out across the sweep pool, each one
        // builds its LayerCostTable serially — nesting a prefill pool
        // would only oversubscribe the machine. On the serial branch
        // (no pool, or a single slot, e.g. a degenerate Binary
        // refinement batch) the prefill gets the full thread budget
        // instead; either way the results are bit-identical.
        const bool sweep_parallel = pool && slots.size() > 1;
        const std::size_t prefill_threads =
            sweep_parallel ? 1 : n_threads;
        auto eval_one = [&](std::size_t i) {
            const PartitionCandidate &cand = *fresh[i / n_recfg].first;
            accel::Accelerator acc = accel::Accelerator::makeHda(
                chip, styles, cand.peSplit, cand.bwSplit);
            slots[i] = evaluateImpl(wl, acc, recfgs[i % n_recfg],
                                    prefill_threads, &column_cache);
        };
        if (sweep_parallel) {
            pool->parallelFor(0, slots.size(), eval_one);
        } else {
            for (std::size_t i = 0; i < slots.size(); ++i)
                eval_one(i);
        }

        for (std::size_t i = 0; i < slots.size(); ++i) {
            double &value = *fresh[i / n_recfg].second;
            value = std::min(value, objectiveValue(slots[i]->summary));
            result.points.push_back(std::move(*slots[i]));
        }
        std::vector<double> out;
        out.reserve(values.size());
        for (const double *v : values)
            out.push_back(*v);
        return out;
    };

    if (opts.partition.strategy == SearchStrategy::Annealing) {
        // Batch-synchronous simulated annealing. Every iteration,
        // each chain proposes one neighbor; the *fresh* proposals
        // (never evaluated before) are scored in a single parallel
        // batch, then acceptance runs serially in chain order.
        // Randomness lives in per-chain SplitMix64 streams seeded
        // from opts.partition.seed, and every evaluated value is a
        // pure function of the candidate — so the chain trajectories,
        // the points vector, bestIdx and the frontier are
        // bit-identical across reruns and HERALD_THREADS settings.
        const AnnealingOptions &ann = opts.partition.annealing;
        if (ann.chains == 0)
            util::fatal("Herald::explore: annealing needs >= 1 "
                        "chain");

        util::SplitMix64 seeder(opts.partition.seed);
        std::vector<util::SplitMix64> rngs;
        rngs.reserve(ann.chains);
        for (std::size_t c = 0; c < ann.chains; ++c)
            rngs.emplace_back(seeder.next());

        std::vector<PartitionCandidate> cur(ann.chains);
        for (std::size_t c = 0; c < ann.chains; ++c) {
            cur[c] = randomCandidate(chip.numPes, chip.bwGBps,
                                     styles.size(), opts.partition,
                                     rngs[c]);
        }
        std::vector<double> cur_val = evaluate(cur);

        for (std::size_t it = 0; it < ann.iterations; ++it) {
            if (ann.maxEvaluations != 0 &&
                memo.size() >= ann.maxEvaluations)
                break;
            const double temp =
                kAnnealInitialTemp *
                std::pow(kAnnealCooling, static_cast<double>(it));
            std::vector<PartitionCandidate> prop(ann.chains);
            for (std::size_t c = 0; c < ann.chains; ++c) {
                prop[c] = neighborCandidate(cur[c], chip.numPes,
                                            chip.bwGBps,
                                            opts.partition, rngs[c]);
            }
            std::vector<double> prop_val = evaluate(prop);
            for (std::size_t c = 0; c < ann.chains; ++c) {
                const double delta = prop_val[c] - cur_val[c];
                bool accept = delta <= 0.0;
                if (!accept) {
                    // Metropolis on the *relative* regression
                    // delta / |current|, so the temperature scale is
                    // objective-unit-free. A zero denominator (cold
                    // chain or zero-valued objective) rejects.
                    const double denom =
                        temp * std::abs(cur_val[c]);
                    accept = denom > 0.0 &&
                             rngs[c].nextDouble() <
                                 std::exp(-delta / denom);
                }
                if (accept) {
                    cur[c] = prop[c];
                    cur_val[c] = prop_val[c];
                }
            }
        }
    } else {
        const std::vector<PartitionCandidate> candidates =
            generateCandidates(chip.numPes, chip.bwGBps,
                               styles.size(), opts.partition);
        const std::vector<double> values = evaluate(candidates);

        if (opts.partition.strategy == SearchStrategy::Binary) {
            // Refine around the coarse optimum (the first candidate
            // with the smallest value) on the fine grid. The window
            // overlaps the coarse grid, its own centre included; the
            // memo skips those points and keeps the rest in
            // refineAround's order.
            const std::size_t centre =
                firstArgmin(values, candidates.size());
            if (centre < candidates.size()) {
                evaluate(refineAround(candidates[centre], chip.numPes,
                                      chip.bwGBps, opts.partition));
            }
        }
    }

    if (result.points.empty())
        util::fatal("Herald::explore: empty partition space");

    // One reduction over every evaluated point, in point order.
    std::vector<double> values;
    values.reserve(result.points.size());
    for (const DsePoint &point : result.points)
        values.push_back(objectiveValue(point.summary));
    result.bestIdx = firstArgmin(values, 0);

    // Frontier mode: extract the Pareto-optimal subset over every
    // evaluated point. bestIdx is the scalarized argmin, which
    // provably lies on this frontier (see objectiveValue).
    if (opts.objective == Objective::ParetoFrontier)
        result.frontier = util::paretoFrontIndices(result.designPoints());
    return result;
}

} // namespace herald::dse
