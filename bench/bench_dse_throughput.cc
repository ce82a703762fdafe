/**
 * @file
 * DSE search-engine benchmark: how fast each engine configuration
 * resolves a 3-way HDA partition space (where cost-table columns
 * actually recur across candidates), on the edge chip with the AR/VR
 * workload:
 *
 *   exhaustive_nocache  the pre-engine brute force: full grid,
 *                       shareCostColumns off (every candidate pays
 *                       its whole LayerCostTable prefill);
 *   exhaustive          full grid through the cross-candidate
 *                       CostColumnCache;
 *   annealing           the metaheuristic under the same cache, with
 *                       an evaluation budget a fraction of the grid.
 *
 * The headline metric is coverage_per_sec: candidate-space size
 * divided by wall time — how many grid candidates per second the
 * engine effectively resolves while reaching its best point. For the
 * exhaustive legs that is exactly evaluated-candidates/sec; for
 * annealing it credits the search with the space it covers without
 * visiting (the point of a metaheuristic), which is only honest
 * together with the quality gate below.
 *
 * The engine claims, asserted in-binary (exit 1 on violation) and
 * gated in CI against bench/baselines/ci-small-dse.json:
 *   - annealing resolves the space >= 10x faster than the brute-force
 *     configuration (coverage_per_sec ratio);
 *   - its best point is equal-or-better (scalarized Pareto objective,
 *     misses then EDP) than the exhaustive optimum on the same grid;
 *   - a rerun with a different thread count is bit-identical (best
 *     point, point count, frontier).
 *
 * The gated legs run serially (numThreads = 1) so the metric isolates
 * per-candidate engine work from pool scaling; the parallel exhaustive
 * leg is reported for the perf trajectory but not gated. A fresh
 * CostModel per leg keeps every leg cold-start honest. The annealing
 * seed is pinned: the run is bit-reproducible, so the quality gate is
 * exact, not statistical. Flags: docs/BENCHMARKS.md.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_baseline.hh"
#include "bench_common.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace herald;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

const std::vector<dataflow::DataflowStyle> kStyles = {
    dataflow::DataflowStyle::NVDLA,
    dataflow::DataflowStyle::ShiDiannao,
    dataflow::DataflowStyle::Eyeriss,
};

struct SweepResult
{
    std::size_t candidates = 0; //!< candidates actually evaluated
    double seconds = 0.0;
    double bestObjective = 0.0;
    std::size_t frontierSize = 0;
    dse::DseResult result;
};

/** Space candidates resolved per second of wall time. */
double
coveragePerSec(std::size_t space, const SweepResult &leg)
{
    return leg.seconds > 0.0
               ? static_cast<double>(space) / leg.seconds
               : 0.0;
}

/**
 * The scalarized Pareto objective (misses, then squashed EDP) the
 * engine minimizes under Objective::ParetoFrontier — recomputed here
 * so the bench compares leg quality with the engine's own yardstick.
 */
double
scalarObjective(const sched::ScheduleSummary &summary)
{
    double edp = summary.edp();
    return static_cast<double>(summary.sla.deadlineMisses) +
           edp / (1.0 + edp);
}

/** Run one explore with a fresh (cold) CostModel. */
SweepResult
runSweep(const workload::Workload &wl,
         const accel::AcceleratorClass &chip,
         const dse::HeraldOptions &base, std::size_t threads)
{
    cost::CostModel model;
    dse::HeraldOptions opts = base;
    opts.numThreads = threads;
    dse::Herald herald(model, opts);

    Clock::time_point start = Clock::now();
    SweepResult out;
    out.result = herald.explore(wl, chip, kStyles);
    out.seconds = secondsSince(start);
    out.candidates = out.result.points.size();
    out.bestObjective = scalarObjective(out.result.best().summary);
    out.frontierSize = out.result.frontier.size();
    return out;
}

/** Scheduler-only timing: us per scheduled layer, warm cost cache. */
double
schedulerMicrosPerLayer(const workload::Workload &wl,
                        const accel::AcceleratorClass &chip)
{
    cost::CostModel model;
    sched::HeraldScheduler scheduler(model,
                                     sched::SchedulerOptions{});
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip, kStyles,
        {chip.numPes / 2, chip.numPes / 4, chip.numPes / 4},
        {chip.bwGBps / 2, chip.bwGBps / 4, chip.bwGBps / 4});

    scheduler.schedule(wl, acc); // warm the cost cache
    const int reps = 10;
    Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r)
        scheduler.schedule(wl, acc);
    double per_schedule = secondsSince(start) / reps;
    return per_schedule * 1e6 /
           static_cast<double>(wl.totalLayers());
}

/** True when two results are bit-identical point for point. */
bool
identicalResults(const dse::DseResult &a, const dse::DseResult &b)
{
    if (a.bestIdx != b.bestIdx || a.frontier != b.frontier ||
        a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const sched::ScheduleSummary &sa = a.points[i].summary;
        const sched::ScheduleSummary &sb = b.points[i].summary;
        if (sa.latencySec != sb.latencySec ||
            sa.energyMj != sb.energyMj ||
            sa.sla.deadlineMisses != sb.sla.deadlineMisses ||
            a.points[i].accelerator.name() !=
                b.points[i].accelerator.name())
            return false;
    }
    return true;
}

void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &,
     const benchgate::FlatJson &)
{
    // The engine's coverage rate and its structural speedup over the
    // brute-force configuration must not regress. The speedup is a
    // machine-relative ratio (both legs timed on the same host), so
    // it is far more stable across runners than raw wall-clock.
    chk.checkThroughput("annealing.coverage_per_sec");
    chk.checkThroughput("annealing.speedup_vs_nocache");
    chk.checkThroughput("exhaustive.speedup_vs_nocache");
    // Deterministic counters: the annealing best point may never be
    // worse than the exhaustive optimum, and the determinism rerun
    // may never diverge. Both are exact, tolerance-free gates.
    chk.checkCountNotAbove("annealing.quality_gap",
                           "annealing.quality_gap");
    chk.checkThroughput("determinism_ok");
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    const std::size_t threads =
        util::resolveThreadCount(static_cast<std::size_t>(
            args.value(benchgate::kThreadsFlag, 0)));
    workload::Workload wl = workload::arvrA();
    accel::AcceleratorClass chip = accel::edgeClass();

    // PE x BW composition grid. Both modes keep the bandwidth quantum
    // at 1 GBps; --small halves the PE resolution, shrinking the
    // space ~5x (2205 vs 11025 candidates on the edge chip).
    dse::HeraldOptions opts;
    opts.objective = dse::Objective::ParetoFrontier;
    opts.partition.peGranularity =
        small ? chip.numPes / 8 : chip.numPes / 16;
    opts.partition.bwGranularity = chip.bwGBps / 16;

    std::printf("=== DSE engine: %s on %s, %zu-way HDA (%s grid) "
                "===\n",
                wl.name().c_str(), chip.name.c_str(), kStyles.size(),
                small ? "small" : "full");

    // Brute force: full grid, no column sharing (the pre-engine cost
    // profile). Serial, like every gated leg.
    dse::HeraldOptions nocache_opts = opts;
    nocache_opts.shareCostColumns = false;
    SweepResult nocache = runSweep(wl, chip, nocache_opts, 1);
    std::size_t space = nocache.candidates;
    std::printf("exhaustive/nocache: %zu candidates in %.3f s "
                "(%.0f cand/s, best %.6g)\n",
                nocache.candidates, nocache.seconds,
                coveragePerSec(space, nocache),
                nocache.bestObjective);

    // Same grid through the cross-candidate column cache.
    SweepResult exhaustive = runSweep(wl, chip, opts, 1);
    double ex_speedup = coveragePerSec(space, exhaustive) /
                        coveragePerSec(space, nocache);
    std::printf("exhaustive/cached:  %zu candidates in %.3f s "
                "(%.0f cand/s, %.2fx, best %.6g)\n",
                exhaustive.candidates, exhaustive.seconds,
                coveragePerSec(space, exhaustive), ex_speedup,
                exhaustive.bestObjective);

    // The metaheuristic: same cache, an evaluation budget a fraction
    // of the grid, a seed pinned to keep the quality gate exact.
    dse::HeraldOptions ann_opts = opts;
    ann_opts.partition.strategy = dse::SearchStrategy::Annealing;
    ann_opts.partition.annealing.chains = 8;
    ann_opts.partition.annealing.iterations = 64;
    ann_opts.partition.annealing.maxEvaluations = small ? 80 : 384;
    ann_opts.partition.seed = small ? 14 : 5;
    SweepResult annealing = runSweep(wl, chip, ann_opts, 1);
    double ann_speedup = coveragePerSec(space, annealing) /
                         coveragePerSec(space, nocache);
    double quality_gap =
        annealing.bestObjective - exhaustive.bestObjective;
    std::printf("annealing:          %zu evals in %.3f s "
                "(%.0f cand/s, %.2fx, best %.6g, frontier %zu)\n",
                annealing.candidates, annealing.seconds,
                coveragePerSec(space, annealing), ann_speedup,
                annealing.bestObjective, annealing.frontierSize);

    // Determinism rerun: same options, different thread count, must
    // be bit-identical (checked on the full DseResult).
    std::size_t rerun_threads = std::max<std::size_t>(threads, 4);
    SweepResult rerun = runSweep(wl, chip, ann_opts, rerun_threads);
    bool deterministic =
        identicalResults(annealing.result, rerun.result);

    // Parallel exhaustive leg: trajectory only, not gated.
    SweepResult parallel = runSweep(wl, chip, opts, threads);
    std::printf("parallel/cached:    %zu candidates in %.3f s "
                "(%.0f cand/s, %zu threads)\n",
                parallel.candidates, parallel.seconds,
                coveragePerSec(space, parallel), threads);

    double us_per_layer = schedulerMicrosPerLayer(wl, chip);
    std::printf("scheduler: %.2f us/layer (%zu layers, warm "
                "cache)\n",
                us_per_layer, wl.totalLayers());

    // The engine's contract, self-asserted so a bare bench run (no
    // baseline at hand) still fails loudly on a broken claim.
    bool ok = true;
    if (ann_speedup < 10.0) {
        std::fprintf(stderr,
                     "FAIL: annealing resolves the space %.2fx "
                     "faster than brute force (claim: >= 10x)\n",
                     ann_speedup);
        ok = false;
    }
    if (quality_gap > 0.0) {
        std::fprintf(stderr,
                     "FAIL: annealing best %.9g worse than "
                     "exhaustive best %.9g\n",
                     annealing.bestObjective,
                     exhaustive.bestObjective);
        ok = false;
    }
    if (!deterministic) {
        std::fprintf(stderr,
                     "FAIL: annealing rerun with %zu threads "
                     "diverged from the serial run\n",
                     rerun_threads);
        ok = false;
    }

    std::fprintf(
        json,
        "{\n"
        "  \"workload\": \"%s\",\n"
        "  \"chip\": \"%s\",\n"
        "  \"grid\": \"%s\",\n"
        "  \"threads\": %zu,\n"
        "  \"space_candidates\": %zu,\n"
        "  \"exhaustive_nocache\": {\n"
        "    \"candidates\": %zu,\n"
        "    \"seconds\": %.6f,\n"
        "    \"coverage_per_sec\": %.3f,\n"
        "    \"best_objective\": %.9g\n"
        "  },\n"
        "  \"exhaustive\": {\n"
        "    \"candidates\": %zu,\n"
        "    \"seconds\": %.6f,\n"
        "    \"coverage_per_sec\": %.3f,\n"
        "    \"best_objective\": %.9g,\n"
        "    \"speedup_vs_nocache\": %.3f\n"
        "  },\n"
        "  \"annealing\": {\n"
        "    \"candidates\": %zu,\n"
        "    \"seconds\": %.6f,\n"
        "    \"coverage_per_sec\": %.3f,\n"
        "    \"best_objective\": %.9g,\n"
        "    \"frontier_size\": %zu,\n"
        "    \"speedup_vs_nocache\": %.3f,\n"
        "    \"quality_gap\": %.9g\n"
        "  },\n"
        "  \"parallel_coverage_per_sec\": %.3f,\n"
        "  \"determinism_ok\": %d,\n"
        "  \"scheduler_us_per_layer\": %.3f,\n"
        "  \"total_layers\": %zu\n"
        "}\n",
        wl.name().c_str(), chip.name.c_str(),
        small ? "small" : "full", threads, space, nocache.candidates,
        nocache.seconds, coveragePerSec(space, nocache),
        nocache.bestObjective, exhaustive.candidates,
        exhaustive.seconds, coveragePerSec(space, exhaustive),
        exhaustive.bestObjective, ex_speedup, annealing.candidates,
        annealing.seconds, coveragePerSec(space, annealing),
        annealing.bestObjective, annealing.frontierSize, ann_speedup,
        quality_gap, coveragePerSec(space, parallel),
        deterministic ? 1 : 0, us_per_layer, wl.totalLayers());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(argc, argv,
                                    {"bench_dse_throughput",
                                     "BENCH_dse.json",
                                     {benchgate::kThreadsFlag}, run,
                                     gate});
}
