/**
 * @file
 * DSE search-engine benchmark: how fast each engine configuration
 * works through a 3-way HDA partition space (where cost-table columns
 * actually recur across candidates), on the edge chip with the AR/VR
 * workload:
 *
 *   exhaustive  the full grid, every candidate scheduled once through
 *               the sweep's shared CostColumnCache;
 *   annealing   the metaheuristic under the same cache, with an
 *               evaluation budget a fraction of the grid.
 *
 * The rate metric is candidates_per_sec: points actually evaluated
 * divided by wall time. A search is credited only with the candidates
 * it schedules, never with the space it skips; what skipping buys is
 * reported as evaluations_to_optimum (the annealing best point's
 * 1-based position in evaluation order) next to the quality gap.
 *
 * The engine claims, asserted in-binary (exit 1 on violation) and
 * gated in CI against bench/baselines/ci-small-dse.json:
 *   - the annealing best point is equal-or-better (scalarized Pareto
 *     objective, misses then EDP) than the exhaustive optimum on the
 *     same grid;
 *   - a rerun with a different thread count is bit-identical (best
 *     point, point count, frontier).
 * The gate also holds exhaustive.candidates_per_sec within the
 * tolerance and annealing.evaluations_to_optimum exactly.
 *
 * The gated legs run serially (numThreads = 1) so the metric isolates
 * per-candidate engine work from pool scaling; the parallel exhaustive
 * leg is reported for the perf trajectory but not gated. A fresh
 * CostModel per leg keeps every leg cold-start honest. The annealing
 * seed is pinned: the run is bit-reproducible, so the quality and
 * evaluation-count gates are exact, not statistical. Flags:
 * docs/BENCHMARKS.md.
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

/** Points evaluated per second of wall time. */
double
candidatesPerSec(const SweepResult &leg)
{
    return leg.seconds > 0.0
               ? static_cast<double>(leg.candidates) / leg.seconds
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
    // The exhaustive evaluation rate must not regress beyond the
    // tolerance. The rest is deterministic under the pinned seed and
    // gated exactly: annealing reaches its best point after the same
    // number of evaluations, that point is never worse than the
    // exhaustive optimum, and the determinism rerun never diverges.
    chk.checkThroughput("exhaustive.candidates_per_sec");
    chk.checkCountEqual("annealing.evaluations_to_optimum");
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

    // The full grid through the cross-candidate column cache.
    // Serial, like every gated leg.
    SweepResult exhaustive = runSweep(wl, chip, opts, 1);
    std::printf("exhaustive: %zu candidates in %.3f s "
                "(%.0f cand/s, best %.6g)\n",
                exhaustive.candidates, exhaustive.seconds,
                candidatesPerSec(exhaustive), exhaustive.bestObjective);

    // The metaheuristic: same cache, an evaluation budget a fraction
    // of the grid, a seed pinned to keep the exact gates exact.
    dse::HeraldOptions ann_opts = opts;
    ann_opts.partition.strategy = dse::SearchStrategy::Annealing;
    ann_opts.partition.annealing.chains = 8;
    ann_opts.partition.annealing.iterations = 64;
    ann_opts.partition.annealing.maxEvaluations = small ? 80 : 384;
    ann_opts.partition.seed = small ? 14 : 5;
    SweepResult annealing = runSweep(wl, chip, ann_opts, 1);
    const std::size_t to_optimum = annealing.result.bestIdx + 1;
    double quality_gap =
        annealing.bestObjective - exhaustive.bestObjective;
    std::printf("annealing:  %zu evals in %.3f s (%.0f cand/s, best "
                "%.6g after %zu evals, frontier %zu)\n",
                annealing.candidates, annealing.seconds,
                candidatesPerSec(annealing), annealing.bestObjective,
                to_optimum, annealing.frontierSize);

    // Determinism rerun: same options, different thread count, must
    // be bit-identical (checked on the full DseResult).
    std::size_t rerun_threads = std::max<std::size_t>(threads, 4);
    SweepResult rerun = runSweep(wl, chip, ann_opts, rerun_threads);
    bool deterministic =
        identicalResults(annealing.result, rerun.result);

    // Parallel exhaustive leg: trajectory only, not gated.
    SweepResult parallel = runSweep(wl, chip, opts, threads);
    std::printf("parallel:   %zu candidates in %.3f s "
                "(%.0f cand/s, %zu threads)\n",
                parallel.candidates, parallel.seconds,
                candidatesPerSec(parallel), threads);

    double us_per_layer = schedulerMicrosPerLayer(wl, chip);
    std::printf("scheduler: %.2f us/layer (%zu layers, warm "
                "cache)\n",
                us_per_layer, wl.totalLayers());

    // The engine's contract, self-asserted so a bare bench run (no
    // baseline at hand) still fails loudly on a broken claim.
    bool ok = true;
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
        "  \"exhaustive\": {\n"
        "    \"candidates\": %zu,\n"
        "    \"seconds\": %.6f,\n"
        "    \"candidates_per_sec\": %.3f,\n"
        "    \"best_objective\": %.9g\n"
        "  },\n"
        "  \"annealing\": {\n"
        "    \"candidates\": %zu,\n"
        "    \"seconds\": %.6f,\n"
        "    \"candidates_per_sec\": %.3f,\n"
        "    \"best_objective\": %.9g,\n"
        "    \"evaluations_to_optimum\": %zu,\n"
        "    \"frontier_size\": %zu,\n"
        "    \"quality_gap\": %.9g\n"
        "  },\n"
        "  \"parallel_candidates_per_sec\": %.3f,\n"
        "  \"determinism_ok\": %d,\n"
        "  \"scheduler_us_per_layer\": %.3f,\n"
        "  \"total_layers\": %zu\n"
        "}\n",
        wl.name().c_str(), chip.name.c_str(),
        small ? "small" : "full", threads, exhaustive.candidates,
        exhaustive.seconds,
        candidatesPerSec(exhaustive), exhaustive.bestObjective,
        annealing.candidates, annealing.seconds,
        candidatesPerSec(annealing), annealing.bestObjective,
        to_optimum, annealing.frontierSize, quality_gap,
        candidatesPerSec(parallel), deterministic ? 1 : 0,
        us_per_layer, wl.totalLayers());
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
