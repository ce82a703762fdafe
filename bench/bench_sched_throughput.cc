/**
 * @file
 * Scheduler throughput benchmark: layers-scheduled/sec of the
 * table-driven, event-dispatch scheduler on large periodic
 * real-time scenarios (default: the ~10k-frame AR/VR-A stream mix),
 * compared against the pre-table reference implementation
 * (sched::referenceSchedule), plus an end-to-end DSE
 * comparison on a small partition sweep. Emits machine-readable JSON
 * (default BENCH_sched.json) so successive PRs can track the perf
 * trajectory.
 *
 * Flags: docs/BENCHMARKS.md. The --check-against gate fails when
 * any policy's layers/sec drops more than the tolerance below the
 * baseline or any policy's overloaded-scenario miss count rises.
 *
 * The big-scenario timings run with post-processing off so they
 * isolate dispatch throughput; two postProcess-on measurements track
 * the incremental idle-time-elimination path: a small AR/VR stream
 * mix and the factory mix (workload::faultedFactory, 256 frames at
 * --small, 1024 otherwise), whose hundreds of gap-fill moves expose
 * a quadratic scan.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_baseline.hh"
#include "bench_common.hh"
#include "sched/layer_cost_table.hh"
#include "sched/reference_scheduler.hh"
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

struct Timing
{
    double schedSeconds = 0.0;    //!< table path, per schedule
    double refSeconds = 0.0;      //!< reference path (0 if skipped)
    std::size_t layers = 0;

    double
    layersPerSec() const
    {
        return schedSeconds > 0.0
                   ? static_cast<double>(layers) / schedSeconds
                   : 0.0;
    }

    double
    refLayersPerSec() const
    {
        return refSeconds > 0.0
                   ? static_cast<double>(layers) / refSeconds
                   : 0.0;
    }

    double
    speedup() const
    {
        return schedSeconds > 0.0 && refSeconds > 0.0
                   ? refSeconds / schedSeconds
                   : 0.0;
    }
};

/** Time the table path (median-free: best of @p reps) vs reference. */
Timing
timeScheduler(cost::CostModel &model, const workload::Workload &wl,
              const accel::Accelerator &acc,
              const sched::SchedulerOptions &opts, int reps,
              bool run_reference)
{
    sched::HeraldScheduler scheduler(model, opts);
    Timing t;
    t.layers = wl.totalLayers();

    scheduler.schedule(wl, acc); // warm the cost cache
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point start = Clock::now();
        scheduler.schedule(wl, acc);
        double s = secondsSince(start);
        if (r == 0 || s < best)
            best = s;
    }
    t.schedSeconds = best;

    if (run_reference) {
        Clock::time_point start = Clock::now();
        sched::Schedule ref =
            sched::referenceSchedule(model, opts, wl, acc);
        t.refSeconds = secondsSince(start);
        // Bit-identity spot check rides along for free.
        sched::Schedule fast = scheduler.schedule(wl, acc);
        if (!fast.identicalTo(ref))
            util::panic("table path diverged from reference on ",
                        wl.name());
    }
    return t;
}

void
printTiming(const char *label, const Timing &t)
{
    if (t.refSeconds > 0.0) {
        std::printf("%-14s %9.0f layers/s (%.3f s) | reference "
                    "%9.0f layers/s (%.3f s) | %.1fx\n",
                    label, t.layersPerSec(), t.schedSeconds,
                    t.refLayersPerSec(), t.refSeconds, t.speedup());
    } else {
        std::printf("%-14s %9.0f layers/s (%.3f s)\n", label,
                    t.layersPerSec(), t.schedSeconds);
    }
}

/**
 * The regression gate (--check-against): throughput keys may not
 * drop more than the tolerance below the baseline, deterministic
 * miss counters may not rise at all.
 */
void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &cur,
     const benchgate::FlatJson &base)
{
    for (const char *key :
         {"fifo", "edf", "lst", "lst_preempt", "edf_postprocess",
          "edf_postprocess_factory"})
        chk.checkThroughput(std::string(key) + ".layers_per_sec");

    // Dimensionless policy-vs-FIFO ratios ride alongside the
    // absolute layers/sec gates: absolute throughput varies with
    // runner hardware (hence the generous tolerance), but the
    // *relative* cost of a policy is a property of the code — a
    // policy regressing against FIFO hides inside the absolute
    // tolerance, a ratio gate catches it.
    for (const char *key :
         {"ratios.edf_vs_fifo", "ratios.lst_vs_fifo",
          "ratios.lst_preempt_vs_fifo"})
        chk.checkThroughput(key);

    // Per-policy miss counts on the over-subscribed scenario.
    benchgate::checkPolicyMissRows(chk, cur, base, "overloaded_sla",
                                   "overloaded_sla",
                                   "overloaded_sla");
}

void
emitTiming(std::FILE *json, const char *key, const Timing &t,
           const char *trailer)
{
    std::fprintf(json,
                 "  \"%s\": {\"layers\": %zu, "
                 "\"sched_seconds\": %.6f, "
                 "\"layers_per_sec\": %.1f, "
                 "\"ref_seconds\": %.6f, "
                 "\"ref_layers_per_sec\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 key, t.layers, t.schedSeconds, t.layersPerSec(),
                 t.refSeconds, t.refLayersPerSec(), t.speedup(),
                 trailer);
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    const auto threads = static_cast<std::size_t>(
        args.value(benchgate::kThreadsFlag, 0));
    const bool run_reference = !args.has(benchgate::kSkipReferenceFlag);
    const double max_seconds =
        args.value(benchgate::kMaxSecondsFlag, 0.0);
    // ~10k frames at full size (frames60 + frames60/2 + frames60/4
    // instances), ~1k at --small.
    const int frames60 = static_cast<int>(
        args.value(benchgate::kFrames60Flag, small ? 572 : 5712));

    accel::AcceleratorClass chip = accel::edgeClass();
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    workload::Workload wl = workload::arvrA60fps(frames60);
    std::printf("=== Scheduler throughput: %s, %zu frames, %zu "
                "layers on %s ===\n",
                wl.name().c_str(), wl.numInstances(),
                wl.totalLayers(), acc.name().c_str());

    cost::CostModel model;
    // Best-of-5: the gate compares absolute layers/sec against a
    // committed baseline, so the measurement must shrug off
    // transient load — more reps tighten the best-of estimate at
    // ~15 ms per rep on the small grid.
    const int reps = 5;

    // Dispatch throughput (postProcess off isolates the hot loop).
    sched::SchedulerOptions fifo;
    fifo.postProcess = false;
    fifo.prefillThreads = threads;
    Timing t_fifo =
        timeScheduler(model, wl, acc, fifo, reps, run_reference);
    printTiming("FIFO", t_fifo);

    sched::SchedulerOptions edf = fifo;
    edf.policy = sched::Policy::Edf;
    Timing t_edf =
        timeScheduler(model, wl, acc, edf, reps, run_reference);
    printTiming("EDF", t_edf);

    // LST has no reference-oracle counterpart (the oracle predates
    // the policy subsystem); its throughput is tracked table-path
    // only.
    sched::SchedulerOptions lst = fifo;
    lst.policy = sched::Policy::Lst;
    Timing t_lst =
        timeScheduler(model, wl, acc, lst, reps,
                      /*run_reference=*/false);
    printTiming("LST", t_lst);

    // Preemption points add a per-commit urgency scan over the
    // unreleased-arrival window; this row keeps that overhead on the
    // perf trajectory (and under the CI gate) alongside plain LST.
    sched::SchedulerOptions lst_pre = lst;
    lst_pre.preemption = sched::Preemption::AtLayerBoundary;
    Timing t_lst_pre =
        timeScheduler(model, wl, acc, lst_pre, reps,
                      /*run_reference=*/false);
    printTiming("LST+preempt", t_lst_pre);

    // Incremental post-processing trajectory on a smaller stream mix
    // (postProcess cost is move-dominated, not dispatch-dominated).
    workload::Workload wl_pp =
        workload::arvrA60fps(std::min(frames60, 64));
    sched::SchedulerOptions pp;
    pp.policy = sched::Policy::Edf;
    pp.prefillThreads = threads;
    Timing t_pp =
        timeScheduler(model, wl_pp, acc, pp, reps, run_reference);
    printTiming("EDF+postproc", t_pp);

    // Post-processing at compile scale: the factory mix is one long,
    // lightly loaded EDF schedule with hundreds of gap-fill moves.
    // A gap-fill scan that restarts at position 0 after every move is
    // quadratic here, and its layers/sec falls far below the gate.
    workload::Workload wl_factory =
        workload::faultedFactory(small ? 256 : 1024);
    Timing t_pp_factory = timeScheduler(model, wl_factory, acc, pp,
                                        reps, /*run_reference=*/false);
    printTiming("EDF+pp factory", t_pp_factory);

    // End-to-end DSE: the same candidate grid through the table-path
    // explore vs a manual reference-scheduler sweep.
    workload::Workload dse_wl =
        workload::mixedTenantScenario(small ? 1 : 2);
    dse::HeraldOptions dse_opts;
    dse_opts.partition.peGranularity = chip.numPes / 4;
    dse_opts.partition.bwGranularity = chip.bwGBps / 4;
    dse_opts.objective = dse::Objective::SlaViolations;
    dse_opts.scheduler.policy = sched::Policy::Edf;
    dse_opts.numThreads = 1; // scheduler-only comparison
    std::vector<dataflow::DataflowStyle> styles = {
        dataflow::DataflowStyle::NVDLA,
        dataflow::DataflowStyle::ShiDiannao};

    double dse_seconds = 0.0;
    double dse_ref_seconds = 0.0;
    std::size_t dse_candidates = 0;
    {
        cost::CostModel dse_model;
        dse::Herald herald(dse_model, dse_opts);
        Clock::time_point start = Clock::now();
        dse::DseResult result =
            herald.explore(dse_wl, chip, styles);
        dse_seconds = secondsSince(start);
        dse_candidates = result.points.size();
    }
    if (run_reference) {
        cost::CostModel ref_model;
        std::vector<dse::PartitionCandidate> cands =
            dse::generateCandidates(chip.numPes, chip.bwGBps,
                                    styles.size(),
                                    dse_opts.partition);
        Clock::time_point start = Clock::now();
        for (const dse::PartitionCandidate &c : cands) {
            accel::Accelerator cand_acc =
                accel::Accelerator::makeHda(chip, styles, c.peSplit,
                                            c.bwSplit);
            sched::Schedule s = sched::referenceSchedule(
                ref_model, dse_opts.scheduler, dse_wl, cand_acc);
            s.finalize(dse_wl, cand_acc, ref_model.energyModel());
        }
        dse_ref_seconds = secondsSince(start);
    }
    double dse_speedup = dse_seconds > 0.0 && dse_ref_seconds > 0.0
                             ? dse_ref_seconds / dse_seconds
                             : 0.0;
    std::printf("DSE sweep:     %zu candidates in %.3f s",
                dse_candidates, dse_seconds);
    if (dse_ref_seconds > 0.0)
        std::printf(" | reference %.3f s | %.2fx", dse_ref_seconds,
                    dse_speedup);
    std::printf("\n");

    // Scheduling-quality columns: per-policy miss rate and p99 on an
    // over-subscribed variant, so the perf trajectory captures what
    // the scheduler achieves, not just how fast it runs.
    struct SlaRow
    {
        const char *label;
        sched::Policy policy;
        sched::DropPolicy drop;
        std::size_t misses = 0;
        std::size_t dropped = 0;
        double missRate = 0.0;
        double p99Ms = 0.0; //!< -1 when unbounded
    };
    SlaRow sla_rows[] = {
        {"fifo", sched::Policy::Fifo, sched::DropPolicy::None, 0, 0,
         0.0, 0.0},
        {"edf", sched::Policy::Edf, sched::DropPolicy::None, 0, 0,
         0.0, 0.0},
        {"lst", sched::Policy::Lst, sched::DropPolicy::None, 0, 0,
         0.0, 0.0},
        {"lst_drop", sched::Policy::Lst,
         sched::DropPolicy::HopelessFrames, 0, 0, 0.0, 0.0},
    };
    workload::Workload over_wl = workload::arvrAOverloaded(8);
    for (SlaRow &row : sla_rows) {
        sched::SchedulerOptions opts;
        opts.policy = row.policy;
        opts.dropPolicy = row.drop;
        sched::Schedule s =
            sched::HeraldScheduler(model, opts).schedule(over_wl,
                                                         acc);
        sched::SlaStats sla = s.computeSla(over_wl);
        row.misses = sla.deadlineMisses;
        row.dropped = sla.droppedFrames;
        row.missRate = sla.missRate;
        row.p99Ms = std::isfinite(sla.p99LatencyCycles)
                        ? sla.p99LatencyCycles / 1e6
                        : -1.0;
        std::printf("SLA %-9s %zu misses (rate %.2f, %zu dropped) "
                    "on %s\n",
                    row.label, row.misses, row.missRate,
                    row.dropped, over_wl.name().c_str());
    }

    const double slowest_sched =
        std::max({t_fifo.schedSeconds, t_edf.schedSeconds,
                  t_lst.schedSeconds, t_lst_pre.schedSeconds,
                  t_pp.schedSeconds, t_pp_factory.schedSeconds});
    bool within_bound =
        max_seconds <= 0.0 || slowest_sched <= max_seconds;

    std::fprintf(json,
                 "{\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"grid\": \"%s\",\n"
                 "  \"frames60\": %d,\n"
                 "  \"instances\": %zu,\n"
                 "  \"total_layers\": %zu,\n",
                 wl.name().c_str(), small ? "small" : "full",
                 frames60, wl.numInstances(), wl.totalLayers());
    emitTiming(json, "fifo", t_fifo, ",");
    emitTiming(json, "edf", t_edf, ",");
    emitTiming(json, "lst", t_lst, ",");
    emitTiming(json, "lst_preempt", t_lst_pre, ",");
    emitTiming(json, "edf_postprocess", t_pp, ",");
    emitTiming(json, "edf_postprocess_factory", t_pp_factory, ",");
    auto ratio = [](const Timing &num, const Timing &den) {
        return den.layersPerSec() > 0.0
                   ? num.layersPerSec() / den.layersPerSec()
                   : 0.0;
    };
    std::fprintf(json,
                 "  \"ratios\": {\"edf_vs_fifo\": %.4f, "
                 "\"lst_vs_fifo\": %.4f, "
                 "\"lst_preempt_vs_fifo\": %.4f},\n",
                 ratio(t_edf, t_fifo), ratio(t_lst, t_fifo),
                 ratio(t_lst_pre, t_fifo));
    std::fprintf(json, "  \"overloaded_sla\": [\n");
    for (std::size_t i = 0; i < 4; ++i) {
        const SlaRow &row = sla_rows[i];
        std::fprintf(json,
                     "    {\"policy\": \"%s\", \"misses\": %zu, "
                     "\"miss_rate\": %.4f, \"dropped\": %zu, "
                     "\"p99_ms\": %.4f}%s\n",
                     row.label, row.misses, row.missRate,
                     row.dropped, row.p99Ms, i + 1 < 4 ? "," : "");
    }
    std::fprintf(json, "  ],\n");
    std::fprintf(json,
                 "  \"dse_candidates\": %zu,\n"
                 "  \"dse_seconds\": %.6f,\n"
                 "  \"dse_ref_seconds\": %.6f,\n"
                 "  \"dse_speedup\": %.3f,\n"
                 "  \"max_seconds\": %.3f,\n"
                 "  \"within_bound\": %s\n"
                 "}\n",
                 dse_candidates, dse_seconds, dse_ref_seconds,
                 dse_speedup, max_seconds,
                 within_bound ? "true" : "false");
    if (!within_bound) {
        std::fprintf(stderr,
                     "SMOKE FAILURE: slowest schedule variant took "
                     "%.3f s (bound %.3f s)\n",
                     slowest_sched, max_seconds);
    }
    return within_bound;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(
        argc, argv,
        {"bench_sched_throughput",
         "BENCH_sched.json",
         {benchgate::kFrames60Flag, benchgate::kThreadsFlag,
          benchgate::kSkipReferenceFlag, benchgate::kMaxSecondsFlag},
         run,
         gate});
}
