/**
 * @file
 * Real-time scenario benchmark: SLA outcomes (deadline miss counts,
 * miss rates, dropped frames, p50/p99 frame latency) of every
 * instance-selection policy — FIFO, EDF, LST, LST with hopeless-
 * frame dropping, and LST with layer-boundary preemption points
 * (with and without dynamic doomed-frame shedding) — on the factory
 * real-time scenarios *and* their over-subscribed variants
 * (including the interactive mix where preemption strictly beats
 * run-to-completion dispatch), plus scheduler throughput on periodic
 * workloads and a timed SLA-objective partition sweep. Emits
 * machine-readable JSON (default BENCH_realtime.json) so successive
 * PRs can track scheduling quality (not just throughput).
 *
 * Latency percentiles are honest: a dropped or never-scheduled frame
 * has unbounded latency, which serializes as -1.0 in the JSON (JSON
 * has no Infinity literal).
 *
 * Flags: docs/BENCHMARKS.md. The --check-against gate fails when
 * any (scenario, policy) deadline-miss count rises above the
 * baseline (miss counts are deterministic, so no tolerance applies).
 */

#include <chrono>
#include <cmath>
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

/** JSON has no inf: unbounded latencies serialize as -1. */
double
jsonSafeMs(double cycles)
{
    return std::isfinite(cycles) ? cycles / 1e6 : -1.0;
}

struct PolicyResult
{
    std::string label;
    std::size_t misses = 0;
    std::size_t dropped = 0;
    double missRate = 0.0;
    double p50Ms = 0.0; //!< -1 when unbounded
    double p99Ms = 0.0; //!< -1 when unbounded
};

struct ScenarioResult
{
    std::string name;
    std::size_t frames = 0;
    std::size_t framesWithDeadline = 0;
    std::vector<PolicyResult> policies;
    double schedUsPerLayer = 0.0;

    const PolicyResult &
    byLabel(const char *label) const
    {
        for (const PolicyResult &p : policies) {
            if (p.label == label)
                return p;
        }
        util::panic("no policy result ", label);
    }
};

struct PolicyConfig
{
    const char *label;
    sched::Policy policy;
    sched::DropPolicy drop;
    sched::Preemption preemption;
};

const PolicyConfig kPolicies[] = {
    {"fifo", sched::Policy::Fifo, sched::DropPolicy::None,
     sched::Preemption::Off},
    {"edf", sched::Policy::Edf, sched::DropPolicy::None,
     sched::Preemption::Off},
    {"lst", sched::Policy::Lst, sched::DropPolicy::None,
     sched::Preemption::Off},
    {"lst_drop", sched::Policy::Lst,
     sched::DropPolicy::HopelessFrames, sched::Preemption::Off},
    {"lst_preempt", sched::Policy::Lst, sched::DropPolicy::None,
     sched::Preemption::AtLayerBoundary},
    {"lst_preempt_doom", sched::Policy::Lst,
     sched::DropPolicy::DoomedFrames,
     sched::Preemption::AtLayerBoundary},
};

ScenarioResult
runScenario(const workload::Workload &wl,
            const accel::Accelerator &acc)
{
    cost::CostModel model;
    ScenarioResult r;
    r.name = wl.name();

    for (const PolicyConfig &config : kPolicies) {
        sched::SchedulerOptions opts;
        opts.policy = config.policy;
        opts.dropPolicy = config.drop;
        opts.preemption = config.preemption;
        sched::HeraldScheduler scheduler(model, opts);
        sched::Schedule s = scheduler.schedule(wl, acc);
        std::string issue = s.validate(wl, acc);
        if (!issue.empty())
            util::panic("invalid schedule on ", acc.name(), ": ",
                        issue);
        sched::SlaStats sla = s.computeSla(wl);
        r.frames = sla.frames;
        r.framesWithDeadline = sla.framesWithDeadline;
        PolicyResult p;
        p.label = config.label;
        p.misses = sla.deadlineMisses;
        p.dropped = sla.droppedFrames;
        p.missRate = sla.missRate;
        p.p50Ms = jsonSafeMs(sla.p50LatencyCycles);
        p.p99Ms = jsonSafeMs(sla.p99LatencyCycles);
        r.policies.push_back(std::move(p));
    }

    // Scheduler throughput on the periodic workload, warm cache.
    sched::SchedulerOptions opts;
    opts.policy = sched::Policy::Edf;
    sched::HeraldScheduler scheduler(model, opts);
    scheduler.schedule(wl, acc);
    const int reps = 5;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < reps; ++i)
        scheduler.schedule(wl, acc);
    r.schedUsPerLayer = secondsSince(start) / reps * 1e6 /
                        static_cast<double>(wl.totalLayers());
    return r;
}

/**
 * The regression gate (--check-against): every (scenario, policy)
 * deadline-miss count in the baseline must not be exceeded by the
 * current run, matched by scenario name and policy label.
 */
void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &cur,
     const benchgate::FlatJson &base)
{
    const std::size_t n_base = base.arrayLen("scenarios", "frames");
    const std::size_t n_cur = cur.arrayLen("scenarios", "frames");
    for (std::size_t i = 0; i < n_base; ++i) {
        std::string bscen = "scenarios." + std::to_string(i);
        const std::string *name = base.findString(bscen + ".name");
        if (!name)
            continue;
        // Match the scenario by name in the current emission.
        std::string cscen;
        for (std::size_t j = 0; j < n_cur; ++j) {
            std::string cand = "scenarios." + std::to_string(j);
            const std::string *cname =
                cur.findString(cand + ".name");
            if (cname && *cname == *name) {
                cscen = cand;
                break;
            }
        }
        if (cscen.empty()) {
            chk.failure("scenarios[" + *name + "]",
                        "scenario missing from current run");
            continue;
        }
        benchgate::checkPolicyMissRows(chk, cur, base,
                                       cscen + ".policies",
                                       bscen + ".policies",
                                       "scenarios[" + *name + "]");
    }
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    const auto threads = static_cast<std::size_t>(
        args.value(benchgate::kThreadsFlag, 0));
    accel::AcceleratorClass chip = accel::edgeClass();
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    const int frames60 = small ? 2 : 4;
    const int overloaded60 = small ? 4 : 8;
    std::vector<ScenarioResult> results;
    results.push_back(
        runScenario(workload::arvrA60fps(frames60), acc));
    results.push_back(
        runScenario(workload::mixedTenantScenario(frames60), acc));
    results.push_back(
        runScenario(workload::arvrAOverloaded(overloaded60), acc));
    results.push_back(
        runScenario(workload::mixedTenantOverloaded(overloaded60),
                    acc));
    results.push_back(
        runScenario(workload::interactiveOverloaded(overloaded60),
                    acc));

    std::printf("=== Real-time scenarios on %s (%s) ===\n",
                acc.name().c_str(), small ? "small" : "full");
    for (const ScenarioResult &r : results) {
        std::printf("%-24s %zu frames (%zu with deadline), "
                    "%.2f us/layer\n",
                    r.name.c_str(), r.frames, r.framesWithDeadline,
                    r.schedUsPerLayer);
        for (const PolicyResult &p : r.policies) {
            std::printf("    %-9s %2zu misses (rate %.2f, "
                        "%zu dropped) p50 %s p99 %s\n",
                        p.label.c_str(), p.misses, p.missRate,
                        p.dropped,
                        p.p50Ms < 0 ? "inf"
                                    : std::to_string(p.p50Ms).c_str(),
                        p.p99Ms < 0
                            ? "inf"
                            : std::to_string(p.p99Ms).c_str());
        }
    }

    // Timed SLA-objective partition sweep (perf trajectory) —
    // hardware/policy co-design: LST + drop on the over-subscribed
    // tenant mix.
    cost::CostModel model;
    dse::HeraldOptions dse_opts;
    dse_opts.partition.peGranularity =
        chip.numPes / (small ? 4 : 16);
    dse_opts.partition.bwGranularity =
        chip.bwGBps / (small ? 4 : 8);
    dse_opts.objective = dse::Objective::SlaViolations;
    dse_opts.scheduler.policy = sched::Policy::Lst;
    dse_opts.scheduler.dropPolicy =
        sched::DropPolicy::HopelessFrames;
    dse_opts.numThreads = threads;
    dse::Herald herald(model, dse_opts);
    workload::Workload sweep_wl =
        workload::mixedTenantOverloaded(small ? 2 : 4);
    Clock::time_point start = Clock::now();
    dse::DseResult dse_result = herald.explore(
        sweep_wl, chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao});
    double sweep_seconds = secondsSince(start);
    std::printf("SLA sweep (LST+drop): %zu candidates in %.3f s, "
                "best %s (%zu misses, %zu dropped)\n",
                dse_result.points.size(), sweep_seconds,
                dse_result.best().accelerator.name().c_str(),
                dse_result.best().summary.sla.deadlineMisses,
                dse_result.best().summary.sla.droppedFrames);

    std::fprintf(json, "{\n  \"chip\": \"%s\",\n  \"grid\": \"%s\","
                       "\n  \"scenarios\": [\n",
                 chip.name.c_str(), small ? "small" : "full");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        // Legacy flat fields ride along for trajectory continuity;
        // the per-policy columns are the real payload.
        const PolicyResult &fifo = r.byLabel("fifo");
        const PolicyResult &edf = r.byLabel("edf");
        std::fprintf(
            json,
            "    {\"name\": \"%s\", \"frames\": %zu, "
            "\"frames_with_deadline\": %zu, "
            "\"fifo_misses\": %zu, \"edf_misses\": %zu, "
            "\"fifo_p99_ms\": %.4f, \"edf_p50_ms\": %.4f, "
            "\"edf_p99_ms\": %.4f, "
            "\"scheduler_us_per_layer\": %.3f,\n"
            "     \"policies\": [\n",
            r.name.c_str(), r.frames, r.framesWithDeadline,
            fifo.misses, edf.misses, fifo.p99Ms, edf.p50Ms,
            edf.p99Ms, r.schedUsPerLayer);
        for (std::size_t k = 0; k < r.policies.size(); ++k) {
            const PolicyResult &p = r.policies[k];
            std::fprintf(
                json,
                "       {\"policy\": \"%s\", \"misses\": %zu, "
                "\"miss_rate\": %.4f, \"dropped\": %zu, "
                "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                p.label.c_str(), p.misses, p.missRate, p.dropped,
                p.p50Ms, p.p99Ms,
                k + 1 < r.policies.size() ? "," : "");
        }
        std::fprintf(json, "     ]}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"sla_sweep_candidates\": %zu,\n"
                 "  \"sla_sweep_seconds\": %.6f,\n"
                 "  \"sla_sweep_best_misses\": %zu,\n"
                 "  \"sla_sweep_best_dropped\": %zu\n"
                 "}\n",
                 dse_result.points.size(), sweep_seconds,
                 dse_result.best().summary.sla.deadlineMisses,
                 dse_result.best().summary.sla.droppedFrames);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(argc, argv,
                                    {"bench_realtime",
                                     "BENCH_realtime.json",
                                     {benchgate::kThreadsFlag}, run,
                                     gate});
}
