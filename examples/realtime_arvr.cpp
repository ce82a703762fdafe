/**
 * @file
 * Real-time AR/VR example: the scenario engine end-to-end. A mixed
 * multi-tenant workload — periodic AR/VR frame streams with deadlines
 * sharing the chip with best-effort MLPerf batch jobs — is scheduled
 * on an edge-class HDA with and without deadline-aware (EDF)
 * instance selection, and the SLA metrics (per-instance latency,
 * deadline miss rate, p50/p99 frame latency) are reported. Finally
 * Herald's co-DSE optimizes the partitioning for the SlaViolations
 * objective.
 */

#include <cstdio>
#include <iostream>

#include "accel/accelerator.hh"
#include "dse/herald_dse.hh"
#include "sched/herald_scheduler.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;

const char *
fmtDeadline(const sched::InstanceSla &sla)
{
    if (sla.deadlineCycle >= workload::kNoDeadline)
        return "-";
    return sla.missed ? "MISS" : "ok";
}

sched::ScheduleSummary
runScenario(cost::CostModel &model, const workload::Workload &wl,
            const accel::Accelerator &acc, bool deadline_aware,
            bool print_frames)
{
    sched::SchedulerOptions opts;
    opts.policy =
        deadline_aware ? sched::Policy::Edf : sched::Policy::Fifo;
    sched::HeraldScheduler scheduler(model, opts);
    sched::Schedule schedule = scheduler.schedule(wl, acc);
    std::string issue = schedule.validate(wl, acc);
    if (!issue.empty())
        util::panic("invalid schedule: ", issue);
    sched::ScheduleSummary summary =
        schedule.finalize(wl, acc, model.energyModel());

    if (print_frames) {
        util::Table table({"instance", "arrival (ms)",
                           "complete (ms)", "latency (ms)",
                           "deadline"});
        for (const sched::InstanceSla &sla :
             summary.sla.perInstance) {
            table.addRow(
                {wl.instances()[sla.instanceIdx].name,
                 util::fmtDouble(sla.arrivalCycle / 1e6, 3),
                 util::fmtDouble(sla.completionCycle / 1e6, 3),
                 util::fmtDouble(sla.latencyCycles / 1e6, 3),
                 fmtDeadline(sla)});
        }
        table.print(std::cout);
    }

    std::printf("%s: %zu/%zu deadline misses (%.1f%%), frame "
                "latency p50 %.3f ms, p99 %.3f ms, makespan "
                "%.3f ms\n",
                deadline_aware ? "EDF " : "FIFO",
                summary.sla.deadlineMisses,
                summary.sla.framesWithDeadline,
                summary.sla.missRate * 100.0,
                summary.sla.p50LatencyCycles / 1e6,
                summary.sla.p99LatencyCycles / 1e6,
                summary.makespanCycles / 1e6);
    return summary;
}

} // namespace

int
main()
{
    using namespace herald;
    util::setVerbose(false);

    accel::AcceleratorClass chip = accel::edgeClass();
    cost::CostModel model;

    workload::Workload wl = workload::mixedTenantScenario(4);
    std::printf("%s on %s: %zu instances, %zu layers "
                "(1 GHz clock; cycles / 1e6 = ms)\n\n",
                wl.name().c_str(), chip.name.c_str(),
                wl.numInstances(), wl.totalLayers());

    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    std::printf("--- FIFO (arrival-ordered) on %s ---\n",
                acc.name().c_str());
    runScenario(model, wl, acc, false, true);
    std::printf("\n--- EDF (deadline-aware) on %s ---\n",
                acc.name().c_str());
    sched::ScheduleSummary edf =
        runScenario(model, wl, acc, true, true);

    // Timeline of the EDF schedule.
    sched::SchedulerOptions edf_opts;
    edf_opts.policy = sched::Policy::Edf;
    sched::Schedule schedule =
        sched::HeraldScheduler(model, edf_opts).schedule(wl, acc);
    std::printf("\nEDF execution timeline\n%s\n",
                schedule.renderTimeline(wl).c_str());

    // Co-DSE under the SLA objective: find the partitioning with the
    // fewest deadline misses (latency breaking ties).
    dse::HeraldOptions dse_opts;
    dse_opts.partition.peGranularity = chip.numPes / 16;
    dse_opts.partition.bwGranularity = chip.bwGBps / 8;
    dse_opts.objective = dse::Objective::SlaViolations;
    dse_opts.scheduler.policy = sched::Policy::Edf;
    dse::Herald herald(model, dse_opts);
    dse::DseResult result = herald.explore(
        wl, chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao});
    const dse::DsePoint &best = result.best();
    std::printf("SLA-optimal partition over %zu candidates: %s — "
                "%zu misses, p99 %.3f ms (even split: %zu misses, "
                "p99 %.3f ms)\n",
                result.points.size(), best.accelerator.name().c_str(),
                best.summary.sla.deadlineMisses,
                best.summary.sla.p99LatencyCycles / 1e6,
                edf.sla.deadlineMisses,
                edf.sla.p99LatencyCycles / 1e6);
    return 0;
}
