/**
 * @file
 * Scheduler ablation (Sec. V-B "Efficacy of Scheduling Algorithm"):
 * Herald's scheduler vs the greedy baseline on Maelstrom for each
 * workload, plus ablations of the individual features (load
 * balancing, idle-time post-processing, ordering heuristic).
 *
 * Expected shape (paper): Herald's scheduler finds schedules with
 * lower EDP than the greedy per-layer-best scheduler (paper: 24.1%
 * less EDP on average).
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"

int
main()
{
    using namespace herald;
    util::setVerbose(false);

    std::vector<workload::Workload> workloads;
    workloads.push_back(workload::arvrA());
    workloads.push_back(workload::arvrB());
    workloads.push_back(workload::mlperf());

    cost::CostModel model;
    accel::AcceleratorClass chip = accel::mobileClass();

    std::printf("=== Scheduler ablation on Maelstrom (mobile) ===\n\n");

    double herald_vs_greedy = 0.0;
    for (const workload::Workload &wl : workloads) {
        // Fix the Maelstrom design found for this workload.
        dse::DsePoint best = bench::bestHda(
            model, wl, chip,
            {dataflow::DataflowStyle::NVDLA,
             dataflow::DataflowStyle::ShiDiannao});
        const accel::Accelerator &acc = best.accelerator;

        struct Variant
        {
            std::string name;
            sched::SchedulerOptions opts;
        };
        std::vector<Variant> variants;
        variants.push_back({"Herald (full)", {}});
        {
            sched::SchedulerOptions v;
            v.loadBalance = false;
            v.postProcess = false;
            variants.push_back({"greedy baseline", v});
        }
        {
            sched::SchedulerOptions v;
            v.loadBalance = false;
            variants.push_back({"no load balancing", v});
        }
        {
            sched::SchedulerOptions v;
            v.postProcess = false;
            variants.push_back({"no post-processing", v});
        }
        {
            sched::SchedulerOptions v;
            v.ordering = sched::Ordering::DepthFirst;
            variants.push_back({"depth-first ordering", v});
        }

        util::Table table({"scheduler variant", "latency (ms)",
                           "energy (mJ)", "EDP (mJ*s)",
                           "EDP vs Herald"});
        double herald_edp = 0.0, greedy_edp = 0.0;
        for (const Variant &variant : variants) {
            sched::ScheduleSummary s =
                bench::runSchedule(model, wl, acc, variant.opts);
            if (variant.name == "Herald (full)")
                herald_edp = s.edp();
            if (variant.name == "greedy baseline")
                greedy_edp = s.edp();
            table.addRow(
                {variant.name,
                 util::fmtDouble(s.latencySec * 1e3, 4),
                 util::fmtDouble(s.energyMj, 4),
                 util::fmtDouble(s.edp(), 4),
                 herald_edp > 0.0
                     ? bench::relPct(s.edp(), herald_edp)
                     : "-"});
        }
        std::printf("%s on %s:\n", wl.name().c_str(),
                    acc.name().c_str());
        table.print(std::cout);
        std::printf("\n");
        herald_vs_greedy += herald_edp / greedy_edp;
    }

    std::printf("Average Herald EDP vs greedy: %+.1f%% (paper: "
                "-24.1%%)\n",
                (herald_vs_greedy / workloads.size() - 1.0) * 100.0);
    return 0;
}
