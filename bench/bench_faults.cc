/**
 * @file
 * Fault-injection benchmark: graceful degradation under capacity
 * loss. Runs the full (policy x drop x preemption) grid of
 * bench_realtime on the factory fault scenario
 * (workload::faultedFactory) with 0, 1 and 2 permanently failed
 * sub-accelerators (sched::factoryFaultTimeline staggers the
 * failures mid-run), and for every cell reports
 *
 *  - the fault-aware outcome: the scheduler consulted the timeline,
 *    killed in-flight layers at fault onsets, re-dispatched victim
 *    chains onto survivors (SlaStats::faultKilledLayers /
 *    framesRescheduled), and re-proved drop-policy feasibility
 *    against the degraded capacity;
 *  - a fault-oblivious baseline: the same configuration scheduled
 *    blind to the timeline, then evaluated against it
 *    (sched::faultObliviousSla — a frame whose layer overlaps an
 *    unavailable window is lost, throttle overlaps stretch
 *    completions). This is what shipping the fault-free schedule
 *    onto the degraded chip would cost.
 *
 * The run fails (non-zero exit) unless, for every configuration,
 * the fault-aware miss count degrades monotonically in the number of
 * failed sub-accelerators AND stays strictly below the
 * fault-oblivious baseline whenever at least one sub-accelerator
 * fails — that strict gap is the entire point of fault-aware
 * scheduling, so CI asserts it on every build.
 *
 * Flags: docs/BENCHMARKS.md. Miss counts are deterministic (the
 * scheduler is bit-identical across thread counts and reruns), so
 * the --check-against gate compares them exactly, tolerance-free.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_baseline.hh"
#include "bench_common.hh"

namespace
{

using namespace herald;

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

constexpr int kMaxFailed = 2;

struct CellResult
{
    std::string label; //!< "<policy>/f<failed>"
    int failed = 0;
    std::size_t awareMisses = 0;
    std::size_t awareDropped = 0;
    std::size_t faultKilledLayers = 0;
    std::size_t framesRescheduled = 0;
    std::size_t obliviousMisses = 0;
    double awareMissRate = 0.0;
};

void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &cur,
     const benchgate::FlatJson &base)
{
    // Rows are labeled "<policy>/f<failed>"; both the fault-aware
    // and the fault-oblivious miss counts are deterministic, so any
    // rise over the committed baseline is a scheduling-quality
    // regression.
    benchgate::checkPolicyMissRows(chk, cur, base, "cells", "cells",
                                   "cells");
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    accel::AcceleratorClass chip = accel::edgeClass();
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    // Enough frames that a healthy band of arrivals falls between
    // the staggered failure onsets — that band is where fault-aware
    // re-homing can save frames a fault-oblivious schedule loses.
    const int frames60 = small ? 6 : 8;
    workload::Workload wl = workload::faultedFactory(frames60);
    cost::CostModel model;

    // One shared fault horizon: the fault-free FIFO makespan, so
    // every configuration faces failures at the same absolute
    // cycles and the cells are comparable.
    double horizon;
    {
        sched::HeraldScheduler fifo(model, sched::SchedulerOptions{});
        horizon = fifo.schedule(wl, acc).makespanCycles();
    }

    std::vector<CellResult> cells;
    bool ok = true;
    std::printf("=== Fault injection on %s (%s), horizon %.3e ===\n",
                acc.name().c_str(), small ? "small" : "full",
                horizon);
    for (const PolicyConfig &config : kPolicies) {
        std::size_t prev_misses = 0;
        for (int failed = 0; failed <= kMaxFailed; ++failed) {
            sched::FaultTimeline timeline =
                sched::factoryFaultTimeline(acc.numSubAccs(), failed,
                                            horizon);

            sched::SchedulerOptions opts;
            opts.policy = config.policy;
            opts.dropPolicy = config.drop;
            opts.preemption = config.preemption;
            opts.faults = timeline;
            sched::HeraldScheduler scheduler(model, opts);
            sched::Schedule s = scheduler.schedule(wl, acc);
            std::string issue = s.validate(wl, acc, &timeline);
            if (!issue.empty())
                util::panic("invalid fault-aware schedule (",
                            config.label, ", ", failed,
                            " failed): ", issue);
            sched::SlaStats aware = s.computeSla(wl);

            // Fault-oblivious baseline: schedule blind, then pay
            // the timeline.
            opts.faults = sched::FaultTimeline{};
            sched::HeraldScheduler blind(model, opts);
            sched::Schedule bs = blind.schedule(wl, acc);
            sched::SlaStats oblivious =
                sched::faultObliviousSla(bs, wl, timeline);

            CellResult c;
            c.label = std::string(config.label) + "/f" +
                      std::to_string(failed);
            c.failed = failed;
            c.awareMisses = aware.deadlineMisses;
            c.awareDropped = aware.droppedFrames;
            c.faultKilledLayers = aware.faultKilledLayers;
            c.framesRescheduled = aware.framesRescheduled;
            c.obliviousMisses = oblivious.deadlineMisses;
            c.awareMissRate = aware.missRate;

            std::printf("  %-22s aware %2zu misses (%zu killed, "
                        "%zu rescheduled, %zu dropped)  "
                        "oblivious %2zu misses\n",
                        c.label.c_str(), c.awareMisses,
                        c.faultKilledLayers, c.framesRescheduled,
                        c.awareDropped, c.obliviousMisses);

            if (failed > 0 && c.awareMisses < prev_misses) {
                std::fprintf(stderr,
                             "FAIL %s: miss count improved from %zu "
                             "to %zu as capacity shrank — "
                             "non-monotone degradation\n",
                             c.label.c_str(), prev_misses,
                             c.awareMisses);
                ok = false;
            }
            if (failed > 0 && c.awareMisses >= c.obliviousMisses) {
                std::fprintf(stderr,
                             "FAIL %s: fault-aware misses (%zu) not "
                             "strictly below fault-oblivious "
                             "baseline (%zu)\n",
                             c.label.c_str(), c.awareMisses,
                             c.obliviousMisses);
                ok = false;
            }
            prev_misses = c.awareMisses;
            cells.push_back(std::move(c));
        }
    }

    std::fprintf(json,
                 "{\n  \"chip\": \"%s\",\n  \"grid\": \"%s\",\n"
                 "  \"frames\": %zu,\n  \"horizon_cycles\": %.1f,\n"
                 "  \"cells\": [\n",
                 chip.name.c_str(), small ? "small" : "full",
                 wl.numInstances(), horizon);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        std::fprintf(
            json,
            "    {\"policy\": \"%s\", \"failed\": %d, "
            "\"misses\": %zu, \"dropped\": %zu, "
            "\"fault_killed_layers\": %zu, "
            "\"frames_rescheduled\": %zu, "
            "\"oblivious_misses\": %zu, \"miss_rate\": %.4f}%s\n",
            c.label.c_str(), c.failed, c.awareMisses, c.awareDropped,
            c.faultKilledLayers, c.framesRescheduled,
            c.obliviousMisses, c.awareMissRate,
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(
        argc, argv, {"bench_faults", "BENCH_faults.json", {}, run, gate});
}
