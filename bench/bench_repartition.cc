/**
 * @file
 * Elastic-repartitioning benchmark: runtime PE migration vs the best
 * static partition. Runs workload::shiftingLoadFactory — two tenants
 * with opposite dataflow affinity whose load peaks in different
 * halves of the run — on the edge-class NVDLA+Shi-diannao HDA across
 * a grid of static PE splits, and schedules every split twice:
 *
 *  - static: the split is frozen for the whole run
 *    (sched::Reconfig::Off) — the pre-elastic behavior;
 *  - elastic: the same split is only the *starting* partition; the
 *    backlog-skew policy (sched::Reconfig::BacklogSkew) migrates PE
 *    quanta between the sub-accelerators at layer boundaries, paying
 *    the modeled drain + rewire outage for every move.
 *
 * The run fails (non-zero exit) unless (a) for every starting split
 * the elastic miss count is no worse than the static one, (b) the
 * best elastic cell strictly beats the best static cell — no frozen
 * partition serves both phases, which is the entire point of elastic
 * repartitioning, so CI asserts the gap on every build — and (c)
 * every elastic schedule that migrated validates cleanly against its
 * reconfiguration windows.
 *
 * Flags: docs/BENCHMARKS.md. Miss counts are deterministic (the
 * scheduler is bit-identical across thread counts and reruns), so
 * the --check-against gate compares them exactly, tolerance-free.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_baseline.hh"
#include "bench_common.hh"

namespace
{

using namespace herald;

/** NVDLA-side PE shares of the 1024-PE edge chip swept as starting
 * partitions (the Shi side gets the remainder of PEs and the
 * proportional bandwidth share). */
const std::uint64_t kNvdlaPes[] = {256, 384, 512, 640, 768};

struct CellResult
{
    std::string label; //!< "<static|elastic>/<nvdla PEs>"
    bool elastic = false;
    std::uint64_t nvdlaPes = 0;
    std::size_t misses = 0;
    std::size_t framesWithDeadline = 0;
    std::size_t reconfigs = 0;
    std::uint64_t movedPes = 0;
    double missRate = 0.0;
};

void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &cur,
     const benchgate::FlatJson &base)
{
    // Rows are labeled "<static|elastic>/<nvdla PEs>"; miss counts
    // are deterministic, so any rise over the committed baseline is
    // a scheduling- or migration-quality regression.
    benchgate::checkPolicyMissRows(chk, cur, base, "cells", "cells",
                                   "cells");
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    accel::AcceleratorClass chip = accel::edgeClass();
    const int frames = small ? 8 : 16;
    workload::Workload wl = workload::shiftingLoadFactory(frames);
    cost::CostModel model;

    // The backlog-skew policy the elastic cells run. The threshold
    // is a few BrQ frame periods of skew — early enough to catch the
    // phase shift, late enough that a single long layer does not
    // trigger a spurious migration.
    sched::ReconfigOptions elastic_policy;
    elastic_policy.policy = sched::Reconfig::BacklogSkew;
    elastic_policy.skewThresholdCycles = 3e7;
    elastic_policy.migrationQuantumPes = 128;
    elastic_policy.drainCycles = 5e4;
    elastic_policy.perPeRewireCycles = 100.0;
    elastic_policy.cooldownCycles = 1e6;

    std::vector<CellResult> cells;
    bool ok = true;
    std::size_t best_static = static_cast<std::size_t>(-1);
    std::size_t best_elastic = static_cast<std::size_t>(-1);
    std::size_t total_reconfigs = 0;
    std::printf("=== Elastic repartitioning on %s chip (%s), "
                "%zu frames ===\n",
                chip.name.c_str(), small ? "small" : "full",
                wl.numInstances());
    for (std::uint64_t pes0 : kNvdlaPes) {
        const std::uint64_t pes1 = chip.numPes - pes0;
        const double bw0 = chip.bwGBps * static_cast<double>(pes0) /
                           static_cast<double>(chip.numPes);
        accel::Accelerator acc = accel::Accelerator::makeHda(
            chip,
            {dataflow::DataflowStyle::NVDLA,
             dataflow::DataflowStyle::ShiDiannao},
            {pes0, pes1}, {bw0, chip.bwGBps - bw0});

        std::size_t static_misses = 0;
        for (int elastic = 0; elastic <= 1; ++elastic) {
            sched::SchedulerOptions opts;
            opts.policy = sched::Policy::Edf;
            if (elastic)
                opts.reconfig = elastic_policy;
            sched::HeraldScheduler scheduler(model, opts);
            sched::Schedule s = scheduler.schedule(wl, acc);
            std::string issue = s.validate(wl, acc, nullptr);
            if (!issue.empty())
                util::panic("invalid ", elastic ? "elastic" : "static",
                            " schedule at split ", pes0, "/", pes1,
                            ": ", issue);
            sched::SlaStats sla = s.computeSla(wl);

            CellResult c;
            c.label = std::string(elastic ? "elastic" : "static") +
                      "/" + std::to_string(pes0);
            c.elastic = elastic != 0;
            c.nvdlaPes = pes0;
            c.misses = sla.deadlineMisses;
            c.framesWithDeadline = sla.framesWithDeadline;
            c.reconfigs = s.reconfigEvents().size();
            for (const sched::ReconfigEvent &ev : s.reconfigEvents())
                c.movedPes += ev.movedPes;
            c.missRate = sla.missRate;

            std::printf("  %-12s %2zu/%zu misses, %zu migrations "
                        "(%llu PEs moved)\n",
                        c.label.c_str(), c.misses,
                        c.framesWithDeadline, c.reconfigs,
                        static_cast<unsigned long long>(c.movedPes));

            if (elastic) {
                total_reconfigs += c.reconfigs;
                best_elastic = std::min(best_elastic, c.misses);
                if (c.misses > static_misses) {
                    std::fprintf(stderr,
                                 "FAIL %s: elastic misses (%zu) "
                                 "worse than the static split "
                                 "(%zu)\n",
                                 c.label.c_str(), c.misses,
                                 static_misses);
                    ok = false;
                }
            } else {
                static_misses = c.misses;
                best_static = std::min(best_static, c.misses);
            }
            cells.push_back(std::move(c));
        }
    }

    std::printf("best static %zu misses, best elastic %zu misses, "
                "%zu migrations total\n",
                best_static, best_elastic, total_reconfigs);
    if (best_elastic >= best_static) {
        std::fprintf(stderr,
                     "FAIL: best elastic cell (%zu misses) does not "
                     "strictly beat the best static partition (%zu "
                     "misses)\n",
                     best_elastic, best_static);
        ok = false;
    }
    if (total_reconfigs == 0) {
        std::fprintf(stderr, "FAIL: no elastic cell migrated — the "
                             "backlog-skew policy never fired\n");
        ok = false;
    }

    std::fprintf(json,
                 "{\n  \"chip\": \"%s\",\n  \"grid\": \"%s\",\n"
                 "  \"frames\": %zu,\n"
                 "  \"best_static_misses\": %zu,\n"
                 "  \"best_elastic_misses\": %zu,\n"
                 "  \"cells\": [\n",
                 chip.name.c_str(), small ? "small" : "full",
                 wl.numInstances(), best_static, best_elastic);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        std::fprintf(
            json,
            "    {\"policy\": \"%s\", \"elastic\": %s, "
            "\"nvdla_pes\": %llu, \"misses\": %zu, "
            "\"frames_with_deadline\": %zu, \"reconfigs\": %zu, "
            "\"moved_pes\": %llu, \"miss_rate\": %.4f}%s\n",
            c.label.c_str(), c.elastic ? "true" : "false",
            static_cast<unsigned long long>(c.nvdlaPes), c.misses,
            c.framesWithDeadline, c.reconfigs,
            static_cast<unsigned long long>(c.movedPes), c.missRate,
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(argc, argv,
                                    {"bench_repartition",
                                     "BENCH_repartition.json", {}, run,
                                     gate});
}
