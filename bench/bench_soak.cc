/**
 * @file
 * Million-frame serving soak: drive the online scheduler with lazy
 * periodic streams far past anything the offline path could
 * materialize, and assert the serving-engine contract on the way out:
 *
 *  - bounded memory: max RSS (getrusage) must not grow past a slack
 *    budget after the warmup high-water mark — a leak or an unbounded
 *    window turns directly into RSS growth at million-frame scale;
 *  - live-state gauges (window frames, ready set, un-retired entries
 *    and memory intervals) stay bounded throughout;
 *  - accounting integrity: admitted == completed + dropped, no
 *    frames left live after drain.
 *
 * Emits machine-readable JSON (default BENCH_soak.json) with serving
 * throughput (layers/sec), p50/p99/p99.9 frame latency, and the SLA
 * counters, so successive PRs can track serving capacity.
 *
 * Flags: docs/BENCHMARKS.md. --small runs a ~60k-frame smoke variant
 * for CI; the default run submits >= 1.2 million frames. The
 * --check-against gate holds serving throughput within the tolerance
 * of the committed baseline and the deterministic SLA counters
 * (misses, drops, rejections) at or below it. The RSS-flatness
 * assertion is always on and exits non-zero on violation.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "accel/accelerator.hh"
#include "bench_baseline.hh"
#include "dnn/model.hh"
#include "sched/arrival_source.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"

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

/** Peak (high-water) resident set size in MB. */
double
maxRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        util::fatal("bench_soak: getrusage failed");
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
#endif
}

/** JSON has no inf: unbounded latencies serialize as -1. */
double
jsonSafeMs(double cycles)
{
    return std::isfinite(cycles) ? cycles / 1e6 : -1.0;
}

/** Small FC pipelines keep per-layer cost evaluation out of the
 *  picture — the soak measures the scheduler, not the cost model. */
dnn::Model
tinyNet(const char *name, int width)
{
    dnn::Model m(name);
    m.addLayer(dnn::makeFullyConnected("f1", width, width));
    m.addLayer(dnn::makeFullyConnected("f2", width / 2, width));
    return m;
}

void
gate(benchgate::BaselineChecker &chk, const benchgate::FlatJson &,
     const benchgate::FlatJson &)
{
    chk.checkThroughput("layers_per_sec");
    chk.checkThroughput("sla.completed");
    chk.checkCountNotAbove("sla.misses", "sla.misses");
    chk.checkCountNotAbove("sla.drops", "sla.drops");
    chk.checkCountNotAbove("sla.rejected", "sla.rejected");
}

bool
run(const benchgate::BenchArgs &args, std::FILE *json)
{
    const bool small = args.small;
    const double rss_slack_mb =
        args.value(benchgate::kRssSlackMbFlag, 64.0);

    // Two-way HDA; periods are comfortably sustainable so the stream
    // runs in steady state and the window stays small.
    accel::AcceleratorClass chip = accel::edgeClass();
    accel::Accelerator acc = accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});

    const std::uint64_t frames_a = small ? 33000 : 650000;
    const std::uint64_t frames_b = small ? 28000 : 550000;
    sched::ArrivalSource src;
    src.addStream(tinyNet("SoakA", 256), 9.7e4, 3.9e5, 0.0,
                  frames_a);
    src.addStream(tinyNet("SoakB", 192), 1.13e5, 4.5e5, 1.3e4,
                  frames_b);
    const std::uint64_t total_frames = frames_a + frames_b;

    sched::OnlineOptions oopts;
    oopts.sched.policy = sched::Policy::Lst;
    oopts.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    oopts.sched.preemption = sched::Preemption::AtLayerBoundary;
    oopts.maxLiveFrames = 4096;
    oopts.horizonCycles = 1e8;
    cost::CostModel model;
    sched::OnlineScheduler eng(model, src.models(), acc, oopts);

    std::printf("=== Online serving soak on %s (%s, %" PRIu64
                " frames) ===\n",
                acc.name().c_str(), small ? "small" : "full",
                total_frames);

    // The RSS flatness budget is judged from a warmup high-water
    // mark: the first 10% of the stream populates the window, the
    // allocator pools, and the cost table; past it, a serving engine
    // with O(in-flight) state must hold the line.
    const std::uint64_t warmup_frames = total_frames / 10;
    const std::uint64_t gauge_period = 4096;
    double rss_warmup_mb = 0.0;
    std::uint64_t max_window = 0;
    std::uint64_t max_ready = 0;
    std::uint64_t max_entries = 0;
    std::uint64_t max_intervals = 0;
    std::uint64_t submitted = 0;

    const Clock::time_point start = Clock::now();
    while (!src.exhausted()) {
        const sched::ArrivalSource::Frame f = src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        ++submitted;
        if (submitted == warmup_frames)
            rss_warmup_mb = maxRssMb();
        if (submitted % gauge_period == 0) {
            const sched::OnlineStats g = eng.stats();
            max_window = std::max(max_window, g.windowFrames);
            max_ready = std::max(max_ready, g.readyFrames);
            max_entries = std::max(max_entries, g.liveEntries);
            max_intervals = std::max(max_intervals, g.liveIntervals);
        }
    }
    eng.drain();
    const double seconds = secondsSince(start);
    const double rss_final_mb = maxRssMb();
    const double rss_growth_mb = rss_final_mb - rss_warmup_mb;

    const sched::OnlineStats st = eng.stats();
    const double layers_per_sec =
        static_cast<double>(st.committedLayers) / seconds;

    std::printf("%" PRIu64 " frames (%" PRIu64 " layers) in %.2f s "
                "— %.0f layers/sec\n",
                st.submittedFrames, st.committedLayers, seconds,
                layers_per_sec);
    std::printf("completed %" PRIu64 ", dropped %" PRIu64
                ", rejected %" PRIu64 ", misses %" PRIu64
                " (rate %.4f)\n",
                st.completedFrames, st.droppedFrames,
                st.rejectedFrames, st.deadlineMisses, st.missRate);
    std::printf("latency p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms\n",
                jsonSafeMs(st.p50LatencyCycles),
                jsonSafeMs(st.p99LatencyCycles),
                jsonSafeMs(st.p999LatencyCycles));
    std::printf("window <= %" PRIu64 " frames, ready <= %" PRIu64
                ", live entries <= %" PRIu64 ", retired %" PRIu64
                "\n",
                max_window, max_ready, max_entries,
                st.retiredEntries);
    std::printf("max RSS: warmup %.1f MB, final %.1f MB "
                "(growth %.1f MB, slack %.1f MB)\n",
                rss_warmup_mb, rss_final_mb, rss_growth_mb,
                rss_slack_mb);

    std::fprintf(
        json,
        "{\n"
        "  \"mode\": \"%s\",\n"
        "  \"frames_submitted\": %" PRIu64 ",\n"
        "  \"layers_committed\": %" PRIu64 ",\n"
        "  \"elapsed_seconds\": %.3f,\n"
        "  \"layers_per_sec\": %.1f,\n"
        "  \"p50_latency_ms\": %.4f,\n"
        "  \"p99_latency_ms\": %.4f,\n"
        "  \"p999_latency_ms\": %.4f,\n"
        "  \"sla\": {\"completed\": %" PRIu64 ", \"misses\": %" PRIu64
        ", \"drops\": %" PRIu64 ", \"rejected\": %" PRIu64 "},\n"
        "  \"rss\": {\"warmup_mb\": %.1f, \"final_mb\": %.1f, "
        "\"growth_mb\": %.1f},\n"
        "  \"gauges\": {\"max_window_frames\": %" PRIu64
        ", \"max_ready_frames\": %" PRIu64
        ", \"max_live_entries\": %" PRIu64
        ", \"max_live_intervals\": %" PRIu64
        ", \"retired_entries\": %" PRIu64 "}\n"
        "}\n",
        small ? "small" : "full", st.submittedFrames,
        st.committedLayers, seconds, layers_per_sec,
        jsonSafeMs(st.p50LatencyCycles),
        jsonSafeMs(st.p99LatencyCycles),
        jsonSafeMs(st.p999LatencyCycles), st.completedFrames,
        st.deadlineMisses, st.droppedFrames, st.rejectedFrames,
        rss_warmup_mb, rss_final_mb, rss_growth_mb, max_window,
        max_ready, max_entries, max_intervals, st.retiredEntries);

    // --- Hard serving-contract assertions (always on) ---
    bool ok = true;
    if (st.liveFrames != 0) {
        std::fprintf(stderr,
                     "bench_soak: FAIL %" PRIu64
                     " frames still live after drain\n",
                     st.liveFrames);
        ok = false;
    }
    if (st.admittedFrames !=
        st.completedFrames + st.droppedFrames) {
        std::fprintf(stderr,
                     "bench_soak: FAIL SLA counters do not add up "
                     "(admitted %" PRIu64 " != completed %" PRIu64
                     " + dropped %" PRIu64 ")\n",
                     st.admittedFrames, st.completedFrames,
                     st.droppedFrames);
        ok = false;
    }
    if (st.submittedFrames != total_frames) {
        std::fprintf(stderr,
                     "bench_soak: FAIL submitted %" PRIu64
                     " of %" PRIu64 " frames\n",
                     st.submittedFrames, total_frames);
        ok = false;
    }
    if (rss_growth_mb > rss_slack_mb) {
        std::fprintf(stderr,
                     "bench_soak: FAIL max RSS grew %.1f MB past the "
                     "warmup mark (slack %.1f MB) — live state is "
                     "not bounded\n",
                     rss_growth_mb, rss_slack_mb);
        ok = false;
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    return benchgate::runGatedBench(argc, argv,
                                    {"bench_soak", "BENCH_soak.json",
                                     {benchgate::kRssSlackMbFlag}, run,
                                     gate});
}
