/**
 * @file
 * Million-frame serving soak: drive the online scheduler with lazy
 * periodic streams far past anything the offline path could
 * materialize, and assert the serving-engine contract on the way out:
 *
 *  - bounded memory: max RSS (getrusage) must not grow past a slack
 *    budget after the warmup high-water mark — a leak or an unbounded
 *    window turns directly into RSS growth at million-frame scale;
 *  - live-state gauges (window frames, ready set, un-retired
 *    entries) stay bounded throughout;
 *  - accounting integrity: admitted == completed + dropped, no
 *    frames left live after drain.
 *
 * Emits machine-readable JSON (default BENCH_soak.json) with serving
 * throughput (layers/sec), p50/p99/p99.9 frame latency, and the SLA
 * counters, so successive PRs can track serving capacity.
 *
 * Flags: docs/BENCHMARKS.md. --small runs a ~60k-frame smoke variant
 * for CI; the default run submits >= 1.2 million frames. Passes over
 * the stream repeat on fresh engines until they add up to 0.5 s, and
 * the rate is the median pass's; every pass must give the same
 * counters. The --check-against gate holds that rate within the
 * tolerance of the committed baseline, the committed layer count
 * exactly, and the deterministic SLA counters (misses, drops,
 * rejections) at or below it. The RSS-flatness assertion is always
 * on and exits non-zero on violation.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

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
    chk.checkCountEqual("layers_committed");
    chk.checkCountNotAbove("sla.misses", "sla.misses");
    chk.checkCountNotAbove("sla.drops", "sla.drops");
    chk.checkCountNotAbove("sla.rejected", "sla.rejected");
}

/** Timed passes repeat until they add up to at least this long. */
constexpr double kMinTimedSeconds = 0.5;

/** One pass over the soak stream on a fresh engine. */
struct Pass
{
    std::uint64_t totalFrames = 0;
    double seconds = 0.0; //!< submit loop + drain
    double rssWarmupMb = 0.0;
    std::uint64_t maxWindow = 0;
    std::uint64_t maxReady = 0;
    std::uint64_t maxEntries = 0;
    sched::OnlineStats st;
};

Pass
servePass(cost::CostModel &model, const accel::Accelerator &acc,
          bool small)
{
    const std::uint64_t frames_a = small ? 33000 : 650000;
    const std::uint64_t frames_b = small ? 28000 : 550000;
    sched::ArrivalSource src;
    src.addStream(tinyNet("SoakA", 256), 9.7e4, 3.9e5, 0.0,
                  frames_a);
    src.addStream(tinyNet("SoakB", 192), 1.13e5, 4.5e5, 1.3e4,
                  frames_b);

    sched::OnlineOptions oopts;
    oopts.sched.policy = sched::Policy::Lst;
    oopts.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    oopts.sched.preemption = sched::Preemption::AtLayerBoundary;
    oopts.maxLiveFrames = 4096;
    oopts.horizonCycles = 1e8;
    sched::OnlineScheduler eng(model, src.models(), acc, oopts);

    Pass pass;
    pass.totalFrames = frames_a + frames_b;
    // The RSS flatness budget is judged from a warmup high-water
    // mark: the first 10% of the stream populates the window, the
    // allocator pools, and the cost table; past it, a serving engine
    // with O(in-flight) state must hold the line.
    const std::uint64_t warmup_frames = pass.totalFrames / 10;
    const std::uint64_t gauge_period = 4096;
    std::uint64_t submitted = 0;

    const Clock::time_point start = Clock::now();
    while (!src.exhausted()) {
        const sched::ArrivalSource::Frame f = src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
        ++submitted;
        if (submitted == warmup_frames)
            pass.rssWarmupMb = maxRssMb();
        if (submitted % gauge_period == 0) {
            const sched::OnlineStats g = eng.stats();
            pass.maxWindow = std::max(pass.maxWindow, g.windowFrames);
            pass.maxReady = std::max(pass.maxReady, g.readyFrames);
            pass.maxEntries = std::max(pass.maxEntries, g.liveEntries);
        }
    }
    eng.drain();
    pass.seconds = secondsSince(start);
    pass.st = eng.stats();
    return pass;
}

/** Same counters and latencies: every pass runs the same stream. */
bool
samePass(const Pass &a, const Pass &b)
{
    return a.st.submittedFrames == b.st.submittedFrames &&
           a.st.committedLayers == b.st.committedLayers &&
           a.st.completedFrames == b.st.completedFrames &&
           a.st.droppedFrames == b.st.droppedFrames &&
           a.st.rejectedFrames == b.st.rejectedFrames &&
           a.st.deadlineMisses == b.st.deadlineMisses &&
           a.st.retiredEntries == b.st.retiredEntries &&
           a.st.p50LatencyCycles == b.st.p50LatencyCycles &&
           a.st.p99LatencyCycles == b.st.p99LatencyCycles &&
           a.st.p999LatencyCycles == b.st.p999LatencyCycles &&
           a.maxWindow == b.maxWindow && a.maxReady == b.maxReady &&
           a.maxEntries == b.maxEntries;
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
    cost::CostModel model;

    std::printf("=== Online serving soak on %s (%s) ===\n",
                acc.name().c_str(), small ? "small" : "full");

    // One --small pass takes a few hundredths of a second, too short
    // to time on a shared machine: repeat the stream on fresh engines
    // until the timed passes add up to kMinTimedSeconds, and report
    // the median pass. The full stream runs once or twice.
    const Pass first = servePass(model, acc, small);
    std::vector<double> pass_seconds = {first.seconds};
    double timed = first.seconds;
    bool deterministic = true;
    while (timed < kMinTimedSeconds) {
        const Pass again = servePass(model, acc, small);
        deterministic = deterministic && samePass(first, again);
        pass_seconds.push_back(again.seconds);
        timed += again.seconds;
    }
    std::sort(pass_seconds.begin(), pass_seconds.end());
    const std::size_t mid = pass_seconds.size() / 2;
    const double seconds =
        pass_seconds.size() % 2 == 1
            ? pass_seconds[mid]
            : 0.5 * (pass_seconds[mid - 1] + pass_seconds[mid]);
    const double rss_warmup_mb = first.rssWarmupMb;
    const double rss_final_mb = maxRssMb();
    const double rss_growth_mb = rss_final_mb - rss_warmup_mb;

    const sched::OnlineStats &st = first.st;
    const std::uint64_t total_frames = first.totalFrames;
    const double layers_per_sec =
        static_cast<double>(st.committedLayers) / seconds;

    std::printf("%" PRIu64 " frames (%" PRIu64 " layers) per pass, "
                "%zu passes in %.2f s — median %.4f s, %.0f "
                "layers/sec\n",
                st.submittedFrames, st.committedLayers,
                pass_seconds.size(), timed, seconds, layers_per_sec);
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
                first.maxWindow, first.maxReady, first.maxEntries,
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
        "  \"passes\": %zu,\n"
        "  \"timed_seconds\": %.3f,\n"
        "  \"elapsed_seconds\": %.4f,\n"
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
        ", \"retired_entries\": %" PRIu64 "}\n"
        "}\n",
        small ? "small" : "full", st.submittedFrames,
        st.committedLayers, pass_seconds.size(), timed, seconds,
        layers_per_sec, jsonSafeMs(st.p50LatencyCycles),
        jsonSafeMs(st.p99LatencyCycles),
        jsonSafeMs(st.p999LatencyCycles), st.completedFrames,
        st.deadlineMisses, st.droppedFrames, st.rejectedFrames,
        rss_warmup_mb, rss_final_mb, rss_growth_mb, first.maxWindow,
        first.maxReady, first.maxEntries, st.retiredEntries);

    // --- Hard serving-contract assertions (always on) ---
    bool ok = true;
    if (!deterministic) {
        std::fprintf(stderr,
                     "bench_soak: FAIL a repeated pass of the same "
                     "stream gave different counters\n");
        ok = false;
    }
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
