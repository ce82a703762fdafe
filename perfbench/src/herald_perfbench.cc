/**
 * @file
 * Herald's end-to-end benchmark: one program for the three uses of
 * the framework.
 *
 *   dse-arvrA-edge       design-time exploration (Herald::explore)
 *   offline-factory-edf  offline compile of a frame stream
 *                        (HeraldScheduler::schedule + finalize)
 *   serve-steady         online serving near capacity
 *   serve-overload       online serving past capacity
 *
 * Usage:
 *   herald_perfbench --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--trace-out FILE]
 *                    [--inject pinned|identity]
 *
 * With --trace 0 the program measures the end-to-end metrics for
 * --seconds seconds (host throughput is the median over repetitions),
 * then checks the outputs. With --trace 1 it replays the same work
 * through the library's public calls three times (untraced, traced,
 * untraced), records one span per call in the traced run, writes the
 * spans as Chrome trace-event JSON to --trace-out, and reports the
 * per-layer metrics.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is non-zero when any check fails. --inject perturbs
 * one check on purpose (the pinned DSE answer, or the serving counter
 * identity) so the benchmark's own tests can show the checks fire.
 *
 * Everything runs on one thread except the DSE determinism check,
 * which repeats the exploration with one worker per hardware thread.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "dse/design_space.hh"
#include "dse/herald_dse.hh"
#include "sched/arrival_source.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "sched/schedule.hh"
#include "trace.hh"
#include "util/logging.hh"
#include "util/math_utils.hh"
#include "workload/workload.hh"

namespace
{

using namespace herald;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::secondsSince;
using perfbench::Tracer;

// ---------------------------------------------------------------------
// Command line and report
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string inject; //!< "", "pinned" or "identity"
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What the run prints as its last line, plus the checks behind it. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a check; a failed one is reported on stderr. */
    void
    check(bool ok, const char *fmt, ...)
    {
        if (ok)
            return;
        correct = false;
        std::va_list args;
        va_start(args, fmt);
        std::fprintf(stderr, "perfbench: FAIL ");
        std::vfprintf(stderr, fmt, args);
        std::fprintf(stderr, "\n");
        va_end(args);
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        // JSON has no infinity; a non-finite value already failed
        // its check in main() and prints as -1.
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const double v = metrics[i].value;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(),
                        std::isfinite(v) ? v : -1.0,
                        metrics[i].unit.c_str());
        }
        std::printf("}}\n");
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in [0, 1]) of @p v. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/** Peak (high-water) resident set size of this process in MB. */
double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

/** Mean wall time of calls of @p fn repeated for at least @p min_s. */
template <typename Fn>
double
meanCallSeconds(double min_s, Fn &fn)
{
    const Clock::time_point start = Clock::now();
    std::uint64_t calls = 0;
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = secondsSince(start);
    } while (elapsed < min_s);
    return elapsed / static_cast<double>(calls);
}

void
printSamples(const char *name, const std::vector<double> &v)
{
    std::printf("%-22s", name);
    for (double x : v)
        std::printf(" %.6g", x);
    std::printf("\n");
}

/**
 * Pin this thread to the allowed CPU that sorts a small fixed array
 * fastest right now. On a shared host each CPU's speed changes from
 * second to second (a busy neighbour on the same core), and a thread
 * left alone can stay on a slow CPU for tens of seconds; choosing
 * before each repetition keeps most of that out of the samples. Does
 * nothing when affinity cannot be set.
 */
void
pinFastestCpu(const cpu_set_t &allowed)
{
    static const std::vector<std::uint64_t> probe = [] {
        util::SplitMix64 rng(42);
        std::vector<std::uint64_t> v(std::size_t{1} << 14);
        for (std::uint64_t &x : v)
            x = rng.next();
        return v;
    }();
    int best_cpu = -1;
    double best_s = std::numeric_limits<double>::infinity();
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) != 0)
            continue;
        for (int i = 0; i < 3; ++i) {
            std::vector<std::uint64_t> v = probe;
            const Clock::time_point start = Clock::now();
            std::sort(v.begin(), v.end());
            const double dt = secondsSince(start);
            if (dt < best_s) {
                best_s = dt;
                best_cpu = cpu;
            }
        }
    }
    if (best_cpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(best_cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
}

/**
 * Each set-up batch repeats the set-up for at least this long, so a
 * sample averages many calls even where one call takes microseconds.
 */
constexpr double kSetupBatchS = 0.02;
constexpr std::size_t kMinSetupSamples = 15;

/**
 * One set-up sample: on the CPU that is fastest right now, the best of
 * three back-to-back batches, which drops a batch that a short
 * interruption hit.
 */
template <typename Setup>
double
setupSample(const cpu_set_t &allowed, Setup &setup)
{
    pinFastestCpu(allowed);
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i)
        best = std::min(best, meanCallSeconds(kSetupBatchS, setup));
    return best;
}

/**
 * A run's set-up time from its samples in time order: the median, over
 * the run's three thirds, of each third's fastest sample. A slow period
 * on a shared host lasts seconds and slows every sample in it, so a
 * plain median moves with the share of the run such periods cover; the
 * fastest sample of a third does not, and the median of three drops
 * one unusually fast sample.
 */
double
setupSeconds(const std::vector<double> &samples)
{
    const std::size_t n = samples.size();
    std::vector<double> best;
    for (std::size_t i = 0; i < 3; ++i) {
        best.push_back(*std::min_element(samples.begin() + i * n / 3,
                                         samples.begin() + (i + 1) * n / 3));
    }
    return median(best);
}

/**
 * The end-to-end host measurements of one run. @p rep runs one timed
 * unit of work and returns its layers/s; it repeats until @p seconds
 * have passed, and at least twice so the repeat-determinism checks
 * always have a pair. Each repetition runs on the CPU that is fastest
 * just before it; the caller's affinity is restored afterwards. After
 * each repetition one set-up sample is taken, so set-up samples are
 * spread over the run like the throughput samples (at least
 * kMinSetupSamples). Reports the layers/s median, setupSeconds() and
 * peak RSS before anything else runs; returns the layers/s median.
 */
template <typename Rep, typename Setup>
double
measure(double seconds, Rep &&rep, Setup &&setup, Report &r)
{
    std::vector<double> layers_per_s, setup_s;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    const Clock::time_point start = Clock::now();
    while (layers_per_s.size() < 2 || secondsSince(start) < seconds) {
        pinFastestCpu(allowed);
        layers_per_s.push_back(rep());
        setup_s.push_back(setupSample(allowed, setup));
    }
    const double rss = peakRssMb();
    while (setup_s.size() < kMinSetupSamples)
        setup_s.push_back(setupSample(allowed, setup));
    sched_setaffinity(0, sizeof(allowed), &allowed);
    printSamples("layers_per_s samples", layers_per_s);
    printSamples("setup_s samples", setup_s);
    r.metric("setup_s", setupSeconds(setup_s), "s");
    r.metric("peak_rss_mb", rss, "MB");
    r.metric("layers_per_s", median(layers_per_s), "layers/s");
    return median(layers_per_s);
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

const std::vector<dataflow::DataflowStyle> kDseStyles = {
    dataflow::DataflowStyle::NVDLA,
    dataflow::DataflowStyle::ShiDiannao,
    dataflow::DataflowStyle::Eyeriss,
};

/** The DSE workload's options: the paper's Fig. 10 sweep. */
dse::HeraldOptions
dseOptions(const accel::AcceleratorClass &chip, std::size_t threads)
{
    dse::HeraldOptions opts;
    opts.objective = dse::Objective::ParetoFrontier;
    opts.partition.peGranularity = chip.numPes / 8;
    opts.partition.bwGranularity = chip.bwGBps / 16;
    opts.numThreads = threads;
    return opts;
}

/** The 2-way NVDLA + Shi-diannao HDA of the compile and serve uses. */
accel::Accelerator
twoWayHda(const accel::AcceleratorClass &chip)
{
    return accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});
}

/**
 * The factory mix's three periodic streams (model, rate, relative
 * deadline in periods, share of the 60 FPS frame count), as in
 * workload::faultedFactory.
 */
struct StreamSpec
{
    dnn::Model (*make)();
    double fps;
    double deadlinePeriods;
    int framesDivisor;
};

const StreamSpec kFactoryStreams[] = {
    {dnn::mobileNetV2, 60.0, 3.0, 1},
    {dnn::brqHandposeNet, 30.0, 2.0, 2},
    {dnn::resnet50, 15.0, 1.5, 4},
};

/**
 * The seed's effect on the stream workloads: a start offset of 0-3
 * whole periods of @p unit (the fastest stream's period), applied to
 * every stream, so arrivals keep the one grid and relative alignment
 * of workload::faultedFactory. Relative phases are not drawn: they
 * change what the workloads measure. Per-stream whole-period phases
 * move 1,792-5,016 entries in offline post-processing depending on the
 * seed (its host time with them), and put the serving engine in one
 * of two regimes 2x apart in median latency; 1 us of per-stream
 * jitter can leave the offline schedule no idle gap to fill.
 */
double
seededOffset(std::uint64_t seed, double unit)
{
    util::SplitMix64 rng(seed);
    return unit * static_cast<double>(rng.nextBounded(4));
}

constexpr int kOfflineFrames60 = 1024;

/** workload::faultedFactory(1024), offset by the seed. */
workload::Workload
factoryWorkload(std::uint64_t seed)
{
    const double offset =
        seededOffset(seed, workload::fpsPeriodCycles(60.0));
    workload::Workload wl("factory");
    for (const StreamSpec &s : kFactoryStreams) {
        const double period = workload::fpsPeriodCycles(s.fps);
        wl.addPeriodicModel(s.make(), kOfflineFrames60 / s.framesDivisor,
                            period, s.deadlinePeriods * period, offset);
    }
    wl.addModel(dnn::ssdMobileNetV1(), 1, offset);
    return wl;
}

/** Serving stream set: the factory streams at rate x their FPS. */
struct ServeSpec
{
    double rate;
    std::uint64_t frames60;
};

ServeSpec
serveSpec(const std::string &workload)
{
    return workload == "serve-steady" ? ServeSpec{2.3, 80000}
                                      : ServeSpec{2.5, 40000};
}

sched::ArrivalSource
serveSource(std::uint64_t seed, const ServeSpec &spec)
{
    const double offset =
        seededOffset(seed, workload::fpsPeriodCycles(60.0) / spec.rate);
    sched::ArrivalSource src;
    for (const StreamSpec &s : kFactoryStreams) {
        // Relative deadlines shrink with the period, as in
        // workload::arvrAOverloaded.
        const double period = workload::fpsPeriodCycles(s.fps) / spec.rate;
        src.addStream(s.make(), period, s.deadlinePeriods * period, offset,
                      spec.frames60 / s.framesDivisor);
    }
    return src;
}

sched::OnlineOptions
serveOptions()
{
    sched::OnlineOptions o;
    o.sched.policy = sched::Policy::Lst;
    o.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    o.sched.preemption = sched::Preemption::AtLayerBoundary;
    o.sched.prefillThreads = 1;
    o.maxLiveFrames = 4096;
    o.horizonCycles = 5e7;
    return o;
}

sched::SchedulerOptions
offlineOptions()
{
    sched::SchedulerOptions o;
    o.policy = sched::Policy::Edf;
    o.postProcess = true;
    o.prefillThreads = 1;
    return o;
}

// ---------------------------------------------------------------------
// Per-layer metric table (every workload prints all of them; a layer
// the workload does not exercise reads 0)
// ---------------------------------------------------------------------

const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"setup.workload_s", "s"},
    {"setup.engine_s", "s"},
    {"cost.evals", "count"},
    {"cost.evaluate_s", "s"},
    {"sched.table.build_s", "s"},
    {"sched.table.column_hits", "count"},
    {"sched.table.column_misses", "count"},
    {"sched.dispatch.s", "s"},
    {"sched.dispatch.layers", "count"},
    {"sched.dispatch.ns_per_layer", "ns"},
    {"sched.postprocess.s", "s"},
    {"sched.postprocess.share", "share"},
    {"sched.postprocess.moved_entries", "count"},
    {"sched.postprocess.improved_schedules", "count"},
    {"sched.postprocess.schedules", "count"},
    {"sched.postprocess.makespan_gain_cycles", "cycles"},
    {"sched.postprocess.changes_answer", "flag"},
    {"sched.finalize.s", "s"},
    {"dse.generate_s", "s"},
    {"dse.reduce_s", "s"},
    {"dse.candidates", "count"},
    {"sched.online.submit_s", "s"},
    {"sched.online.drain_s", "s"},
    {"sched.online.submit_p50_us", "us"},
    {"sched.online.submit_p99_us", "us"},
    {"sched.online.submit_max_us", "us"},
    {"sched.online.committed_layers", "count"},
    {"sched.online.rejected", "count"},
    {"sched.online.dropped", "count"},
    {"sched.online.retired_entries", "count"},
    {"sched.online.max_ready_frames", "count"},
    {"sched.online.max_window_frames", "count"},
    {"sched.online.max_live_entries", "count"},
    {"trace.user_path_s", "s"},
    {"trace.overhead_share", "share"},
};

using LayerValues = std::map<std::string, double>;

/** Emit every per-layer metric, in table order. */
void
emitLayerMetrics(const LayerValues &v, Report &r)
{
    for (const auto &[name, unit] : kLayerMetrics) {
        auto it = v.find(name);
        r.metric(name, it == v.end() ? 0.0 : it->second, unit);
    }
}

/**
 * The simulated end-to-end metrics. @p met_share is the share of
 * frames done by their deadline; ok_share comes from the report's
 * attempted and failed counts.
 */
void
reportSimulated(double met_share, double p50_cycles, Report &r)
{
    r.metric("ok_share",
             static_cast<double>(r.attempted - r.failed) /
                 static_cast<double>(r.attempted),
             "share");
    r.metric("deadline_met_share", met_share, "share");
    r.metric("p50_latency_mcycles", p50_cycles / 1e6, "Mcycle");
}

/** Frames of a schedule done by their deadline (or done, if none). */
double
metShare(const sched::SlaStats &sla)
{
    return static_cast<double>(sla.frames - sla.deadlineMisses) /
           static_cast<double>(sla.frames);
}

/**
 * Post-processing's effect on one schedule: entries whose start moved
 * (matched by instance and layer) and the makespan it removed.
 */
struct PpEffect
{
    std::uint64_t moved = 0;
    std::uint64_t improved = 0; //!< schedules whose makespan shrank
    double gainCycles = 0.0;

    PpEffect &
    operator+=(const PpEffect &o)
    {
        moved += o.moved;
        improved += o.improved;
        gainCycles += o.gainCycles;
        return *this;
    }
};

PpEffect
ppEffect(const sched::Schedule &off, const sched::Schedule &on)
{
    using Key = std::tuple<std::size_t, std::size_t, double>;
    auto keyed = [](const sched::Schedule &s) {
        std::vector<Key> k;
        k.reserve(s.entries().size());
        for (const sched::ScheduledLayer &e : s.entries())
            k.emplace_back(e.instanceIdx, e.layerIdx, e.startCycle);
        std::sort(k.begin(), k.end());
        return k;
    };
    std::vector<Key> a = keyed(off), b = keyed(on);
    PpEffect out;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (std::get<2>(a[i]) != std::get<2>(b[i]))
            ++out.moved;
    }
    out.gainCycles = off.makespanCycles() - on.makespanCycles();
    out.improved = out.gainCycles > 0.0 ? 1 : 0;
    return out;
}

/**
 * The traced run. @p stages(tracer) runs the workload's public calls
 * traced, between two untraced runs (null tracer) whose mean is the
 * overhead's base, so neither side alone pays the process's first-run
 * costs. @p values turns the tracer's spans and the traced result into
 * per-layer metrics (and records the run's checks). Adds the tracing
 * overhead, emits every per-layer metric and writes the spans to
 * --trace-out.
 */
template <typename Stages, typename Values>
void
traceRun(const Options &o, Stages &&stages, Values &&values, Report &r)
{
    auto untraced = [&] {
        const Clock::time_point start = Clock::now();
        stages(nullptr);
        return secondsSince(start);
    };
    const double before_s = untraced();
    Tracer tr;
    const Clock::time_point start = Clock::now();
    const auto out = stages(&tr);
    const double traced_s = secondsSince(start);
    const double untraced_s = 0.5 * (before_s + untraced());
    LayerValues v = values(tr, out);
    v["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s;
    emitLayerMetrics(v, r);
    if (!o.traceOut.empty())
        r.check(tr.writeChromeJson(o.traceOut), "cannot write trace %s",
                o.traceOut.c_str());
}

/**
 * Stage times of a traced schedule pipeline (DSE or offline), from
 * span totals. Cost-model time is the cold table build minus the warm
 * one; post-processing is pp-on minus pp-off scheduling; the user path
 * is the calls the end-to-end run times.
 */
LayerValues
scheduleStageValues(std::map<std::string, double> t,
                    std::uint64_t dispatched_layers,
                    const PpEffect &pp_effect, std::size_t schedules)
{
    const double warm = t["sched.table.build.warm"];
    const double dispatch = t["sched.schedule.pp_off"];
    const double pp = t["sched.schedule.pp_on"] - dispatch;
    const double user_path = t["dse.generate"] + t["accel.make_hda"] +
                             t["sched.table.build"] +
                             t["sched.schedule.pp_on"] +
                             t["sched.finalize"] + t["dse.reduce"];
    const double layers = static_cast<double>(dispatched_layers);
    LayerValues v;
    v["setup.workload_s"] = t["setup.workload"];
    v["cost.evaluate_s"] = t["sched.table.build"] - warm;
    v["sched.table.build_s"] = warm;
    v["sched.dispatch.s"] = dispatch;
    v["sched.dispatch.layers"] = layers;
    v["sched.dispatch.ns_per_layer"] =
        dispatch * 1e9 / std::max(1.0, layers);
    v["sched.postprocess.s"] = pp;
    v["sched.postprocess.share"] = pp / user_path;
    v["sched.postprocess.moved_entries"] =
        static_cast<double>(pp_effect.moved);
    v["sched.postprocess.improved_schedules"] =
        static_cast<double>(pp_effect.improved);
    v["sched.postprocess.schedules"] = static_cast<double>(schedules);
    v["sched.postprocess.makespan_gain_cycles"] = pp_effect.gainCycles;
    v["sched.finalize.s"] = t["sched.finalize"];
    v["dse.generate_s"] = t["dse.generate"];
    v["dse.reduce_s"] = t["dse.reduce"];
    v["trace.user_path_s"] = user_path;
    return v;
}

// ---------------------------------------------------------------------
// dse-arvrA-edge
// ---------------------------------------------------------------------

/** Herald's (misses, EDP) scalarization under ParetoFrontier. */
double
scalarObjective(const sched::ScheduleSummary &s)
{
    const double edp = s.edp();
    return static_cast<double>(s.sla.deadlineMisses) + edp / (1.0 + edp);
}

/** Herald::explore's reduction: strict-< argmin, then the frontier. */
void
reducePoints(dse::DseResult &out)
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < out.points.size(); ++i) {
        const double v = scalarObjective(out.points[i].summary);
        if (v < best) {
            best = v;
            out.bestIdx = i;
        }
    }
    out.frontier = util::paretoFrontIndices(out.designPoints());
}

bool
sameDseResult(const dse::DseResult &a, const dse::DseResult &b)
{
    if (a.bestIdx != b.bestIdx || a.frontier != b.frontier ||
        a.points.size() != b.points.size())
        return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const sched::ScheduleSummary &x = a.points[i].summary;
        const sched::ScheduleSummary &y = b.points[i].summary;
        if (x.latencySec != y.latencySec || x.energyMj != y.energyMj ||
            x.makespanCycles != y.makespanCycles ||
            x.sla.deadlineMisses != y.sla.deadlineMisses ||
            a.points[i].accelerator.name() !=
                b.points[i].accelerator.name())
            return false;
    }
    return true;
}

/** What a replay of Herald::explore produced and counted. */
struct DseReplay
{
    dse::DseResult result;      //!< post-processing on (= explore)
    dse::DseResult resultPpOff; //!< only with measure_pp
    std::size_t invalid = 0;    //!< schedules failing validate()
    std::size_t costEvals = 0;
    sched::CostColumnCache::Stats columns{};
    std::uint64_t dispatchedLayers = 0;
    PpEffect pp;
};

/**
 * Herald::explore, replayed through its public calls:
 * generateCandidates -> makeHda -> LayerCostTable::build(cache) ->
 * schedule(wl, acc, table) -> finalize, then the reduction. With
 * @p measure_pp every candidate is also scheduled with post-processing
 * off on the same table, and a warm pass rebuilds every table against
 * the now-warm cost model with a fresh column cache; those two extra
 * passes isolate post-processing and cost-model time.
 */
DseReplay
replayExplore(const workload::Workload &wl,
              const accel::AcceleratorClass &chip,
              const dse::HeraldOptions &hopts, bool measure_pp,
              bool validate, Tracer *tr)
{
    DseReplay out;
    cost::CostModel model;
    sched::CostColumnCache cache;
    sched::SchedulerOptions on = hopts.scheduler;
    on.prefillThreads = 1;
    sched::SchedulerOptions off = on;
    off.postProcess = false;
    const sched::HeraldScheduler sched_on(model, on);
    const sched::HeraldScheduler sched_off(model, off);

    std::vector<dse::PartitionCandidate> cands;
    {
        Scope s(tr, "dse.generate");
        cands = dse::generateCandidates(chip.numPes, chip.bwGBps,
                                        kDseStyles.size(),
                                        hopts.partition);
    }
    std::vector<dse::DsePoint> off_points;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        Scope cand(tr, "dse.candidate", id);
        std::unique_ptr<accel::Accelerator> acc;
        {
            Scope s(tr, "accel.make_hda", id);
            acc = std::make_unique<accel::Accelerator>(
                accel::Accelerator::makeHda(chip, kDseStyles,
                                            cands[i].peSplit,
                                            cands[i].bwSplit));
        }
        std::unique_ptr<sched::LayerCostTable> table;
        {
            Scope s(tr, "sched.table.build", id);
            table = std::make_unique<sched::LayerCostTable>(
                sched::LayerCostTable::build(model, wl, *acc, on.metric,
                                             on.rdaOverheads, 1, &cache));
        }
        std::unique_ptr<sched::Schedule> sch;
        {
            Scope s(tr, "sched.schedule.pp_on", id);
            sch = std::make_unique<sched::Schedule>(
                sched_on.schedule(wl, *acc, *table));
        }
        dse::DsePoint point{*acc, {}, hopts.scheduler.reconfig};
        {
            Scope s(tr, "sched.finalize", id);
            point.summary = sch->finalize(wl, *acc, model.energyModel(),
                                          hopts.chargeIdleEnergy);
        }
        if (validate && !sch->validate(wl, *acc).empty())
            ++out.invalid;
        if (measure_pp) {
            std::unique_ptr<sched::Schedule> sch_off;
            {
                Scope s(tr, "sched.schedule.pp_off", id);
                sch_off = std::make_unique<sched::Schedule>(
                    sched_off.schedule(wl, *acc, *table));
            }
            out.dispatchedLayers += sch_off->entries().size();
            out.pp += ppEffect(*sch_off, *sch);
            dse::DsePoint p_off{*acc, {}, hopts.scheduler.reconfig};
            p_off.summary = sch_off->finalize(wl, *acc,
                                              model.energyModel(),
                                              hopts.chargeIdleEnergy);
            off_points.push_back(std::move(p_off));
        }
        out.result.points.push_back(std::move(point));
    }
    {
        Scope s(tr, "dse.reduce");
        reducePoints(out.result);
    }
    out.costEvals = model.cacheSize();
    out.columns = cache.stats();

    if (measure_pp) {
        out.resultPpOff.points = std::move(off_points);
        reducePoints(out.resultPpOff);
        sched::CostColumnCache warm_cache;
        for (std::size_t i = 0; i < out.result.points.size(); ++i) {
            Scope s(tr, "sched.table.build.warm",
                    static_cast<std::int64_t>(i));
            sched::LayerCostTable::build(
                model, wl, out.result.points[i].accelerator, on.metric,
                on.rdaOverheads, 1, &warm_cache);
        }
    }
    return out;
}

/**
 * The seed run's pinned answer: best point 128/768/128 PEs and
 * 3/12/1 GBps (NVDLA/Shi-diannao/Eyeriss), 5 frontier points.
 */
void
checkPinnedAnswer(const dse::DseResult &res, bool perturb, Report &r)
{
    const std::vector<std::uint64_t> pes = {128, 768, 128};
    const std::vector<double> bws = {3.0, 12.0, 1.0};
    const std::size_t frontier = perturb ? 6 : 5;
    const accel::Accelerator &acc = res.best().accelerator;
    bool split_ok = acc.numSubAccs() == pes.size();
    for (std::size_t i = 0; split_ok && i < pes.size(); ++i) {
        split_ok = acc.resources(i).numPes == pes[i] &&
                   acc.resources(i).bwGBps == bws[i];
    }
    r.check(split_ok, "dse best point %s is not the pinned "
                      "128/768/128 PE, 3/12/1 GBps split",
            acc.name().c_str());
    r.check(res.frontier.size() == frontier,
            "dse frontier has %zu points, pinned answer has %zu",
            res.frontier.size(), frontier);
}

void
runDse(const Options &o, Report &r)
{
    workload::Workload wl("unset");
    accel::AcceleratorClass chip;
    dse::HeraldOptions hopts;
    auto setup = [&] {
        wl = workload::arvrA();
        chip = accel::edgeClass();
        hopts = dseOptions(chip, 1);
    };
    setup();

    if (o.trace) {
        auto stages = [&](Tracer *tr) {
            Scope root(tr, "run");
            {
                Scope s(tr, "setup.workload");
                wl = workload::arvrA();
            }
            return replayExplore(wl, chip, hopts, true, false, tr);
        };
        auto values = [&](const Tracer &tr, const DseReplay &rep) {
            LayerValues v =
                scheduleStageValues(tr.totalsByName(), rep.dispatchedLayers,
                                    rep.pp, rep.result.points.size());
            v["cost.evals"] = static_cast<double>(rep.costEvals);
            v["sched.table.column_hits"] =
                static_cast<double>(rep.columns.hits);
            v["sched.table.column_misses"] =
                static_cast<double>(rep.columns.misses);
            v["sched.postprocess.changes_answer"] =
                rep.result.bestIdx != rep.resultPpOff.bestIdx ||
                rep.result.frontier != rep.resultPpOff.frontier;
            v["dse.candidates"] =
                static_cast<double>(rep.result.points.size());
            checkPinnedAnswer(rep.result, o.inject == "pinned", r);
            r.attempted = rep.result.points.size();
            return v;
        };
        traceRun(o, stages, values, r);
        return;
    }

    // End to end: cold CostModel per exploration, one thread.
    dse::DseResult first;
    bool repeatable = true;
    const double layers = static_cast<double>(wl.totalLayers());
    const double layers_per_s = measure(
        o.seconds,
        [&] {
            cost::CostModel model;
            const dse::Herald herald(model, hopts);
            const Clock::time_point t0 = Clock::now();
            dse::DseResult res = herald.explore(wl, chip, kDseStyles);
            const double dt = secondsSince(t0);
            const double rate =
                static_cast<double>(res.points.size()) * layers / dt;
            if (first.points.empty())
                first = std::move(res);
            else
                repeatable = repeatable && sameDseResult(first, res);
            return rate;
        },
        setup, r);

    r.check(repeatable, "dse: repeated explore() results differ");
    const DseReplay rep =
        replayExplore(wl, chip, hopts, false, true, nullptr);
    r.check(sameDseResult(rep.result, first),
            "dse: the replay differs from explore()");
    checkPinnedAnswer(first, o.inject == "pinned", r);
    const std::size_t threads =
        std::max<std::size_t>(2, std::thread::hardware_concurrency());
    cost::CostModel model;
    const dse::Herald parallel(model, dseOptions(chip, threads));
    r.check(sameDseResult(first, parallel.explore(wl, chip, kDseStyles)),
            "dse: explore with %zu threads differs from 1 thread",
            threads);

    const sched::ScheduleSummary &best = first.best().summary;
    r.attempted = first.points.size();
    r.failed = rep.invalid;
    reportSimulated(metShare(best.sla), best.sla.p50LatencyCycles, r);
    std::printf("dse_candidates_per_s   %.6g candidates/s\n",
                layers_per_s / layers);
    std::printf("dse_best_edp           %.9g mJ.s  (%s, frontier %zu)\n",
                best.edp(), first.best().accelerator.name().c_str(),
                first.frontier.size());
}

// ---------------------------------------------------------------------
// offline-factory-edf
// ---------------------------------------------------------------------

bool
sameSummary(const sched::ScheduleSummary &a,
            const sched::ScheduleSummary &b)
{
    return a.makespanCycles == b.makespanCycles &&
           a.energyMj == b.energyMj &&
           a.sla.deadlineMisses == b.sla.deadlineMisses &&
           a.sla.droppedFrames == b.sla.droppedFrames &&
           a.sla.p50LatencyCycles == b.sla.p50LatencyCycles &&
           a.sla.p99LatencyCycles == b.sla.p99LatencyCycles;
}

void
runOffline(const Options &o, Report &r)
{
    const accel::AcceleratorClass chip = accel::edgeClass();
    const accel::Accelerator acc = twoWayHda(chip);
    workload::Workload wl("unset");
    auto setup = [&] { wl = factoryWorkload(o.seed); };
    setup();

    if (o.trace) {
        // One offline compile, split at its public calls: a cold and
        // a warm table build (their difference is cost-model time),
        // dispatch alone (post-processing off) and the full schedule
        // on the same table, then finalize.
        struct Out
        {
            std::size_t evals = 0;
            std::uint64_t layers = 0;
            PpEffect pp;
            bool changes = false;
            std::string invalid;
        };
        auto stages = [&](Tracer *tr) {
            Out out;
            Scope root(tr, "run");
            workload::Workload w("unset");
            {
                Scope s(tr, "setup.workload");
                w = factoryWorkload(o.seed);
            }
            cost::CostModel model;
            const sched::SchedulerOptions on = offlineOptions();
            sched::SchedulerOptions off = on;
            off.postProcess = false;
            auto build = [&](const char *name) {
                Scope s(tr, name);
                return sched::LayerCostTable::build(
                    model, w, acc, on.metric, on.rdaOverheads, 1);
            };
            const sched::LayerCostTable table = build("sched.table.build");
            out.evals = model.cacheSize();
            build("sched.table.build.warm");
            std::unique_ptr<sched::Schedule> s_off, s_on;
            {
                Scope s(tr, "sched.schedule.pp_off");
                s_off = std::make_unique<sched::Schedule>(
                    sched::HeraldScheduler(model, off)
                        .schedule(w, acc, table));
            }
            {
                Scope s(tr, "sched.schedule.pp_on");
                s_on = std::make_unique<sched::Schedule>(
                    sched::HeraldScheduler(model, on)
                        .schedule(w, acc, table));
            }
            sched::ScheduleSummary sum;
            {
                Scope s(tr, "sched.finalize");
                sum = s_on->finalize(w, acc, model.energyModel());
            }
            out.layers = s_off->entries().size();
            out.pp = ppEffect(*s_off, *s_on);
            sched::ScheduleSummary sum_off =
                s_off->finalize(w, acc, model.energyModel());
            out.changes =
                sum.makespanCycles != sum_off.makespanCycles ||
                sum.sla.deadlineMisses != sum_off.sla.deadlineMisses;
            out.invalid = s_on->validate(w, acc);
            return out;
        };
        auto values = [&](const Tracer &tr, const Out &out) {
            LayerValues v =
                scheduleStageValues(tr.totalsByName(), out.layers, out.pp, 1);
            v["cost.evals"] = static_cast<double>(out.evals);
            v["sched.postprocess.changes_answer"] = out.changes;
            r.check(out.invalid.empty(), "offline schedule invalid: %s",
                    out.invalid.c_str());
            r.attempted = wl.numInstances();
            return v;
        };
        traceRun(o, stages, values, r);
        return;
    }

    // End to end: one compile per repetition, cold cost model.
    const sched::SchedulerOptions opts = offlineOptions();
    std::unique_ptr<sched::Schedule> first;
    sched::ScheduleSummary first_sum;
    bool repeatable = true;
    measure(
        o.seconds,
        [&] {
            cost::CostModel model;
            const sched::HeraldScheduler scheduler(model, opts);
            const Clock::time_point t0 = Clock::now();
            sched::Schedule sch = scheduler.schedule(wl, acc);
            const sched::ScheduleSummary sum =
                sch.finalize(wl, acc, model.energyModel());
            const double dt = secondsSince(t0);
            if (!first) {
                first = std::make_unique<sched::Schedule>(std::move(sch));
                first_sum = sum;
            } else {
                repeatable = repeatable && sch.identicalTo(*first) &&
                             sameSummary(sum, first_sum);
            }
            return static_cast<double>(wl.totalLayers()) / dt;
        },
        setup, r);

    const std::string invalid = first->validate(wl, acc);
    r.check(invalid.empty(), "offline schedule invalid: %s",
            invalid.c_str());
    r.check(repeatable, "offline: repeated schedules differ");
    const sched::SlaStats &sla = first_sum.sla;
    r.check(sla.frames == wl.numInstances() &&
                sla.droppedFrames <= sla.deadlineMisses,
            "offline: SLA counters inconsistent");

    r.attempted = sla.frames;
    r.failed = sla.droppedFrames;
    reportSimulated(metShare(sla), sla.p50LatencyCycles, r);
    std::printf("offline_makespan_ms     %.9g ms\n",
                first_sum.makespanCycles / 1e6);
    std::printf("offline_deadline_misses %zu frames\n",
                sla.deadlineMisses);
}

// ---------------------------------------------------------------------
// serve-steady / serve-overload
// ---------------------------------------------------------------------

bool
sameStats(const sched::OnlineStats &a, const sched::OnlineStats &b)
{
    return a.submittedFrames == b.submittedFrames &&
           a.rejectedFrames == b.rejectedFrames &&
           a.admittedFrames == b.admittedFrames &&
           a.completedFrames == b.completedFrames &&
           a.droppedFrames == b.droppedFrames &&
           a.deadlineMisses == b.deadlineMisses &&
           a.committedLayers == b.committedLayers &&
           a.retiredEntries == b.retiredEntries &&
           a.p50LatencyCycles == b.p50LatencyCycles &&
           a.p99LatencyCycles == b.p99LatencyCycles;
}

/** The serving contract's counter identities, after drain(). */
void
checkServeIdentities(sched::OnlineStats st, std::uint64_t emitted,
                     bool perturb, Report &r)
{
    if (perturb)
        ++st.completedFrames;
    r.check(st.submittedFrames == emitted,
            "serve: submitted %llu of %llu frames",
            static_cast<unsigned long long>(st.submittedFrames),
            static_cast<unsigned long long>(emitted));
    r.check(st.submittedFrames == st.admittedFrames + st.rejectedFrames,
            "serve: submitted != admitted + rejected");
    r.check(st.admittedFrames == st.completedFrames + st.droppedFrames,
            "serve: admitted %llu != completed %llu + dropped %llu",
            static_cast<unsigned long long>(st.admittedFrames),
            static_cast<unsigned long long>(st.completedFrames),
            static_cast<unsigned long long>(st.droppedFrames));
    r.check(st.liveFrames == 0, "serve: %llu frames live after drain",
            static_cast<unsigned long long>(st.liveFrames));
}

constexpr std::uint64_t kGaugePeriod = 4096;

void
runServe(const Options &o, Report &r)
{
    const ServeSpec spec = serveSpec(o.workload);
    const accel::Accelerator acc = twoWayHda(accel::edgeClass());
    const sched::OnlineOptions oopts = serveOptions();

    auto setup = [&] {
        sched::ArrivalSource src = serveSource(o.seed, spec);
        cost::CostModel model;
        sched::OnlineScheduler eng(model, src.models(), acc, oopts);
    };

    if (o.trace) {
        struct Out
        {
            sched::OnlineStats st;
            std::uint64_t emitted = 0;
            std::size_t evals = 0;
            std::uint64_t maxReady = 0, maxWindow = 0, maxEntries = 0;
        };
        auto stages = [&](Tracer *tr) {
            Out out;
            Scope root(tr, "run");
            std::unique_ptr<sched::ArrivalSource> src;
            {
                Scope s(tr, "setup.workload");
                src = std::make_unique<sched::ArrivalSource>(
                    serveSource(o.seed, spec));
            }
            cost::CostModel model;
            std::unique_ptr<sched::OnlineScheduler> eng;
            {
                Scope s(tr, "setup.engine");
                eng = std::make_unique<sched::OnlineScheduler>(
                    model, src->models(), acc, oopts);
            }
            out.evals = model.cacheSize();
            {
                Scope s(tr, "sched.online.construct.warm");
                sched::OnlineScheduler warm(model, src->models(), acc,
                                            oopts);
            }
            std::uint64_t n = 0;
            while (!src->exhausted()) {
                const sched::ArrivalSource::Frame f = src->next();
                {
                    Scope s(tr, "sched.online.submit",
                            static_cast<std::int64_t>(n));
                    eng->submit(f.streamIdx, f.arrivalCycle,
                                f.deadlineCycle);
                }
                if (++n % kGaugePeriod == 0) {
                    const sched::OnlineStats g = eng->stats();
                    out.maxReady = std::max(out.maxReady, g.readyFrames);
                    out.maxWindow =
                        std::max(out.maxWindow, g.windowFrames);
                    out.maxEntries =
                        std::max(out.maxEntries, g.liveEntries);
                }
            }
            {
                Scope s(tr, "sched.online.drain");
                eng->drain();
            }
            out.emitted = src->emitted();
            out.st = eng->stats();
            return out;
        };
        auto values = [&](const Tracer &tr, const Out &out) {
            std::map<std::string, double> t = tr.totalsByName();
            std::vector<double> submit_us;
            for (const perfbench::Span &s : tr.all()) {
                if (std::strcmp(s.name, "sched.online.submit") == 0)
                    submit_us.push_back(s.endUs - s.startUs);
            }
            const double engine_s =
                t["sched.online.submit"] + t["sched.online.drain"];
            const double warm = t["sched.online.construct.warm"];
            const sched::OnlineStats &st = out.st;
            LayerValues v;
            v["setup.workload_s"] = t["setup.workload"];
            v["setup.engine_s"] = t["setup.engine"];
            v["cost.evals"] = static_cast<double>(out.evals);
            v["cost.evaluate_s"] = t["setup.engine"] - warm;
            v["sched.table.build_s"] = warm;
            v["sched.dispatch.s"] = engine_s;
            v["sched.dispatch.layers"] =
                static_cast<double>(st.committedLayers);
            v["sched.dispatch.ns_per_layer"] =
                engine_s * 1e9 /
                std::max(1.0, static_cast<double>(st.committedLayers));
            v["sched.online.submit_s"] = t["sched.online.submit"];
            v["sched.online.drain_s"] = t["sched.online.drain"];
            v["sched.online.submit_p50_us"] = percentile(submit_us, 0.50);
            v["sched.online.submit_p99_us"] = percentile(submit_us, 0.99);
            v["sched.online.submit_max_us"] = percentile(submit_us, 1.0);
            v["sched.online.committed_layers"] =
                static_cast<double>(st.committedLayers);
            v["sched.online.rejected"] =
                static_cast<double>(st.rejectedFrames);
            v["sched.online.dropped"] = static_cast<double>(st.droppedFrames);
            v["sched.online.retired_entries"] =
                static_cast<double>(st.retiredEntries);
            v["sched.online.max_ready_frames"] =
                static_cast<double>(out.maxReady);
            v["sched.online.max_window_frames"] =
                static_cast<double>(out.maxWindow);
            v["sched.online.max_live_entries"] =
                static_cast<double>(out.maxEntries);
            v["trace.user_path_s"] = engine_s;
            checkServeIdentities(st, out.emitted, o.inject == "identity",
                                 r);
            r.attempted = st.submittedFrames;
            r.failed = st.rejectedFrames + st.droppedFrames;
            return v;
        };
        traceRun(o, stages, values, r);
        return;
    }

    // End to end: submit every frame, then drain; the engine (and its
    // cost table) is built before the clock starts.
    sched::OnlineStats first;
    std::uint64_t emitted = 0;
    bool have_first = false, repeatable = true;
    sched::ArrivalSource src = serveSource(o.seed, spec);
    measure(
        o.seconds,
        [&] {
            src.reset();
            cost::CostModel model;
            sched::OnlineScheduler eng(model, src.models(), acc, oopts);
            const Clock::time_point t0 = Clock::now();
            while (!src.exhausted()) {
                const sched::ArrivalSource::Frame f = src.next();
                eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
            }
            eng.drain();
            const double dt = secondsSince(t0);
            const sched::OnlineStats st = eng.stats();
            if (!have_first) {
                first = st;
                emitted = src.emitted();
                have_first = true;
            } else {
                repeatable = repeatable && sameStats(first, st);
            }
            return static_cast<double>(st.committedLayers) / dt;
        },
        setup, r);

    r.check(repeatable, "serve: repeated runs differ");
    checkServeIdentities(first, emitted, o.inject == "identity", r);
    r.check(std::isfinite(first.p50LatencyCycles),
            "serve: median latency is unbounded");

    r.attempted = first.submittedFrames;
    r.failed = first.rejectedFrames + first.droppedFrames;
    const double goodput =
        static_cast<double>(first.framesWithDeadline -
                            first.deadlineMisses) /
        static_cast<double>(first.submittedFrames);
    reportSimulated(goodput, first.p50LatencyCycles, r);
    std::printf("serve_p99_latency_ms   %.9g ms%s\n",
                first.p99LatencyCycles / 1e6,
                std::isfinite(first.p99LatencyCycles)
                    ? ""
                    : "  (shed frames count as unbounded)");
    std::printf("serve frames           rejected %llu, dropped %llu, "
                "misses %llu\n",
                static_cast<unsigned long long>(first.rejectedFrames),
                static_cast<unsigned long long>(first.droppedFrames),
                static_cast<unsigned long long>(first.deadlineMisses));
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload dse-arvrA-edge|offline-factory-edf|"
                 "serve-steady|serve-overload [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] "
                 "[--inject pinned|identity]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *val = argv[++i];
        if (a == "--workload")
            o.workload = val;
        else if (a == "--seed")
            o.seed = std::strtoull(val, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(val, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(val, "0") != 0;
        else if (a == "--trace-out")
            o.traceOut = val;
        else if (a == "--inject")
            o.inject = val;
        else
            return usage(argv[0]);
    }
    if (o.inject != "" && o.inject != "pinned" && o.inject != "identity")
        return usage(argv[0]);
    util::setVerbose(false);

    Report r;
    if (o.workload == "dse-arvrA-edge")
        runDse(o, r);
    else if (o.workload == "offline-factory-edf")
        runOffline(o, r);
    else if (o.workload == "serve-steady" ||
             o.workload == "serve-overload")
        runServe(o, r);
    else
        return usage(argv[0]);

    for (const Metric &m : r.metrics) {
        r.check(std::isfinite(m.value), "metric %s is not finite",
                m.name.c_str());
    }
    r.check(r.attempted > 0, "no operations attempted");
    r.print();
    return r.correct ? 0 : 1;
}
